#ifndef VCMP_TASKS_MSSP_H_
#define VCMP_TASKS_MSSP_H_

#include <memory>
#include <string>
#include <vector>

#include "tasks/task.h"

namespace vcmp {

/// Multiple-Source Shortest Path distance queries (Section 2.3 / 3).
///
/// The workload W is the number of source vertices; each unit task is one
/// SSSP. Distances are hop counts (unit edge weights). For large W the
/// program simulates a deterministic sample of sources and extrapolates:
/// every message carries multiplicity W / samples, so congestion, memory
/// and residual statistics reflect the full source set while the process
/// runs only the sample. Tests use workload <= max_sampled_sources, where
/// execution is exact.
class MsspTask : public MultiTask {
 public:
  struct Params {
    /// Physical sources simulated per batch; larger = finer statistics,
    /// slower benches.
    uint32_t max_sampled_sources = 16;
    /// Bytes per (source, vertex) distance entry in residual memory.
    double residual_entry_bytes = 4.0;
  };

  MsspTask() = default;
  explicit MsspTask(const Params& params) : params_(params) {}

  std::string name() const override { return "MSSP"; }

  Result<std::unique_ptr<VertexProgram>> MakeProgram(
      const TaskContext& context, ProgramFlavor flavor, double workload,
      uint64_t seed) const override;

  const Params& params() const { return params_; }

 private:
  Params params_;
};

/// The MSSP vertex program (both flavours; the broadcast variant sends the
/// (source, distance) pair to every neighbour, Section 3 "Pregel-Mirror
/// (MSSP)").
class MsspProgram : public VertexProgram {
 public:
  static constexpr uint32_t kUnreached = static_cast<uint32_t>(-1);

  MsspProgram(const TaskContext& context, ProgramFlavor flavor,
              double workload, const MsspTask::Params& params,
              uint64_t seed);

  void Seed(VertexId v, MessageSink& sink) override;
  void ComputeRun(VertexId v, const MessageRunView& run,
                  MessageSink& sink) override;
  MessageFold fold() const override { return MessageFold::kMin; }

  uint32_t num_samples() const {
    return static_cast<uint32_t>(sources_.size());
  }
  VertexId SourceOf(uint32_t sample) const { return sources_[sample]; }
  /// Hop distance from sampled source `sample` to v (kUnreached if none).
  uint32_t Distance(uint32_t sample, VertexId v) const {
    return dist_[static_cast<size_t>(sample) * num_vertices_ + v];
  }
  double extrapolation() const { return extrapolation_; }

 private:
  void Relax(VertexId v, uint32_t sample, uint32_t distance,
             MessageSink& sink);

  const TaskContext context_;
  const ProgramFlavor flavor_;
  const MsspTask::Params params_;
  const VertexId num_vertices_;
  double extrapolation_ = 1.0;
  std::vector<VertexId> sources_;
  std::vector<uint32_t> dist_;  // samples x n, row-major.
};

}  // namespace vcmp

#endif  // VCMP_TASKS_MSSP_H_
