#ifndef VCMP_TASKS_BKHS_H_
#define VCMP_TASKS_BKHS_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "tasks/task.h"

namespace vcmp {

/// Batch k-Hop Search (Section 2.3 / 3): for each source s in S, collect
/// the set of vertices within k hops of s. The workload is |S|. The
/// program is MSSP truncated after k+1 communication rounds; like MSSP it
/// samples sources and extrapolates via message multiplicities.
class BkhsTask : public MultiTask {
 public:
  struct Params {
    /// Neighbourhood radius (the paper's link-analysis use case is 2-hop
    /// ego networks).
    uint32_t k = 2;
    uint32_t max_sampled_sources = 16;
    /// Bytes per discovered (source, vertex) pair in residual memory.
    double residual_entry_bytes = 4.0;
  };

  BkhsTask() = default;
  explicit BkhsTask(const Params& params) : params_(params) {}

  std::string name() const override { return "BKHS"; }

  Result<std::unique_ptr<VertexProgram>> MakeProgram(
      const TaskContext& context, ProgramFlavor flavor, double workload,
      uint64_t seed) const override;

  const Params& params() const { return params_; }

 private:
  Params params_;
};

/// The BKHS vertex program: BFS wavefront per sampled source, stopping
/// after k+1 rounds (the paper's explicit termination condition).
class BkhsProgram : public VertexProgram {
 public:
  BkhsProgram(const TaskContext& context, ProgramFlavor flavor,
              double workload, const BkhsTask::Params& params,
              uint64_t seed);

  void Seed(VertexId v, MessageSink& sink) override;
  void ComputeRun(VertexId v, const MessageRunView& run,
                  MessageSink& sink) override;
  bool ShouldTerminate(uint64_t rounds_completed) const override {
    return rounds_completed >= params_.k + 1;
  }
  MessageFold fold() const override { return MessageFold::kMin; }

  uint32_t num_samples() const {
    return static_cast<uint32_t>(sources_.size());
  }
  VertexId SourceOf(uint32_t sample) const { return sources_[sample]; }
  /// Vertices discovered within k hops of sampled source `sample`
  /// (excluding the source itself).
  uint64_t KHopCount(uint32_t sample) const {
    return khop_count_[sample].load(std::memory_order_relaxed);
  }
  double extrapolation() const { return extrapolation_; }

 private:
  void Visit(VertexId v, uint32_t sample, uint32_t hop, MessageSink& sink);

  const TaskContext context_;
  const ProgramFlavor flavor_;
  const BkhsTask::Params params_;
  const VertexId num_vertices_;
  double extrapolation_ = 1.0;
  std::vector<VertexId> sources_;
  /// samples x n, row-major. uint8_t (not vector<bool>): adjacent vertex
  /// slots must not share a byte once shards of one machine run
  /// concurrently — each vertex column is written only by its owner.
  std::vector<uint8_t> visited_;
  /// Counting-only cross-vertex accumulation: relaxed atomics (integer
  /// adds commute, so the totals stay deterministic).
  std::unique_ptr<std::atomic<uint64_t>[]> khop_count_;
};

}  // namespace vcmp

#endif  // VCMP_TASKS_BKHS_H_
