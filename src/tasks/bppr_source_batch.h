#ifndef VCMP_TASKS_BPPR_SOURCE_BATCH_H_
#define VCMP_TASKS_BPPR_SOURCE_BATCH_H_

#include <vector>

#include "tasks/task.h"

namespace vcmp {

/// Alternative workload semantics for BPPR (Section 4.9, "Alternative
/// Workload Settings"): the unit task is one PPR *query* — a source
/// vertex running `walks_per_source` alpha-decay walks — and the workload
/// is the number of queries. A batch therefore contains a subset of the
/// source vertices, in contrast to BpprTask whose batches split every
/// vertex's walk budget.
///
/// Like MSSP/BKHS, large query sets are executed on a deterministic
/// sample of sources with the remainder extrapolated through message
/// multiplicities.
class BpprSourceBatchTask : public MultiTask {
 public:
  struct Params {
    double alpha = 0.2;
    /// Walks per PPR query (the per-source accuracy knob).
    uint64_t walks_per_source = 2000;
    uint32_t max_sampled_sources = 32;
    double residual_record_bytes = 8.0;
  };

  BpprSourceBatchTask() = default;
  explicit BpprSourceBatchTask(const Params& params) : params_(params) {}

  std::string name() const override { return "BPPR(source-batched)"; }

  Result<std::unique_ptr<VertexProgram>> MakeProgram(
      const TaskContext& context, ProgramFlavor flavor, double workload,
      uint64_t seed) const override;

  const Params& params() const { return params_; }

 private:
  Params params_;
};

/// Counting-mode walks seeded only at the batch's sampled sources.
class BpprSourceBatchProgram : public VertexProgram {
 public:
  BpprSourceBatchProgram(const TaskContext& context, double num_queries,
                         const BpprSourceBatchTask::Params& params,
                         uint64_t seed);

  void Compute(VertexId v, std::span<const Message> inbox,
               MessageSink& sink) override;
  double StateBytes(uint32_t machine) const override;
  bool combinable() const override { return true; }

  uint32_t num_samples() const {
    return static_cast<uint32_t>(sources_.size());
  }
  VertexId SourceOf(uint32_t sample) const { return sources_[sample]; }
  double extrapolation() const { return extrapolation_; }
  /// Physically simulated walks that terminated (before extrapolation).
  uint64_t TotalStopped() const;

 private:
  void Move(VertexId v, uint64_t count, MessageSink& sink);

  const TaskContext context_;
  const BpprSourceBatchTask::Params params_;
  double extrapolation_ = 1.0;
  Rng rng_;
  std::vector<VertexId> sources_;
  std::vector<bool> is_source_;
  std::vector<uint64_t> stopped_;
};

}  // namespace vcmp

#endif  // VCMP_TASKS_BPPR_SOURCE_BATCH_H_
