#ifndef VCMP_TASKS_PAGERANK_H_
#define VCMP_TASKS_PAGERANK_H_

#include <memory>
#include <vector>

#include "engine/vertex_program.h"
#include "tasks/task.h"

namespace vcmp {

/// Classic global PageRank — the paper's "single classic task" used as the
/// light-workload contrast to BPPR in the sync-vs-async comparison
/// (Table 4). Not a multi-processing task: one unit of work, fixed-round
/// power iteration.
class PageRankProgram : public VertexProgram {
 public:
  struct Params {
    double damping = 0.85;
    /// Hard cap on power-iteration rounds.
    uint32_t iterations = 30;
    /// When > 0, the program aggregates the summed |rank delta| each
    /// round (Pregel aggregator) and terminates once it drops below this
    /// tolerance — usually well before the iteration cap.
    double tolerance = 0.0;
  };

  PageRankProgram(const TaskContext& context, const Params& params);

  void Seed(VertexId v, MessageSink& sink) override;
  void ComputeRun(VertexId v, const MessageRunView& run,
                  MessageSink& sink) override;
  bool ShouldTerminate(uint64_t rounds_completed) const override {
    return rounds_completed > params_.iterations;
  }
  bool TerminateOnAggregate(double aggregate_sum) const override {
    return params_.tolerance > 0.0 && aggregate_sum < params_.tolerance;
  }
  double StateBytes(uint32_t machine) const override;
  MessageFold fold() const override { return MessageFold::kSum; }

  double Rank(VertexId v) const { return rank_[v]; }
  /// Sum of ranks (== 1 minus leaked dangling mass).
  double TotalRank() const;

 private:
  void Propagate(VertexId v, MessageSink& sink);

  const TaskContext context_;
  const Params params_;
  std::vector<double> rank_;
};

/// MultiTask adapter so PageRank can run through the multi-processing
/// runner (workload is interpreted as the number of independent PageRank
/// computations; the paper's Table 4 uses workload 1).
class PageRankTask : public MultiTask {
 public:
  PageRankTask() = default;
  explicit PageRankTask(const PageRankProgram::Params& params)
      : params_(params) {}

  std::string name() const override { return "PageRank"; }

  Result<std::unique_ptr<VertexProgram>> MakeProgram(
      const TaskContext& context, ProgramFlavor flavor, double workload,
      uint64_t seed) const override;

 private:
  PageRankProgram::Params params_;
};

}  // namespace vcmp

#endif  // VCMP_TASKS_PAGERANK_H_
