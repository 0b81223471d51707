#include "tasks/pagerank.h"

#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace vcmp {

PageRankProgram::PageRankProgram(const TaskContext& context,
                                 const Params& params)
    : context_(context),
      params_(params),
      rank_(context.graph->NumVertices(),
            1.0 / context.graph->NumVertices()) {}

void PageRankProgram::Seed(VertexId v, MessageSink& sink) {
  Propagate(v, sink);
}

void PageRankProgram::ComputeRun(VertexId v, const MessageRunView& run,
                                 MessageSink& sink) {
  // Single tag (0): one run per vertex per round, holding its incoming
  // rank shares.
  const VertexId n = context_.graph->NumVertices();
  double updated =
      (1.0 - params_.damping) / n + params_.damping * run.SumValues();
  if (params_.tolerance > 0.0) {
    sink.Aggregate(std::fabs(updated - rank_[v]));
  }
  rank_[v] = updated;
  Propagate(v, sink);
}

void PageRankProgram::Propagate(VertexId v, MessageSink& sink) {
  if (sink.round() >= params_.iterations) return;  // Power iteration done.
  const auto neighbors = context_.graph->Neighbors(v);
  if (neighbors.empty()) return;  // Dangling mass leaks (documented).
  sink.AddComputeUnits(static_cast<double>(neighbors.size()));
  double share = rank_[v] / static_cast<double>(neighbors.size());
  for (VertexId u : neighbors) {
    sink.Send(u, /*tag=*/0, share, /*multiplicity=*/1.0);
  }
}

double PageRankProgram::StateBytes(uint32_t machine) const {
  (void)machine;
  return 8.0 * context_.graph->NumVertices() /
         context_.partition->num_machines;
}

double PageRankProgram::TotalRank() const {
  return std::accumulate(rank_.begin(), rank_.end(), 0.0);
}

Result<std::unique_ptr<VertexProgram>> PageRankTask::MakeProgram(
    const TaskContext& context, ProgramFlavor flavor, double workload,
    uint64_t seed) const {
  (void)flavor;
  (void)workload;
  (void)seed;
  if (context.graph == nullptr || context.partition == nullptr) {
    return Status::InvalidArgument("PageRank task context missing graph");
  }
  return std::unique_ptr<VertexProgram>(
      std::make_unique<PageRankProgram>(context, params_));
}

}  // namespace vcmp
