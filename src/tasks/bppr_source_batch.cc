#include "tasks/bppr_source_batch.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace vcmp {

BpprSourceBatchProgram::BpprSourceBatchProgram(
    const TaskContext& context, double num_queries,
    const BpprSourceBatchTask::Params& params, uint64_t seed)
    : context_(context),
      params_(params),
      rng_(seed),
      is_source_(context.graph->NumVertices(), false),
      stopped_(context.graph->NumVertices(), 0) {
  const VertexId n = context.graph->NumVertices();
  uint32_t samples = static_cast<uint32_t>(std::min<double>(
      std::min<double>(params.max_sampled_sources, num_queries), n));
  VCMP_CHECK(samples > 0);
  // Unlike MSSP/BKHS (whose per-source work grows with the graph), a PPR
  // query's work is W walks regardless of graph size, so the engine's
  // dataset-scale multiplier must NOT amplify it: express the
  // extrapolation in generated-graph units.
  extrapolation_ =
      num_queries / samples / std::max(1.0, context.scale);
  sources_.reserve(samples);
  while (sources_.size() < samples) {
    auto candidate = static_cast<VertexId>(rng_.NextBounded(n));
    if (is_source_[candidate]) continue;
    is_source_[candidate] = true;
    sources_.push_back(candidate);
  }
}

void BpprSourceBatchProgram::Seed(VertexId v, MessageSink& sink) {
  if (is_source_[v]) Move(v, params_.walks_per_source, sink);
}

void BpprSourceBatchProgram::ComputeRun(VertexId v, const MessageRunView& run,
                                        MessageSink& sink) {
  // Walks travel on one tag (0): one run per vertex per round.
  Move(v, static_cast<uint64_t>(std::llround(run.SumValues())), sink);
}

void BpprSourceBatchProgram::Move(VertexId v, uint64_t count,
                                  MessageSink& sink) {
  if (count == 0) return;
  Rng& rng = sink.rng();
  uint64_t stopping = rng.NextBinomial(count, params_.alpha);
  const auto neighbors = context_.graph->Neighbors(v);
  if (neighbors.empty()) stopping = count;
  if (stopping > 0) {
    stopped_[v] += stopping;
    sink.AddResidualBytes(static_cast<double>(stopping) * extrapolation_ *
                          params_.residual_record_bytes);
  }
  uint64_t moving = count - stopping;
  if (moving == 0) return;
  sink.AddComputeUnits(static_cast<double>(neighbors.size()));
  uint64_t remaining = moving;
  size_t left = neighbors.size();
  for (VertexId u : neighbors) {
    if (remaining == 0) break;
    uint64_t portion =
        (left == 1)
            ? remaining
            : rng.NextBinomial(remaining, 1.0 / static_cast<double>(left));
    if (portion > 0) {
      // Physical value stays in walk units; the multiplicity carries the
      // extrapolated query count.
      sink.Send(u, /*tag=*/0, static_cast<double>(portion),
                static_cast<double>(portion) * extrapolation_);
      remaining -= portion;
    }
    --left;
  }
}

double BpprSourceBatchProgram::StateBytes(uint32_t machine) const {
  (void)machine;
  return 8.0 * context_.graph->NumVertices() /
         context_.partition->num_machines;
}

uint64_t BpprSourceBatchProgram::TotalStopped() const {
  return std::accumulate(stopped_.begin(), stopped_.end(), uint64_t{0});
}

Result<std::unique_ptr<VertexProgram>> BpprSourceBatchTask::MakeProgram(
    const TaskContext& context, ProgramFlavor flavor, double workload,
    uint64_t seed) const {
  if (context.graph == nullptr || context.partition == nullptr) {
    return Status::InvalidArgument(
        "BPPR(source-batched) task context missing graph");
  }
  if (workload < 1.0) {
    return Status::InvalidArgument("workload must be >= 1 query");
  }
  if (flavor == ProgramFlavor::kBroadcast) {
    return Status::Unimplemented(
        "source-batched BPPR is defined for the point-to-point interface");
  }
  return std::unique_ptr<VertexProgram>(
      std::make_unique<BpprSourceBatchProgram>(context, workload, params_,
                                               seed));
}

}  // namespace vcmp
