#include "tasks/mssp.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"

namespace vcmp {

MsspProgram::MsspProgram(const TaskContext& context, ProgramFlavor flavor,
                         double workload, const MsspTask::Params& params,
                         uint64_t seed)
    : context_(context),
      flavor_(flavor),
      params_(params),
      num_vertices_(context.graph->NumVertices()) {
  uint32_t samples = static_cast<uint32_t>(
      std::min<double>(params.max_sampled_sources, workload));
  VCMP_CHECK(samples > 0);
  extrapolation_ = workload / samples;
  // Deterministic distinct sources.
  Rng rng(seed);
  std::vector<bool> used(num_vertices_, false);
  sources_.reserve(samples);
  while (sources_.size() < samples) {
    auto candidate = static_cast<VertexId>(rng.NextBounded(num_vertices_));
    if (used[candidate]) continue;
    used[candidate] = true;
    sources_.push_back(candidate);
  }
  dist_.assign(static_cast<size_t>(samples) * num_vertices_, kUnreached);
}

void MsspProgram::Seed(VertexId v, MessageSink& sink) {
  for (uint32_t sample = 0; sample < num_samples(); ++sample) {
    if (sources_[sample] == v) Relax(v, sample, 0, sink);
  }
}

void MsspProgram::ComputeRun(VertexId v, const MessageRunView& run,
                             MessageSink& sink) {
  // Receiver-side aggregation (Section 3): one run per (vertex, source),
  // of which only the smallest length is retained.
  uint32_t best = kUnreached;
  for (size_t i = 0; i < run.count; ++i) {
    best = std::min(best, static_cast<uint32_t>(run.values[i]));
  }
  Relax(v, run.tag, best, sink);
}

void MsspProgram::Relax(VertexId v, uint32_t sample, uint32_t distance,
                        MessageSink& sink) {
  uint32_t& current = dist_[static_cast<size_t>(sample) * num_vertices_ + v];
  if (distance >= current) return;
  if (current == kUnreached) {
    // First time reached: one more (source, vertex) result entry. Accrues
    // through the sink's per-vertex log so concurrent shards of one
    // machine never share an accumulator.
    sink.AddResidualBytes(extrapolation_ * params_.residual_entry_bytes);
  }
  current = distance;
  const auto neighbors = context_.graph->Neighbors(v);
  if (neighbors.empty()) return;
  sink.AddComputeUnits(static_cast<double>(neighbors.size()));
  double forwarded = static_cast<double>(distance + 1);
  if (flavor_ == ProgramFlavor::kBroadcast) {
    sink.Broadcast(v, sample, forwarded, extrapolation_);
    return;
  }
  for (VertexId u : neighbors) {
    sink.Send(u, sample, forwarded, extrapolation_);
  }
}

Result<std::unique_ptr<VertexProgram>> MsspTask::MakeProgram(
    const TaskContext& context, ProgramFlavor flavor, double workload,
    uint64_t seed) const {
  if (context.graph == nullptr || context.partition == nullptr) {
    return Status::InvalidArgument("MSSP task context missing graph");
  }
  if (workload < 1.0) {
    return Status::InvalidArgument("MSSP workload must be >= 1 source");
  }
  return std::unique_ptr<VertexProgram>(std::make_unique<MsspProgram>(
      context, flavor, workload, params_, seed));
}

}  // namespace vcmp
