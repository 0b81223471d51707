#include "tasks/bkhs.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"

namespace vcmp {

BkhsProgram::BkhsProgram(const TaskContext& context, ProgramFlavor flavor,
                         double workload, const BkhsTask::Params& params,
                         uint64_t seed)
    : context_(context),
      flavor_(flavor),
      params_(params),
      num_vertices_(context.graph->NumVertices()) {
  uint32_t samples = static_cast<uint32_t>(
      std::min<double>(params.max_sampled_sources, workload));
  VCMP_CHECK(samples > 0);
  extrapolation_ = workload / samples;
  Rng rng(seed);
  std::vector<bool> used(num_vertices_, false);
  sources_.reserve(samples);
  while (sources_.size() < samples) {
    auto candidate = static_cast<VertexId>(rng.NextBounded(num_vertices_));
    if (used[candidate]) continue;
    used[candidate] = true;
    sources_.push_back(candidate);
  }
  visited_.assign(static_cast<size_t>(samples) * num_vertices_, 0);
  khop_count_ = std::make_unique<std::atomic<uint64_t>[]>(samples);
  for (uint32_t i = 0; i < samples; ++i) {
    khop_count_[i].store(0, std::memory_order_relaxed);
  }
}

void BkhsProgram::Seed(VertexId v, MessageSink& sink) {
  for (uint32_t sample = 0; sample < num_samples(); ++sample) {
    if (sources_[sample] == v) Visit(v, sample, 0, sink);
  }
}

void BkhsProgram::ComputeRun(VertexId v, const MessageRunView& run,
                             MessageSink& sink) {
  // One run per (vertex, sample): the smallest hop count offered.
  uint32_t hop = static_cast<uint32_t>(run.values[0]);
  for (size_t i = 1; i < run.count; ++i) {
    hop = std::min(hop, static_cast<uint32_t>(run.values[i]));
  }
  Visit(v, run.tag, hop, sink);
}

void BkhsProgram::Visit(VertexId v, uint32_t sample, uint32_t hop,
                        MessageSink& sink) {
  size_t index = static_cast<size_t>(sample) * num_vertices_ + v;
  if (visited_[index]) return;
  visited_[index] = 1;
  if (v != sources_[sample]) {
    khop_count_[sample].fetch_add(1, std::memory_order_relaxed);
    sink.AddResidualBytes(extrapolation_ * params_.residual_entry_bytes);
  }
  if (hop >= params_.k) return;  // Frontier reached the radius.
  const auto neighbors = context_.graph->Neighbors(v);
  if (neighbors.empty()) return;
  sink.AddComputeUnits(static_cast<double>(neighbors.size()));
  double next_hop = static_cast<double>(hop + 1);
  if (flavor_ == ProgramFlavor::kBroadcast) {
    sink.Broadcast(v, sample, next_hop, extrapolation_);
    return;
  }
  for (VertexId u : neighbors) {
    sink.Send(u, sample, next_hop, extrapolation_);
  }
}

Result<std::unique_ptr<VertexProgram>> BkhsTask::MakeProgram(
    const TaskContext& context, ProgramFlavor flavor, double workload,
    uint64_t seed) const {
  if (context.graph == nullptr || context.partition == nullptr) {
    return Status::InvalidArgument("BKHS task context missing graph");
  }
  if (workload < 1.0) {
    return Status::InvalidArgument("BKHS workload must be >= 1 source");
  }
  return std::unique_ptr<VertexProgram>(std::make_unique<BkhsProgram>(
      context, flavor, workload, params_, seed));
}

}  // namespace vcmp
