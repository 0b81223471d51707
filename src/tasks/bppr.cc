#include "tasks/bppr.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace vcmp {

namespace {

// Small-count fast path for the walk advance: one uniform draw per walk
// decides stop-vs-move and, for movers, the destination bucket. The joint
// distribution of (stop count, per-neighbour counts) is exactly the
// Binomial(alpha) stop draw followed by the conditional-binomial
// multinomial split, but it costs O(resident) draws where the binomial
// chain costs O(resident * degree) once NextBinomial is in its exact
// per-trial regime (n <= 128). Fills counts[0..degree) and returns the
// number of walks that stop. Callers gate on degree >= 2 (degree 1 splits
// for free) and degree <= kPerWalkDegreeMax (counts live on the stack).
constexpr uint64_t kPerWalkResidentMax = 128;
constexpr size_t kPerWalkDegreeMax = 1024;

uint64_t PerWalkStopAndSplit(Rng& rng, size_t degree, uint64_t resident,
                             double alpha, uint32_t* counts) {
  std::fill(counts, counts + degree, 0u);
  const double scale = static_cast<double>(degree) / (1.0 - alpha);
  uint64_t stopping = 0;
  for (uint64_t walk = 0; walk < resident; ++walk) {
    const double x = rng.NextDouble();
    if (x < alpha) {
      ++stopping;
      continue;
    }
    // x | x >= alpha is uniform on [alpha, 1), so the rescale is uniform
    // on [0, degree); the clamp guards the floating-point upper edge.
    size_t index = static_cast<size_t>((x - alpha) * scale);
    if (index >= degree) index = degree - 1;
    ++counts[index];
  }
  return stopping;
}

// Multinomial split of `moving` walks over `neighbors`: one combined
// (count, count) message per nonempty destination, in neighbour order.
// Conditional binomials sample the head; once the remainder is small the
// tail finishes with one uniform draw per walk — the same distribution,
// at O(remaining + left) draws instead of O(remaining * left) once
// NextBinomial is in its exact per-trial regime.
template <typename SendFn>
void MultinomialSplit(Rng& rng, std::span<const VertexId> neighbors,
                      uint64_t moving, SendFn&& send) {
  uint64_t remaining = moving;
  const size_t degree = neighbors.size();
  for (size_t i = 0; i < degree && remaining > 0; ++i) {
    const size_t left = degree - i;
    if (left == 1) {
      send(neighbors[i], remaining);
      return;
    }
    if (remaining <= kPerWalkResidentMax && left <= kPerWalkDegreeMax) {
      uint32_t counts[kPerWalkDegreeMax];
      std::fill(counts, counts + left, 0u);
      for (uint64_t walk = 0; walk < remaining; ++walk) {
        ++counts[rng.NextBounded(static_cast<uint64_t>(left))];
      }
      for (size_t j = 0; j < left; ++j) {
        if (counts[j] > 0) send(neighbors[i + j], counts[j]);
      }
      return;
    }
    uint64_t portion =
        rng.NextBinomial(remaining, 1.0 / static_cast<double>(left));
    if (portion > 0) {
      send(neighbors[i], portion);
      remaining -= portion;
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// BpprCountingProgram
// ---------------------------------------------------------------------------

BpprCountingProgram::BpprCountingProgram(const TaskContext& context,
                                         double walks_per_vertex,
                                         const BpprTask::Params& params,
                                         uint64_t seed)
    : context_(context),
      walks_per_vertex_(static_cast<uint64_t>(
          std::llround(std::max(0.0, walks_per_vertex)))),
      params_(params),
      stopped_(context.graph->NumVertices(), 0) {
  // Randomness comes from the engine's per-vertex streams (sink.rng());
  // the seed parameter is kept so batch construction remains explicit
  // about its stochastic identity.
  (void)seed;
}

void BpprCountingProgram::Seed(VertexId v, MessageSink& sink) {
  AdvanceResident(v, walks_per_vertex_, sink);
}

void BpprCountingProgram::ComputeRun(VertexId v, const MessageRunView& run,
                                     MessageSink& sink) {
  // Counting mode sends on a single tag (0), so each vertex owns exactly
  // one run per round: its resident walk count.
  AdvanceResident(
      v, static_cast<uint64_t>(std::llround(run.SumValues())), sink);
}

void BpprCountingProgram::AdvanceResident(VertexId v, uint64_t resident,
                                          MessageSink& sink) {
  if (resident == 0) return;

  // Each resident walk stops here with probability alpha. Randomness is
  // drawn from the sink's per-vertex stream so vertices can compute
  // concurrently and deterministically.
  Rng& rng = sink.rng();
  const auto neighbors = context_.graph->Neighbors(v);
  if (resident <= kPerWalkResidentMax && neighbors.size() >= 2 &&
      neighbors.size() <= kPerWalkDegreeMax) {
    uint32_t counts[kPerWalkDegreeMax];
    uint64_t stops = PerWalkStopAndSplit(rng, neighbors.size(), resident,
                                         params_.alpha, counts);
    RecordStops(v, stops, sink);
    if (stops == resident) return;
    sink.AddComputeUnits(static_cast<double>(neighbors.size()));
    for (size_t i = 0; i < neighbors.size(); ++i) {
      if (counts[i] > 0) {
        sink.Send(neighbors[i], /*tag=*/0, static_cast<double>(counts[i]),
                  static_cast<double>(counts[i]));
      }
    }
    return;
  }
  uint64_t stopping = rng.NextBinomial(resident, params_.alpha);
  if (neighbors.empty()) stopping = resident;  // Dangling: walks end here.
  RecordStops(v, stopping, sink);
  uint64_t moving = resident - stopping;
  if (moving == 0) return;

  // Multinomial split of the survivors over the neighbours (exact in
  // distribution).
  sink.AddComputeUnits(static_cast<double>(neighbors.size()));
  MultinomialSplit(rng, neighbors, moving, [&](VertexId u, uint64_t portion) {
    sink.Send(u, /*tag=*/0, static_cast<double>(portion),
              static_cast<double>(portion));
  });
}

void BpprCountingProgram::RecordStops(VertexId v, uint64_t count,
                                      MessageSink& sink) {
  if (count == 0) return;
  stopped_[v] += count;
  // Terminated-walk records accrue through the sink's per-vertex log so
  // several shards of one machine can execute concurrently; the engine
  // folds the records in vertex order and reports the per-machine totals
  // in EngineResult::residual_bytes_per_machine.
  sink.AddResidualBytes(static_cast<double>(count) *
                        params_.residual_record_bytes);
}

double BpprCountingProgram::StateBytes(uint32_t machine) const {
  (void)machine;
  // Walk counters: 8 bytes per local vertex (uniform share).
  return 8.0 * context_.graph->NumVertices() /
         context_.partition->num_machines;
}

uint64_t BpprCountingProgram::TotalStopped() const {
  return std::accumulate(stopped_.begin(), stopped_.end(), uint64_t{0});
}

// ---------------------------------------------------------------------------
// BpprPushProgram
// ---------------------------------------------------------------------------

BpprPushProgram::BpprPushProgram(const TaskContext& context,
                                 double walks_per_vertex,
                                 const BpprTask::Params& params)
    : context_(context),
      walks_per_vertex_(walks_per_vertex),
      params_(params),
      stopped_mass_(context.graph->NumVertices(), 0.0),
      settled_sources_(context.graph->NumVertices()) {}

void BpprPushProgram::Seed(VertexId v, MessageSink& sink) {
  // Every vertex is the source of its own W-walk budget.
  ProcessMass(v, /*source=*/v, walks_per_vertex_, sink);
}

void BpprPushProgram::ComputeRun(VertexId v, const MessageRunView& run,
                                 MessageSink& sink) {
  // One run per (vertex, source): that source's incoming shares.
  ProcessMass(v, run.tag, run.SumValues(), sink);
}

void BpprPushProgram::ProcessMass(VertexId v, uint32_t source, double mass,
                                  MessageSink& sink) {
  if (mass <= 0.0) return;
  const auto neighbors = context_.graph->Neighbors(v);
  double settling = neighbors.empty() ? mass : params_.alpha * mass;
  double moving = mass - settling;
  // Fractional mass below one walk settles locally instead of diffusing
  // forever: conserves the estimator's total mass and bounds the
  // per-source diffusion depth.
  if (moving < params_.prune_threshold && !neighbors.empty()) {
    settling = mass;
    moving = 0.0;
  }
  RecordSettle(v, source, settling, sink);
  if (moving <= 0.0 || neighbors.empty()) return;
  // One common broadcast message for this source: every neighbour
  // receives the same per-neighbour share (the walk fractionalized over
  // the out-degree).
  double share = moving / static_cast<double>(neighbors.size());
  sink.Broadcast(v, source, share, /*multiplicity_per_neighbor=*/1.0);
}

void BpprPushProgram::RecordSettle(VertexId v, uint32_t source, double mass,
                                   MessageSink& sink) {
  if (mass <= 0.0) return;
  stopped_mass_[v] += mass;
  if (settled_sources_[v].insert(source).second) {
    ++result_pairs_;
    // One PPR(source, v) record in the batch's intermediate results,
    // accrued through the sink so concurrent shards of one machine never
    // touch a shared accumulator.
    sink.AddResidualBytes(params_.residual_record_bytes);
  }
}

double BpprPushProgram::StateBytes(uint32_t machine) const {
  (void)machine;
  // Per-(vertex, source) mass entries dominate. A hash-map node with its
  // bucket share plus the receiver-ID bookkeeping the broadcast interface
  // forces (Section 3) costs ~100 bytes per pair in the real C++ systems.
  return 100.0 * static_cast<double>(result_pairs_) /
         context_.partition->num_machines;
}

double BpprPushProgram::TotalStoppedMass() const {
  return std::accumulate(stopped_mass_.begin(), stopped_mass_.end(), 0.0);
}

// ---------------------------------------------------------------------------
// BpprTask
// ---------------------------------------------------------------------------

Result<std::unique_ptr<VertexProgram>> BpprTask::MakeProgram(
    const TaskContext& context, ProgramFlavor flavor, double workload,
    uint64_t seed) const {
  if (context.graph == nullptr || context.partition == nullptr) {
    return Status::InvalidArgument("BPPR task context missing graph");
  }
  if (workload <= 0.0) {
    return Status::InvalidArgument("BPPR workload must be positive");
  }
  if (flavor == ProgramFlavor::kBroadcast) {
    return std::unique_ptr<VertexProgram>(
        std::make_unique<BpprPushProgram>(context, workload, params_));
  }
  return std::unique_ptr<VertexProgram>(std::make_unique<BpprCountingProgram>(
      context, workload, params_, seed));
}

// ---------------------------------------------------------------------------
// BpprExactProgram
// ---------------------------------------------------------------------------

BpprExactProgram::BpprExactProgram(const TaskContext& context,
                                   double walks_per_vertex, double alpha,
                                   uint64_t seed)
    : context_(context),
      walks_per_vertex_(
          static_cast<uint64_t>(std::llround(walks_per_vertex))),
      alpha_(alpha),
      stops_(static_cast<size_t>(context.graph->NumVertices()) *
                 context.graph->NumVertices(),
             0) {
  (void)seed;
  VCMP_CHECK(context.graph->NumVertices() <= 4096)
      << "BpprExactProgram is for small validation graphs";
}

void BpprExactProgram::Seed(VertexId v, MessageSink& sink) {
  Advance(v, v, walks_per_vertex_, sink);
}

void BpprExactProgram::ComputeRun(VertexId v, const MessageRunView& run,
                                  MessageSink& sink) {
  // One run per (vertex, source): that source's resident walk count.
  uint64_t count = 0;
  for (size_t i = 0; i < run.count; ++i) {
    count += static_cast<uint64_t>(std::llround(run.values[i]));
  }
  Advance(v, run.tag, count, sink);
}

void BpprExactProgram::Advance(VertexId v, uint32_t source, uint64_t count,
                               MessageSink& sink) {
  if (count == 0) return;
  Rng& rng = sink.rng();
  const auto neighbors = context_.graph->Neighbors(v);
  uint64_t stopping = rng.NextBinomial(count, alpha_);
  if (neighbors.empty()) stopping = count;
  if (stopping > 0) {
    stops_[static_cast<size_t>(source) * context_.graph->NumVertices() + v] +=
        stopping;
    sink.AddResidualBytes(8.0 * static_cast<double>(stopping));
  }
  uint64_t moving = count - stopping;
  if (moving == 0) return;
  uint64_t remaining = moving;
  size_t left = neighbors.size();
  for (VertexId u : neighbors) {
    if (remaining == 0) break;
    uint64_t portion =
        (left == 1)
            ? remaining
            : rng.NextBinomial(remaining, 1.0 / static_cast<double>(left));
    if (portion > 0) {
      sink.Send(u, source, static_cast<double>(portion),
                static_cast<double>(portion));
      remaining -= portion;
    }
    --left;
  }
}

double BpprExactProgram::Ppr(VertexId source, VertexId u) const {
  double total = static_cast<double>(walks_per_vertex_);
  if (total == 0.0) return 0.0;
  return static_cast<double>(
             stops_[static_cast<size_t>(source) *
                        context_.graph->NumVertices() +
                    u]) /
         total;
}

}  // namespace vcmp
