#ifndef VCMP_ENGINE_GAS_ENGINE_H_
#define VCMP_ENGINE_GAS_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "engine/query_context.h"
#include "engine/system_profile.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "sim/cluster_spec.h"
#include "graph/vertex_cut.h"
#include "sim/cost_model.h"

namespace vcmp {

class GasEngine;
class Tracer;

/// Context handed to GasVertexProgram::Process.
class GasContext {
 public:
  virtual ~GasContext() = default;

  /// Sends `value` toward `target`'s accumulator and schedules it.
  /// `multiplicity` is the logical message count (walk counts etc.).
  virtual void Signal(VertexId target, double value, double multiplicity) = 0;

  /// Extra modelled compute in edge-scan units.
  virtual void AddComputeUnits(double units) = 0;

  /// Records bytes of residual (intermediate-result) memory produced by
  /// the current vertex. The engine attributes them to the vertex's
  /// machine and folds them in frontier order, so several compute shards
  /// of one machine can run concurrently without the program keeping a
  /// shared per-machine accumulator. Accumulated totals are returned in
  /// GasResult::residual_bytes_per_machine.
  virtual void AddResidualBytes(double bytes) { (void)bytes; }

  /// Deterministic random stream of the CURRENT vertex: reseeded from
  /// (engine seed, pass, vertex) at each Process call, so draw sequences
  /// never depend on the shard layout, thread count or frontier order.
  virtual Rng& rng() = 0;
  /// Scheduling pass (== superstep in sync mode).
  virtual uint64_t pass() const = 0;
};

/// GraphLab-style Gather-Apply-Scatter program over a sum accumulator:
/// signals to a vertex are summed (the gather), Process applies the update
/// and scatters new signals. Both the synchronous engine (bulk passes with
/// barriers) and the asynchronous engine (barrier-free scheduling with
/// distributed locks) execute the same program.
class GasVertexProgram {
 public:
  virtual ~GasVertexProgram() = default;

  /// Emits the initial signals / performs initial activations.
  virtual void Seed(GasContext& context) = 0;

  /// Handles the accumulated signal for v (sum of Signal values since the
  /// last call).
  virtual void Process(VertexId v, double signal, GasContext& context) = 0;

  virtual double StateBytes(uint32_t machine) const {
    (void)machine;
    return 0.0;
  }

  /// Work multiplier under asynchronous scheduling relative to bulk
  /// passes. Convergent fixed-point computations (PageRank) propagate
  /// eagerly and need fewer total updates (< 1); fixed-work computations
  /// (walk simulation) cannot be reduced (= 1).
  virtual double AsyncWorkFactor() const { return 1.0; }
};

/// Result of a GAS execution.
struct GasResult {
  double seconds = 0.0;
  bool overloaded = false;
  uint64_t passes = 0;
  /// Vertex activations processed.
  double activations = 0.0;
  /// Logical signals exchanged.
  double messages = 0.0;
  /// Network bytes per machine over the whole run (Table 4's
  /// bytes-per-machine column).
  double network_bytes_per_machine = 0.0;
  double peak_memory_bytes = 0.0;
  double barrier_seconds = 0.0;
  double lock_seconds = 0.0;
  /// Residual bytes recorded via GasContext::AddResidualBytes over the
  /// whole run, per machine, generated-graph scale (mirrors
  /// EngineResult::residual_bytes_per_machine).
  std::vector<double> residual_bytes_per_machine;
};

/// Options for a GAS execution.
struct GasOptions {
  ClusterSpec cluster = ClusterSpec::Galaxy8();
  /// GraphLab or GraphLab(async) profile; `synchronous` selects the mode.
  SystemProfile profile;
  CostParams cost;
  double stat_scale = 1.0;
  uint64_t seed = 7;
  uint64_t max_passes = 8192;
  /// Threads for the engine's parallel sections, served by the same
  /// persistent ThreadPool as SyncEngine. In synchronous mode the Process
  /// loop itself runs shard-parallel: the pass's frontier signals are
  /// snapshot-consumed up front, fixed contiguous frontier shards log
  /// their signals/compute/residual into per-shard event logs, and the
  /// logs are replayed serially in shard order through the real signal
  /// path — so results are bit-identical for any thread count and any
  /// shard count (DESIGN.md section 12). The asynchronous Process loop
  /// stays sequential by semantics: signals to not-yet-consumed frontier
  /// vertices fold into the current pass. 0 = auto (hardware threads).
  uint32_t execution_threads = 1;
  /// Clamp the thread count to the hardware concurrency (same contract as
  /// EngineOptions::clamp_threads_to_hardware — results are invariant, so
  /// oversubscription only adds context switches). Tests that must run an
  /// exact thread count disable this.
  bool clamp_threads_to_hardware = true;
  /// Fixed number of compute shards the synchronous frontier is split
  /// into (contiguous segments). Like the sync engine, deliberately NOT
  /// derived from the thread count. 0 = auto (16).
  uint32_t compute_shards = 0;
  /// GraphLab's priority scheduler (async mode): process vertices with the
  /// largest pending signal first. Convergent programs settle heavy mass
  /// early and need fewer activations than FIFO order.
  bool priority_scheduling = false;
  /// --- Observability (src/obs) ---
  /// When set, synchronous passes emit nested pass > {compute, barrier}
  /// spans plus memory gauges; asynchronous runs (no per-pass simulated
  /// timeline — time is priced once at the end) emit a single execution
  /// span. Timestamps are simulated seconds offset by
  /// trace_time_offset_seconds. Null = off (one branch per pass).
  Tracer* tracer = nullptr;
  /// kAutoTrack registers a fresh "gas/passes" track at Run().
  uint32_t trace_track = kAutoTrack;
  double trace_time_offset_seconds = 0.0;
  static constexpr uint32_t kAutoTrack = ~0u;

  /// PowerGraph-style vertex-cut deployment (optional; must outlive the
  /// engine). When set, cross-machine traffic is replica synchronisation —
  /// each active vertex exchanges 2*(replicas-1) messages per pass (gather
  /// partials in, apply broadcast out) — and vertex state is replicated
  /// accordingly. This bounds hub traffic by the replication factor
  /// instead of the hub degree.
  const VertexCut* vertex_cut = nullptr;
};

/// Executes a GasVertexProgram.
///
/// Synchronous mode runs bulk passes with a barrier each, combining
/// same-target signals at the sender (GraphLab sync's message merging) and
/// pricing each pass through the CostModel. Asynchronous mode executes the
/// same scheduling order without barriers or combining, pricing the run
/// with per-activation distributed-lock overhead that grows with the
/// cluster's fiber count (Section 4.8).
///
/// Like SyncEngine, the engine is immutable after construction and Run is
/// const: all run state lives on Run's stack, so several queries can Run
/// against one engine concurrently, each with its own QueryContext
/// (DESIGN.md section 14).
class GasEngine {
 public:
  GasEngine(const Graph& graph, const Partitioning& partition,
            GasOptions options);

  GasEngine(const GasEngine&) = delete;
  GasEngine& operator=(const GasEngine&) = delete;

  /// Runs `program` as query_id 0 on a private per-run pool (the
  /// historical single-query behavior, bit for bit).
  Result<GasResult> Run(GasVertexProgram& program) const;

  /// Re-entrant form: runs `program` with the context's query_id (which
  /// namespaces the per-vertex RNG streams) and pool. One context per
  /// in-flight query.
  Result<GasResult> Run(GasVertexProgram& program, QueryContext& ctx) const;

  const GasOptions& options() const { return options_; }

 private:
  class Context;

  const Graph& graph_;
  const Partitioning& partition_;
  GasOptions options_;
  std::vector<double> graph_share_bytes_;
};

}  // namespace vcmp

#endif  // VCMP_ENGINE_GAS_ENGINE_H_
