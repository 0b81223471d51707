#ifndef VCMP_ENGINE_SYNC_ENGINE_H_
#define VCMP_ENGINE_SYNC_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "engine/mirror_engine.h"
#include "engine/query_context.h"
#include "engine/system_profile.h"
#include "engine/vertex_program.h"
#include "engine/worker.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "metrics/round_stats.h"
#include "ooc/ooc_options.h"
#include "sim/cluster_spec.h"
#include "sim/cost_model.h"

namespace vcmp {

class Tracer;
class OocRuntime;

/// Configuration of one engine execution.
struct EngineOptions {
  ClusterSpec cluster = ClusterSpec::Galaxy8();
  SystemProfile profile;
  CostParams cost;
  /// Dataset scale factor: extensive statistics are multiplied by this so
  /// reduced-scale stand-in graphs report paper-scale numbers.
  double stat_scale = 1.0;
  /// Residual memory carried over from earlier batches, per machine, in
  /// generated-graph-scale bytes (the runner accumulates this). Empty
  /// means zero everywhere.
  std::vector<double> carryover_residual_bytes;
  /// Hard cap on rounds (safety net; programs normally quiesce).
  uint64_t max_rounds = 4096;
  uint64_t seed = 7;
  /// Stop executing once overload is certain (memory overflow or the
  /// simulated clock passing the cut-off); the result is flagged.
  bool stop_early_on_overload = true;
  /// Worker threads for the compute, tally and delivery phases. Results
  /// are bit-identical for any thread count: compute runs over fixed
  /// vertex shards whose outputs land in per-shard arenas and per-vertex
  /// log records, merged and folded in fixed shard/vertex order (see
  /// DESIGN.md section 12). 0 = auto (one thread per hardware core).
  uint32_t execution_threads = 1;
  /// Because results are thread-count invariant, the engine by default
  /// clamps the thread count to the hardware concurrency —
  /// oversubscribing cores only adds context switches without changing
  /// any output. Tests that must run an exact thread count disable this.
  bool clamp_threads_to_hardware = true;
  /// Fixed number of compute shards each machine's round is split into
  /// (contiguous vertex ranges, cut at vertex boundaries). Deliberately
  /// NOT derived from the thread count: the shard plan depends only on
  /// this value and the round's inbox, and every cross-shard reduction
  /// folds per-vertex records in vertex order, so results are
  /// bit-identical at every thread count and every shard count.
  /// 0 = auto (16).
  uint32_t compute_shards_per_machine = 0;
  /// Collect wall/busy time per engine phase into EngineResult::phase
  /// (perf-trajectory benches). Off by default: the hot paths then pay
  /// only a predictable branch per round.
  bool collect_phase_times = false;

  /// --- Observability (src/obs) ---
  /// When set, the engine emits one nested span group per round on
  /// `trace_track` — round > {compute, barrier, checkpoint, recovery} —
  /// timestamped from the SIMULATED clock (offset by
  /// trace_time_offset_seconds so batches line up on the caller's
  /// timeline), plus per-round memory/residual gauges and batch-level
  /// flat counters that reconcile exactly with the RunReport. Null means
  /// tracing is off and costs one predictable branch per round.
  Tracer* tracer = nullptr;
  /// Track to emit on; kAutoTrack registers a fresh "engine/rounds"
  /// track at Run() (standalone engine users; the runner passes its own).
  uint32_t trace_track = kAutoTrack;
  double trace_time_offset_seconds = 0.0;
  static constexpr uint32_t kAutoTrack = ~0u;

  /// --- Real out-of-core execution (src/ooc, DESIGN.md section 13) ---
  /// When ooc.enabled, the engine runs under the hard per-machine memory
  /// budget for real: inter-round message overflow pages to checksummed
  /// spill files, vertex state sits behind a sectioned LRU cache, and
  /// RoundStats carries the *measured* spilled bytes instead of the
  /// modeled estimate. Requires an out-of-core profile (GraphD). Results
  /// are bit-identical to the uncapped run at every thread count.
  OocOptions ooc;

  /// --- Pregel fault tolerance (checkpointing) ---
  /// Checkpoint every N rounds (0 = off): each machine flushes its vertex
  /// state, residual results and in-flight messages to disk, adding the
  /// write time to the round.
  uint64_t checkpoint_interval_rounds = 0;
  /// Inject a machine failure at the start of this round (kNoFailure =
  /// none): recovery reloads the last checkpoint and replays the rounds
  /// since (from round 0 when checkpointing is off).
  uint64_t inject_failure_at_round = kNoFailure;

  static constexpr uint64_t kNoFailure = ~0ULL;
};

/// Measured (real, not simulated) time the engine spent per phase of the
/// superstep loop; filled only when EngineOptions::collect_phase_times is
/// set. compute/deliver are wall seconds of the (possibly parallel)
/// sections; group/stage are per-machine busy seconds summed over
/// machines (one clock pair per machine or pair per round, never per
/// message), so they can exceed the compute wall time under
/// multithreading.
struct EnginePhaseTimes {
  double compute_seconds = 0.0;  // Superstep compute (includes group/stage).
  double group_seconds = 0.0;    // Worker::GroupInbox busy time.
  double stage_seconds = 0.0;    // Cross-traffic tally busy time.
  double deliver_seconds = 0.0;  // Out-of-core inbox delivery.
};

/// Outcome of one engine execution (one batch).
struct EngineResult {
  std::vector<RoundStats> rounds;
  /// Simulated wall-clock, capped at the overload cut-off when overloaded.
  double seconds = 0.0;
  bool overloaded = false;
  uint64_t num_rounds = 0;
  double total_messages = 0.0;       // Logical, paper scale.
  /// Physical messages that crossed the wire (paper scale) and the
  /// logical units they stand for. Equal unless the modeled system
  /// combines (or mirror routing dedupes); their ratio is the run's
  /// combine ratio.
  double total_wire_messages = 0.0;
  double total_logical_sent = 0.0;
  /// Logical sent units per wire message (>= 1 under combining; exactly
  /// 1.0 when nothing merged).
  double CombinedRatio() const {
    return total_wire_messages > 0.0
               ? total_logical_sent / total_wire_messages
               : 1.0;
  }
  double peak_memory_bytes = 0.0;    // Max machine demand over rounds.
  double peak_residual_bytes = 0.0;  // Max machine residual over rounds.
  /// Peak per-round in-memory message-buffer demand before any
  /// out-of-core cap (drives the disk-bound tuner).
  double peak_buffered_bytes = 0.0;
  /// Fault-tolerance accounting (0 unless enabled in EngineOptions).
  double checkpoint_seconds = 0.0;
  double recovery_seconds = 0.0;
  uint64_t checkpoints_taken = 0;
  bool failure_recovered = false;

  double network_overuse_seconds = 0.0;
  double disk_overuse_seconds = 0.0;
  /// Time-weighted disk utilisation over the run (the paper's metric:
  /// the fraction of wall-clock the disk spends performing operations).
  double disk_utilization = 0.0;
  /// True when any round formed a disk write queue (Table 3's ">100%").
  bool disk_saturated = false;
  double max_io_queue_length = 0.0;

  /// Residual bytes the program recorded via MessageSink::AddResidualBytes
  /// over the whole run, per machine, at generated-graph scale. The
  /// runner adds these to its carryover for the next batch; programs no
  /// longer need shared per-machine accumulators of their own (which
  /// would race once one machine's vertices execute on several shards).
  std::vector<double> residual_bytes_per_machine;

  /// Bytes spilled to disk over the run, summed over rounds and machines
  /// (paper scale). Modeled overflow for plain out-of-core profiles;
  /// measured spill-file traffic when the real src/ooc path ran.
  double spilled_bytes = 0.0;
  /// Measured I/O of the real out-of-core path; zeros unless ooc_active.
  OocRunStats ooc;
  bool ooc_active = false;

  /// Real per-phase engine time (zeros unless collect_phase_times).
  EnginePhaseTimes phase;

  double MessagesPerRound() const {
    return num_rounds == 0 ? 0.0 : total_messages / num_rounds;
  }
};

/// The synchronous superstep engine.
///
/// Executes a VertexProgram over a partitioned graph with real message
/// routing between per-machine workers, and prices each round through the
/// cost model. One class serves Pregel+, Giraph (profile multipliers),
/// GraphD (out-of-core costing), Pregel+(mirror) (broadcast routing via
/// a MirrorPlan) and synchronous GraphLab. Asynchronous profiles are
/// GasEngine's; Run rejects them.
///
/// The engine is immutable after construction and Run is const: every
/// mutable run artifact (message buffers, staging arenas, the out-of-core
/// runtime) lives in the caller's QueryContext, so several queries can
/// Run against ONE engine concurrently — each with its own context — over
/// shared graph/partition/mirror state (DESIGN.md section 14).
class SyncEngine {
 public:
  /// `graph` and `partition` must outlive the engine.
  SyncEngine(const Graph& graph, const Partitioning& partition,
             EngineOptions options);
  ~SyncEngine();

  SyncEngine(const SyncEngine&) = delete;
  SyncEngine& operator=(const SyncEngine&) = delete;

  /// Runs `program` to quiescence as query_id 0 on a private per-run
  /// pool (the historical single-query behavior, bit for bit).
  Result<EngineResult> Run(VertexProgram& program) const;

  /// Re-entrant form: runs `program` with the context's query_id, pool
  /// and reusable buffers. One context per in-flight query; the same
  /// context may be reused across a query's batches. Returns
  /// InvalidArgument when the partition does not match the cluster in
  /// `options` or the profile is not synchronous.
  Result<EngineResult> Run(VertexProgram& program, QueryContext& ctx) const;

  const EngineOptions& options() const { return options_; }
  const MirrorPlan* mirror_plan() const { return mirror_plan_.get(); }

  /// The dense per-machine vertex numbering: the vertices `machine` owns,
  /// ascending, and each vertex's position in its machine's list.
  std::span<const VertexId> local_vertices(uint32_t machine) const {
    return vertices_by_machine_[machine];
  }
  uint32_t local_index(VertexId v) const { return local_index_[v]; }

 private:
  class ShardSink;
  struct ShardPlan;
  struct MergeSlot;
  struct RunScratch;

  /// Per-machine share of CSR storage, generated scale.
  void ComputeGraphShares();

  /// Aligns the cost model's ooc budget with the real runtime's message
  /// share when real out-of-core execution is requested, so modeled and
  /// measured spilling answer against the same resident allowance.
  static EngineOptions NormalizeOptions(EngineOptions options);

  /// Everything below is written during construction only; Run never
  /// mutates the engine (per-run state lives in the QueryContext).
  const Graph& graph_;
  const Partitioning& partition_;
  EngineOptions options_;
  CostModel cost_model_;
  std::unique_ptr<MirrorPlan> mirror_plan_;  // Mirror profiles only.
  std::vector<double> graph_share_bytes_;    // Per machine.
  std::vector<double> edge_stream_bytes_;    // Per machine (OOC).
  std::vector<std::vector<VertexId>> vertices_by_machine_;
  /// local_index_[v] = position of v within vertices_by_machine_[its
  /// machine] — the dense per-machine vertex numbering the grouper keys
  /// on. Ascending in v within each machine, which keeps grouped order
  /// equal to global (target, tag) order.
  std::vector<uint32_t> local_index_;
};

}  // namespace vcmp

#endif  // VCMP_ENGINE_SYNC_ENGINE_H_
