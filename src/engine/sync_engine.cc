#include "engine/sync_engine.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <cmath>
#include <span>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/wall_clock.h"
#include "obs/shard_spans.h"
#include "obs/tracer.h"
#include "ooc/ooc_runtime.h"

namespace vcmp {

namespace {

/// Default shard count per machine when compute_shards_per_machine is 0.
/// Fixed (never derived from the thread count) so the shard plan — and
/// with it every reduction order — is a pure function of the round's
/// inbox.
constexpr uint32_t kDefaultShardsPerMachine = 16;

/// Largest (local vertices x tag universe) slot space a destination may
/// have before the merge's dense combine tables fall back to hash
/// probing. 2^17 slots keep one table's hot arrays (position + epoch,
/// 8 bytes/slot) around a megabyte — L2-resident on anything current —
/// while covering every benchmark task's per-machine share.
constexpr size_t kDenseCombineMaxSlots = size_t{1} << 17;

/// Largest slot space a shard sink will pre-combine into its staging
/// arenas. Tighter than the merge bound: every (shard, destination)
/// pair owns a table, so the budget multiplies by shards x machines^2.
/// 2^15 slots x 8 bytes keeps each table L2-resident while covering
/// point-to-point tasks like MSSP (~31K slots per machine); bigger slot
/// spaces skip pre-combining entirely (a per-send probe into a table
/// that large costs more than the fold it saves, and the merge still
/// folds duplicates to the identical result because pre-combining is
/// only enabled for exact-fold combiners).
constexpr size_t kDensePrecombineMaxSlots = size_t{1} << 15;

}  // namespace

/// Contiguous item ranges assigning one machine's round to its compute
/// shards. `bounds` has shards + 1 entries; shard s covers items
/// [bounds[s], bounds[s + 1]) — run indices for message rounds, positions
/// into vertices_by_machine_ for the seeding superstep. Cuts always land
/// on vertex boundaries (all runs of one target stay in one shard), so
/// per-vertex RNG reseeding and active-vertex counting see whole
/// vertices. The plan depends only on the shard count and the round's
/// payload weights: it is identical at every thread count.
struct SyncEngine::ShardPlan {
  std::vector<uint32_t> bounds;

  /// Greedy proportional cut: shard s ends at the first vertex boundary
  /// where the cumulative weight reaches total * (s + 1) / shards.
  void BuildForVertices(const Graph& graph,
                        const std::vector<VertexId>& vertices,
                        uint32_t shards) {
    uint64_t total = 0;
    for (VertexId v : vertices) total += 1 + graph.OutDegree(v);
    bounds.assign(shards + 1, 0);
    const uint32_t n = static_cast<uint32_t>(vertices.size());
    uint32_t i = 0;
    uint64_t cum = 0;
    for (uint32_t s = 0; s < shards; ++s) {
      bounds[s] = i;
      const uint64_t target = total * (s + 1) / shards;
      while (i < n && cum < target) {
        cum += 1 + graph.OutDegree(vertices[i]);
        ++i;
      }
    }
    bounds[shards] = n;
  }

  /// Same cut, weighted by a position-indexed degree column (the real
  /// out-of-core path streams degrees from the state file instead of
  /// touching the CSR; the values are identical to graph.OutDegree, so
  /// the resulting plan is too).
  void BuildForDegrees(const std::vector<uint32_t>& degrees,
                       uint32_t shards) {
    uint64_t total = 0;
    for (uint32_t d : degrees) total += 1 + static_cast<uint64_t>(d);
    bounds.assign(shards + 1, 0);
    const uint32_t n = static_cast<uint32_t>(degrees.size());
    uint32_t i = 0;
    uint64_t cum = 0;
    for (uint32_t s = 0; s < shards; ++s) {
      bounds[s] = i;
      const uint64_t target = total * (s + 1) / shards;
      while (i < n && cum < target) {
        cum += 1 + static_cast<uint64_t>(degrees[i]);
        ++i;
      }
    }
    bounds[shards] = n;
  }

  void BuildForRuns(std::span<const MessageRun> runs, uint32_t shards) {
    uint64_t total = 0;
    for (const MessageRun& run : runs) total += run.size() + 1;
    bounds.assign(shards + 1, 0);
    const uint32_t n = static_cast<uint32_t>(runs.size());
    uint32_t i = 0;
    uint64_t cum = 0;
    for (uint32_t s = 0; s < shards; ++s) {
      bounds[s] = i;
      const uint64_t target = total * (s + 1) / shards;
      while (i < n && cum < target) {
        const VertexId vertex = runs[i].target;
        while (i < n && runs[i].target == vertex) {  // Whole vertex.
          cum += runs[i].size() + 1;
          ++i;
        }
      }
    }
    bounds[shards] = n;
  }
};

/// Result of merging one (sender, destination) outbox from the sender's
/// shard arenas. Written by exactly one merge task, read serially after
/// the merge barrier.
struct SyncEngine::MergeSlot {
  /// Logical / wire traffic the sender pushed INTO the destination
  /// machine, folded by walking the shard arenas in shard order — i.e.
  /// the sender's emission order, which shard boundaries cannot change.
  double logical_cross_in = 0.0;
  double wire_cross_in = 0.0;
  /// Combining only: distinct (target, tag) keys created in this outbox
  /// (integer-valued; the sender's wire_sent contribution).
  double new_wire_keys = 0.0;
  uint64_t merge_ns = 0;

  void Clear() { *this = MergeSlot{}; }
};

/// Direct-indexed replacement for the merge fold's CombineIndex, usable
/// when the program declares a bounded tag universe: slot
/// local_index(target) * tags + tag maps each live (target, tag) key to
/// its outbox position with one array read instead of a hash probe.
/// First-touch still appends to the outbox, so outbox bytes are identical
/// to the hash path's at every shard and thread count. Epoch tagging makes
/// Clear O(1); tables are cleared once per round after delivery drains the
/// outboxes, exactly when the per-worker CombineIndexes are.
struct SyncEngine::DenseCombineTable {
  std::vector<uint32_t> position;  // slot -> outbox position
  std::vector<uint32_t> epoch;     // valid iff == cur_epoch
  uint32_t cur_epoch = 1;

  void EnsureSlots(size_t slots) {
    if (position.size() < slots) {
      position.resize(slots);
      epoch.resize(slots, 0);
    }
  }
  void Clear() {
    ++cur_epoch;
    if (cur_epoch == 0) {  // Wrapped: stale epochs could alias; rezero.
      std::fill(epoch.begin(), epoch.end(), 0u);
      cur_epoch = 1;
    }
  }
};

/// Accumulator for the unified per-destination fold (engine-level sender
/// combining without mirroring or real OOC): one table per destination
/// machine folds EVERY sender's shard arenas — senders in machine order,
/// each sender's arenas in shard order — which is precisely the FP
/// operation sequence the receiver's per-run fold would perform on the
/// raw grouped inbox (grouping is stable, sender-major). The fold result,
/// emitted in ascending (target, tag) slot order, therefore IS the next
/// round's inbox: already combined, already sorted, no per-pair outboxes
/// to stage, deliver, or re-group. `last_sender` reproduces the per-pair
/// wire counts (a sender contributes one wire unit per distinct key it
/// touches) without materializing per-sender outboxes.
struct SyncEngine::UnifiedCombineTable {
  /// One slot per (local vertex, tag) key, packed so a fold touches one
  /// cache line, not one per column.
  struct Slot {
    double value;
    double mult;
    uint32_t last_sender;
    uint32_t epoch;  // valid iff == cur_epoch
  };
  static constexpr size_t kBlockShift = 6;  // 64 slots per block.
  std::vector<Slot> slots;
  /// Per-64-slot-block epoch marks: the emission scan skips whole blocks
  /// no fold entry touched, which is most of them for sparse rounds.
  std::vector<uint32_t> block_epoch;
  uint32_t cur_epoch = 0;

  void EnsureSlots(size_t count) {
    if (slots.size() < count) {
      slots.resize(count, Slot{0.0, 0.0, 0, 0});
      block_epoch.resize((count >> kBlockShift) + 1, 0);
    }
  }
  /// Starts a fresh fold; entries only live for one fold episode.
  void BeginFold() {
    ++cur_epoch;
    if (cur_epoch == 0) {  // Wrapped: stale epochs could alias; rezero.
      for (Slot& slot : slots) slot.epoch = 0;
      std::fill(block_epoch.begin(), block_epoch.end(), 0u);
      cur_epoch = 1;
    }
  }
};

/// Per-(machine, shard) MessageSink: raw staging arenas (one per
/// destination machine), per-vertex log records, and a per-vertex-reseeded
/// random stream.
///
/// The sharded compute phase never writes shared machine state: every
/// message lands in this shard's arena, every statistic in the current
/// vertex's log record, and every RNG draw comes from a stream seeded by
/// (seed, round, vertex). Cross-shard reductions happen after the barrier
/// in fixed orders — arena concatenation in shard order equals the serial
/// emission order, and log records concatenated across shards equal the
/// machine's vertex order — so results are bit-identical at every thread
/// count AND every shard count (per-shard partial sums would only give
/// per-shard-count invariance).
class SyncEngine::ShardSink : public MessageSink {
 public:
  /// Everything one vertex contributed to its machine's round statistics.
  /// Folded (per machine) in vertex order during finalization; the fields
  /// themselves accumulate in the vertex's own emission order, entirely
  /// within one shard.
  struct VertexLog {
    double compute_units = 0.0;
    double aggregate = 0.0;
    double logical_sent = 0.0;
    /// Wire counts are only meaningful without a combiner (raw staging:
    /// one wire unit per logical unit; mirror broadcasts count mirror
    /// hops). Under combining the merge counts distinct keys instead.
    double wire_sent = 0.0;
    double logical_cross = 0.0;
    double wire_cross = 0.0;
    double residual_bytes = 0.0;
    bool aggregate_used = false;
  };

  /// One pre-combine table entry: where in the destination arena this
  /// (local vertex, tag) key currently lives, valid iff epoch matches
  /// the sink's current round epoch.
  struct DenseSlot {
    uint32_t position;
    uint32_t epoch;
  };

  ShardSink() = default;

  /// (Re)binds the sink to an engine for one Run. The engine pointer is
  /// refreshed every call because sinks persist in the QueryContext
  /// across a query's batches, while the runner constructs a fresh
  /// engine per batch.
  void Configure(const SyncEngine* engine, uint32_t machine,
                 uint32_t num_machines, uint64_t query,
                 const Combiner* combiner, bool precombine,
                 uint32_t tag_universe, bool slot_targets) {
    engine_ = engine;
    machine_ = machine;
    num_machines_ = num_machines;
    query_ = query;
    machine_of_ = engine_->partition_.assignment.data();
    local_index_ = engine_->local_index_.data();
    mirror_broadcast_only_ = engine_->options_.profile.mirroring;
    combiner_ = combiner;
    combiner_kind_ = combiner ? combiner->kind() : CombinerKind::kCustom;
    precombine_ = precombine;
    tag_universe_ = tag_universe;
    slot_targets_ = slot_targets;
    arenas_.resize(num_machines);
    cross_weights_.resize(num_machines);
    dense_.resize(num_machines);
    for (uint32_t dest = 0; dest < num_machines; ++dest) {
      size_t slots =
          (precombine_ && tag_universe > 0)
              ? engine_->vertices_by_machine_[dest].size() * tag_universe
              : 0;
      if (slots == 0 || slots > kDensePrecombineMaxSlots) slots = 0;
      if (dense_[dest].size() != slots) {
        dense_[dest].assign(slots, DenseSlot{0, 0});
      }
    }
  }

  void BeginRound(uint64_t round) {
    round_ = round;
    for (MessageBlock& arena : arenas_) arena.Clear();
    for (std::vector<double>& weights : cross_weights_) weights.clear();
    ++dense_epoch_;
    if (dense_epoch_ == 0) {  // Wrapped: stale epochs could alias; rezero.
      for (std::vector<DenseSlot>& table : dense_) {
        std::fill(table.begin(), table.end(), DenseSlot{0, 0});
      }
      dense_epoch_ = 1;
    }
    log_.clear();
    cur_ = nullptr;
  }

  /// Opens the log record for `v` and reseeds the random stream from
  /// (seed, query, round, v): the draw sequence a vertex sees depends
  /// only on those coordinates, never on which shard, thread or
  /// concurrency level ran it. Query 0 keeps the historical
  /// (seed, round, v) stream bit for bit.
  void BeginVertex(VertexId v) {
    log_.emplace_back();
    cur_ = &log_.back();
    rng_ = Rng(Rng::MixSeed(engine_->options_.seed, query_, round_, v));
  }

  void Send(VertexId target, uint32_t tag, double value,
            double multiplicity) override {
    VCMP_CHECK(!mirror_broadcast_only_)
        << "Pregel+(mirror) only exposes the broadcast interface";
    SendInternal(target, tag, value, multiplicity);
  }

  void Broadcast(VertexId from, uint32_t tag, double value,
                 double multiplicity_per_neighbor) override {
    const Graph& graph = engine_->graph_;
    const MirrorPlan* plan = engine_->mirror_plan_.get();
    if (plan != nullptr && plan->IsMirrored(from)) {
      // One wire message per remote mirror machine; the mirrors fan out
      // locally. Every neighbour still receives (and buffers/processes) a
      // logical message, but only the mirror hops cross the network and
      // only they occupy the sender's wire statistics. Each staged cross
      // message carries a cross weight — 1.0 on the first touch of its
      // machine within this broadcast, else 0.0 — so the merge can fold
      // the destination's cross-in traffic from the arenas in emission
      // order without re-deriving broadcast boundaries.
      const double mult = multiplicity_per_neighbor;
      const double remote = plan->RemoteMirrorMachines(from);
      cur_->wire_cross += remote;
      cur_->logical_cross += remote;
      cur_->wire_sent += remote;
      std::vector<uint8_t>& seen = mirror_seen_;
      seen.assign(num_machines_, 0);
      std::span<const VertexId> neighbors = graph.Neighbors(from);
      for (VertexId u : neighbors) {
        const uint32_t machine = machine_of_[u];
        arenas_[machine].PushBack(u, tag, value, mult);
        if (machine != machine_) {
          cross_weights_[machine].push_back(seen[machine] ? 0.0 : 1.0);
          seen[machine] = 1;
        }
        cur_->logical_sent += mult;
      }
      AddComputeUnits(static_cast<double>(neighbors.size()));
      return;
    }
    // No mirror: broadcast degenerates to per-neighbour sends.
    for (VertexId u : graph.Neighbors(from)) {
      SendInternal(u, tag, value, multiplicity_per_neighbor);
    }
  }

  void AddComputeUnits(double units) override {
    cur_->compute_units += units;
  }

  void Aggregate(double value) override {
    cur_->aggregate += value;
    cur_->aggregate_used = true;
  }

  void AddResidualBytes(double bytes) override {
    cur_->residual_bytes += bytes;
  }

  uint64_t round() const override { return round_; }
  Rng& rng() override { return rng_; }

  const MessageBlock& arena(uint32_t dest) const { return arenas_[dest]; }
  const std::vector<double>& cross_weights(uint32_t dest) const {
    return cross_weights_[dest];
  }
  const std::vector<VertexLog>& log() const { return log_; }

 private:
  void SendInternal(VertexId target, uint32_t tag, double value,
                    double multiplicity) {
    const uint32_t target_machine = machine_of_[target];
    cur_->logical_sent += multiplicity;
    cur_->wire_sent += multiplicity;
    if (target_machine != machine_) {
      cur_->logical_cross += multiplicity;
      cur_->wire_cross += multiplicity;
      if (mirror_broadcast_only_) {
        // Mirror profiles mix first-touch hops (weight 1/0) with plain
        // sends from unmirrored vertices (weight = multiplicity); the
        // weight column keeps the merge's cross-in fold uniform.
        cross_weights_[target_machine].push_back(multiplicity);
      }
    }
    MessageBlock& arena = arenas_[target_machine];
    VertexId stored_target = target;
    std::vector<DenseSlot>& table = dense_[target_machine];
    if (slot_targets_ || !table.empty()) {
      const size_t key_slot =
          static_cast<size_t>(local_index_[target]) * tag_universe_ + tag;
      // Under the unified fold the arena's target column carries the
      // destination slot index instead of the vertex id: the fold then
      // addresses its combine table straight off the stream, with no
      // dependent local_index_ lookup, and the emission scan restores
      // real vertex ids from the destination's local vertex list.
      if (slot_targets_) stored_target = static_cast<VertexId>(key_slot);
      if (!table.empty()) {
        // Shard-local dense combine table: fold same-(target, tag)
        // messages in this shard's emission order before they hit the
        // arena, via a direct (local vertex, tag) index — no hashing on
        // the send path. The merge later folds the per-shard segment
        // results in shard order; exact_fold makes that bit-identical to
        // folding the raw stream (the per-vertex wire stats above are
        // ignored under combining — the merge recounts distinct keys),
        // which is also why destinations too big for a table can skip
        // pre-combining outright.
        DenseSlot& entry = table[key_slot];
        if (entry.epoch == dense_epoch_) {
          const size_t position = entry.position;
          switch (combiner_kind_) {
            case CombinerKind::kSum:
              arena.values()[position] += value;
              arena.multiplicities()[position] += multiplicity;
              break;
            case CombinerKind::kMin:
              if (value < arena.values()[position]) {
                arena.values()[position] = value;
              }
              arena.multiplicities()[position] += multiplicity;
              break;
            case CombinerKind::kCustom: {
              Message into = arena.At(position);
              combiner_->Merge(into,
                               Message{target, tag, value, multiplicity});
              arena.Set(position, into);
              break;
            }
          }
          return;
        }
        entry.epoch = dense_epoch_;
        entry.position = static_cast<uint32_t>(arena.size());
      }
    }
    arena.PushBack(stored_target, tag, value, multiplicity);
  }

  const SyncEngine* engine_ = nullptr;  // Rebound by Configure each Run.
  uint32_t machine_ = 0;
  uint32_t num_machines_ = 0;
  uint64_t query_ = 0;
  const uint32_t* machine_of_ = nullptr;
  bool mirror_broadcast_only_ = false;
  const Combiner* combiner_ = nullptr;
  CombinerKind combiner_kind_ = CombinerKind::kCustom;
  bool precombine_ = false;
  bool slot_targets_ = false;
  uint32_t tag_universe_ = 0;
  const uint32_t* local_index_ = nullptr;
  uint64_t round_ = 0;
  uint32_t dense_epoch_ = 0;
  Rng rng_{0};
  VertexLog* cur_ = nullptr;
  std::vector<MessageBlock> arenas_;          // One per destination.
  /// Pre-combining only: per destination, one {arena position, epoch}
  /// entry per (local vertex, tag) slot; empty when the destination's
  /// slot space exceeds kDensePrecombineMaxSlots.
  std::vector<std::vector<DenseSlot>> dense_;
  std::vector<std::vector<double>> cross_weights_;  // Mirror mode only.
  std::vector<VertexLog> log_;
  std::vector<uint8_t> mirror_seen_;
};

/// The reusable per-query buffers Run hangs off the caller's
/// QueryContext: per-machine workers and per-(machine, shard) sinks.
/// They used to be engine members; moving them here is what makes Run
/// const and the engine shareable across concurrent queries, while one
/// query still reuses its capacity across batches exactly as before.
struct SyncEngine::RunScratch : QueryContext::Scratch {
  std::vector<Worker> workers;
  std::vector<std::unique_ptr<ShardSink>> shard_sinks;
  /// machines x machines dense merge tables (sender-major), sized lazily
  /// to the destination's (local vertices x tag universe) slot space.
  /// Empty when the program's tag universe is unbounded or too large.
  std::vector<DenseCombineTable> dense_combine;
  /// One accumulator per destination for the unified fold path. Empty
  /// when that path is inactive.
  std::vector<UnifiedCombineTable> unified_combine;
};

SyncEngine::~SyncEngine() = default;  // ShardSink is complete here.

EngineOptions SyncEngine::NormalizeOptions(EngineOptions options) {
  if (options.ooc.enabled && options.profile.out_of_core &&
      options.ooc.memory_budget_bytes > 0) {
    // The real runtime only grants messages their governor share of the
    // budget; pointing the cost model's resident allowance at the same
    // share keeps modeled and measured spilling comparable.
    options.profile.ooc_budget_bytes =
        MemoryGovernor::MessageShareBytes(options.ooc.memory_budget_bytes);
  }
  return options;
}

SyncEngine::SyncEngine(const Graph& graph, const Partitioning& partition,
                       EngineOptions options)
    : graph_(graph),
      partition_(partition),
      options_(NormalizeOptions(std::move(options))),
      cost_model_(options_.cluster, options_.profile, options_.cost) {
  if (options_.profile.mirroring) {
    mirror_plan_ = std::make_unique<MirrorPlan>(
        graph_, partition_, options_.profile.mirror_degree_threshold);
  }
  ComputeGraphShares();
}

void SyncEngine::ComputeGraphShares() {
  uint32_t machines = partition_.num_machines;
  graph_share_bytes_.assign(machines, 0.0);
  edge_stream_bytes_.assign(machines, 0.0);
  vertices_by_machine_.assign(machines, {});
  local_index_.assign(graph_.NumVertices(), 0);
  for (VertexId v = 0; v < graph_.NumVertices(); ++v) {
    uint32_t machine = partition_.MachineOf(v);
    // Local positions ascend with v within each machine: the grouper's
    // compact keys rely on it to keep the global (target, tag) order.
    assert(vertices_by_machine_[machine].empty() ||
           vertices_by_machine_[machine].back() < v);
    local_index_[v] =
        static_cast<uint32_t>(vertices_by_machine_[machine].size());
    vertices_by_machine_[machine].push_back(v);
    // CSR share: one offset entry + degree target entries.
    graph_share_bytes_[machine] +=
        sizeof(EdgeIndex) + graph_.OutDegree(v) * sizeof(VertexId);
    // Out-of-core edge stream: 8-byte (src, dst) records per round.
    edge_stream_bytes_[machine] += graph_.OutDegree(v) * 8.0;
  }
  if (mirror_plan_ != nullptr) {
    for (uint32_t m = 0; m < machines; ++m) {
      graph_share_bytes_[m] += mirror_plan_->MirrorStateBytesPerMachine();
    }
  }
}

Result<EngineResult> SyncEngine::Run(VertexProgram& program) const {
  QueryContext ctx;  // Query 0, private pool: the historical behavior.
  return Run(program, ctx);
}

Result<EngineResult> SyncEngine::Run(VertexProgram& program,
                                     QueryContext& ctx) const {
  // Fault-tolerance bookkeeping: simulated time elapsed since the last
  // checkpoint, i.e. the replay cost of a failure now.
  double seconds_since_checkpoint = 0.0;
  const uint32_t machines = partition_.num_machines;
  if (machines != options_.cluster.num_machines) {
    return Status::InvalidArgument(
        "partition machine count does not match cluster spec");
  }
  if (partition_.assignment.size() != graph_.NumVertices()) {
    return Status::InvalidArgument("partition does not cover the graph");
  }

  // Real out-of-core runtime: fresh per Run (spill files and caches are
  // round-lifecycle state), validated against the infeasible floor.
  std::unique_ptr<OocRuntime> ooc_runtime;
  if (options_.ooc.enabled) {
    if (!options_.profile.out_of_core) {
      return Status::InvalidArgument(
          "real out-of-core execution (ooc.enabled) requires an "
          "out-of-core system profile such as GraphD");
    }
    OocRuntime::Setup setup;
    setup.options = options_.ooc;
    setup.machines = machines;
    setup.stat_scale = options_.stat_scale;
    setup.bytes_per_message = options_.profile.bytes_per_message;
    setup.message_memory_overhead =
        options_.profile.message_memory_overhead;
    VCMP_ASSIGN_OR_RETURN(
        ooc_runtime,
        OocRuntime::Create(setup, graph_, vertices_by_machine_));
  }
  OocRuntime* const rt = ooc_runtime.get();

  // Reusable buffers live in the query context, not the engine, so
  // concurrent queries sharing this engine never alias them. Workers
  // persist across a query's Run calls; Reset retains their capacity so
  // repeated runs (trainer probes, batch loops) allocate nothing new.
  if (dynamic_cast<RunScratch*>(ctx.sync_scratch.get()) == nullptr) {
    ctx.sync_scratch = std::make_unique<RunScratch>();
  }
  RunScratch& scratch = static_cast<RunScratch&>(*ctx.sync_scratch);
  scratch.workers.resize(machines);
  std::vector<Worker>& workers = scratch.workers;
  const bool collect_times = options_.collect_phase_times;
  // The combiner is active when the simulated system combines (GraphLab
  // sync) OR the engine-level sender_combining switch exploits the
  // program's combiner under a non-combining profile (Pregel-style).
  // Mirror profiles keep their own wire-dedup path. `combining` below is
  // the one flag every stats/cost branch keys on, so combined counts
  // flow into RoundLoad, spill accounting and the batcher's fits
  // regardless of which switch enabled it.
  const Combiner* combiner =
      (options_.profile.combines_messages ||
       (options_.sender_combining && !options_.profile.mirroring))
          ? program.combiner()
          : nullptr;
  const bool combining = combiner != nullptr;
  // Shard-local pre-combining additionally requires a fold that may be
  // reassociated bitwise (Combiner::exact_fold): per-shard tables fold
  // contiguous emission segments, and the merge folds the segment
  // results in shard order, so exactness makes the outbox bit-identical
  // to merge-time-only combining at every shard and thread count.
  const bool precombine =
      combining && options_.shard_precombine && combiner->exact_fold();
  // A bounded tag universe (VertexProgram::combine_tag_universe) lets the
  // merge fold through direct-indexed tables instead of hash probing.
  // Gate on the largest destination's slot space; unbounded or oversized
  // universes keep the CombineIndex path.
  const uint32_t tag_universe =
      combining ? program.combine_tag_universe() : 0;
  std::vector<size_t> dense_slots(machines, 0);
  bool dense_combine = false;
  if (tag_universe > 0) {
    size_t max_slots = 0;
    for (uint32_t machine = 0; machine < machines; ++machine) {
      dense_slots[machine] = vertices_by_machine_[machine].size() *
                             static_cast<size_t>(tag_universe);
      max_slots = std::max(max_slots, dense_slots[machine]);
    }
    dense_combine = max_slots > 0 && max_slots <= kDenseCombineMaxSlots;
  }
  // Engine-level sender combining (no mirroring, no real OOC, bounded tag
  // universe) takes the unified per-destination fold: merge, delivery and
  // grouping collapse into one pass that writes each destination's next
  // inbox directly — combined, sorted, one element per (target, tag) key.
  // Profile-level combining (GraphLab et al.) and OOC runs keep the
  // per-(sender, dest) merge into outboxes, whose byte-for-byte outbox
  // behaviour existing goldens and the spill machinery depend on.
  const bool unified_combine = dense_combine &&
                               !options_.profile.combines_messages &&
                               rt == nullptr &&
                               combiner->kind() != CombinerKind::kCustom;
  scratch.dense_combine.resize(
      (dense_combine && !unified_combine)
          ? static_cast<size_t>(machines) * machines
          : 0);
  scratch.unified_combine.resize(unified_combine ? machines : 0);
  for (uint32_t machine = 0; machine < machines; ++machine) {
    Worker& worker = workers[machine];
    worker.Reset(machines);
    worker.set_collect_timing(collect_times);
    worker.SetCombiner(combiner);
    worker.SetLocalNumbering(local_index_.data(),
                             vertices_by_machine_[machine]);
  }

  // One sink per (machine, shard): raw staging arenas and per-vertex log
  // records, read after the compute barrier in fixed shard order.
  const uint32_t shards_per_machine =
      options_.compute_shards_per_machine == 0
          ? kDefaultShardsPerMachine
          : options_.compute_shards_per_machine;
  const uint32_t num_shard_tasks = machines * shards_per_machine;
  scratch.shard_sinks.resize(num_shard_tasks);
  std::vector<std::unique_ptr<ShardSink>>& shard_sinks =
      scratch.shard_sinks;
  for (uint32_t task = 0; task < num_shard_tasks; ++task) {
    if (shard_sinks[task] == nullptr) {
      shard_sinks[task] = std::make_unique<ShardSink>();
    }
    shard_sinks[task]->Configure(this, task / shards_per_machine, machines,
                                 ctx.query_id, combiner, precombine,
                                 tag_universe, unified_combine);
  }
  // What each destination is sent in a round, as the sender-major list
  // of buffers its inbox would be concatenated from: the senders'
  // combined outboxes under combining, else every sender's shard arenas
  // in shard order. Next round groups this list in place (no merge copy,
  // no delivery copy); only the out-of-core delivery materializes it.
  // The buffer objects are stable for the whole Run.
  const uint32_t segments_per_sender =
      combiner != nullptr ? 1 : shards_per_machine;
  std::vector<std::vector<const MessageBlock*>> sent_to(machines);
  for (uint32_t dest = 0; dest < machines; ++dest) {
    for (uint32_t sender = 0; sender < machines; ++sender) {
      for (uint32_t k = 0; k < segments_per_sender; ++k) {
        sent_to[dest].push_back(
            combiner != nullptr
                ? &workers[sender].outbox(dest)
                : &shard_sinks[sender * shards_per_machine + k]->arena(dest));
      }
    }
  }

  // The pool outlives the round loop. A context without a pool gets a
  // private one: its threads are created once per Run and parked between
  // parallel sections, instead of spawning and joining a thread set
  // every round. A context WITH a pool (concurrent queries) fans out on
  // the shared workers; per-call completion latches keep the queries'
  // parallel sections independent. Intra-machine sharding means more
  // threads than machines still helps, so the only cap is the optional
  // hardware clamp (oversubscription adds context switches without
  // changing any output — results are thread-count invariant).
  std::unique_ptr<ThreadPool> owned_pool;
  if (ctx.pool == nullptr) {
    const uint32_t thread_count = ThreadPool::ResolveThreads(
        options_.execution_threads, options_.clamp_threads_to_hardware);
    owned_pool = std::make_unique<ThreadPool>(thread_count - 1);
  }
  ThreadPool& pool = ctx.pool != nullptr ? *ctx.pool : *owned_pool;
  const bool steal = options_.enable_work_stealing;
  auto parallel_shards = [&pool, steal](
                             uint32_t count,
                             const std::function<void(uint32_t)>& fn) {
    if (steal) {
      pool.ParallelForStealable(count, fn);
    } else {
      pool.ParallelFor(count, fn);
    }
  };

  EngineResult result;
  const double scale = options_.stat_scale;
  const double cutoff = options_.cost.overload_cutoff_seconds;

  // Round-loop scratch, reused every round.
  std::vector<ShardPlan> plans(machines);
  std::vector<MergeSlot> merge_slots(
      static_cast<size_t>(machines) * machines);
  std::vector<double> machine_units(machines, 0.0);
  std::vector<double> machine_aggregate(machines, 0.0);
  std::vector<uint8_t> machine_aggregate_used(machines, 0);
  std::vector<double> machine_residual_round(machines, 0.0);
  std::vector<double> residual_ledger(machines, 0.0);
  std::vector<double> shard_weights;  // trace_shard_spans only.
  // Unified fold only: wire units folded into each machine's inbox last
  // round (the per-pair path would have delivered this many outbox
  // elements). Read by the NEXT round's receive fold, since the
  // pre-folded inbox no longer carries one element per wire unit.
  std::vector<double> unified_wire_in(machines, 0.0);
  // Real OOC seeding superstep: per-machine degree columns streamed from
  // the vertex-state files (shard planning without touching the CSR).
  std::vector<std::vector<uint32_t>> ooc_degrees(rt != nullptr ? machines
                                                               : 0);

  // Tracing rides the simulated clock: this run sits on the caller's
  // timeline at trace_time_offset_seconds (the runner lines batches up
  // by passing a cumulative offset). All trace content derives from
  // round statistics that are bit-identical across thread counts, so
  // the trace is too.
  Tracer* const tracer = options_.tracer;
  uint32_t trace_track = options_.trace_track;
  if (tracer != nullptr && trace_track == EngineOptions::kAutoTrack) {
    trace_track = tracer->AddTrack("engine", "rounds");
  }

  for (uint64_t round = 0; round <= options_.max_rounds; ++round) {
    if (rt != nullptr && round > 0) {
      // Happens-before edge for the background prefetch jobs launched at
      // the end of last round: after this barrier their staged sections
      // are plain data, consumed lazily (and deterministically) inside
      // TouchSections. The wait is scoped to THIS query's jobs so
      // queries sharing the pool do not couple at each other's barriers.
      rt->WaitPrefetch();
      VCMP_RETURN_IF_ERROR(rt->ConsumeError());
    }
    for (Worker& worker : workers) worker.send_stats().Clear();

    ClusterRoundLoad loads(machines);

    bool any_messages_pending = false;
    const bool use_runs = program.UsesComputeRun();
    const uint64_t compute_start_ns = wallclock::NowNs();

    // --- Phase A: per-machine prep (group, receive fold, shard plan) ---
    // Grouping and the inbox receive fold are serial per machine — the
    // same order at every thread and shard count — and machines are
    // independent. Grouping reads last round's arenas (or outboxes)
    // here, before phase B's BeginRound clears them.
    auto prep_machine = [&](uint32_t machine) {
      Worker& worker = workers[machine];
      ShardPlan& plan = plans[machine];
      if (round == 0) {
        // Seeding superstep: every local vertex runs with an empty inbox;
        // shards balance by out-degree (broadcast seeds scan adjacency).
        // Under real OOC the degrees come off the state file, streamed
        // through the cache so the first round pays real vertex-state
        // I/O like GraphD's load phase would.
        if (rt != nullptr) {
          rt->StreamAllDegrees(machine, &ooc_degrees[machine]);
          plan.BuildForDegrees(ooc_degrees[machine], shards_per_machine);
          return;
        }
        plan.BuildForVertices(graph_, vertices_by_machine_[machine],
                              shards_per_machine);
        return;
      }
      if (unified_combine) {
        // Last round's fold wrote the inbox pre-grouped and built the
        // singleton runs alongside; publishing them replaces grouping.
        worker.PublishPregroupedRuns();
      } else if (rt != nullptr) {
        // Stream last round's spilled overflow back in before grouping;
        // restored messages append after the resident ones, and grouping
        // sorts the union, so the grouped inbox is bit-identical to the
        // uncapped run's.
        rt->RestoreInbox(machine, &worker.inbox());
        worker.GroupInbox();
      } else {
        worker.GroupInbox(sent_to[machine]);
      }
      MachineRoundLoad& load = loads[machine];
      const double* mults = worker.grouped_multiplicities();
      const size_t inbox_size = worker.grouped_size();
      for (size_t i = 0; i < inbox_size; ++i) {
        load.recv_messages += mults[i];
        if (!unified_combine) {
          // Wire units: what was actually serialized/deserialized.
          load.processed_messages += combining ? 1.0 : mults[i];
        }
      }
      if (unified_combine) {
        // Pre-folded inbox: one element per key, so wire units come from
        // the fold that built it (integer counts — bit-identical to what
        // a walk over per-pair outbox elements would sum).
        load.processed_messages += unified_wire_in[machine];
      }
      if (!use_runs) {
        // Built once here, read concurrently by this machine's shards.
        worker.MaterializedInbox();
      }
      if (rt != nullptr) {
        // Page in the vertex-state sections behind this round's targets
        // (ascending section order; prefetched buffers are consumed at
        // exactly the point a synchronous load would install them).
        rt->TouchSections(machine, worker.runs());
      }
      plan.BuildForRuns(worker.runs(), shards_per_machine);
    };
    pool.ParallelFor(machines, prep_machine);
    if (rt != nullptr) VCMP_RETURN_IF_ERROR(rt->ConsumeError());

    // --- Phase B: sharded compute kernels ---
    // runs() is the round's sparse frontier: only vertices with messages
    // appear, in ascending (target, tag) order. Each shard executes its
    // contiguous vertex range into its own arenas/logs; work stealing
    // only changes which thread runs a shard, never what the shard
    // writes.
    auto run_shard = [&](uint32_t task) {
      const uint32_t machine = task / shards_per_machine;
      const uint32_t shard = task % shards_per_machine;
      ShardSink& sink = *shard_sinks[task];
      sink.BeginRound(round);
      const ShardPlan& plan = plans[machine];
      const uint32_t begin = plan.bounds[shard];
      const uint32_t end = plan.bounds[shard + 1];
      if (round == 0) {
        const std::vector<VertexId>& vertices =
            vertices_by_machine_[machine];
        for (uint32_t i = begin; i < end; ++i) {
          sink.BeginVertex(vertices[i]);
          program.Compute(vertices[i], {}, sink);
        }
        return;
      }
      Worker& worker = workers[machine];
      const std::span<const MessageRun> runs = worker.runs();
      const double* values = worker.grouped_values();
      const double* mults = worker.grouped_multiplicities();
      if (use_runs) {
        // Devirtualized batch path: one ComputeRun per (vertex, tag)
        // run, payload handed over as contiguous columns. Same call
        // order a per-vertex Compute would fold the tag groups in.
        VertexId prev_target = 0;
        bool have_prev = false;
        for (uint32_t r = begin; r < end; ++r) {
          const MessageRun& run = runs[r];
          if (!have_prev || run.target != prev_target) {
            sink.BeginVertex(run.target);
            prev_target = run.target;
            have_prev = true;
          }
          MessageRunView view{run.tag, values + run.begin,
                              mults + run.begin, run.size()};
          program.ComputeRun(run.target, view, sink);
        }
      } else {
        // Fallback: the AoS view was materialized in phase A; hand each
        // vertex the multi-tag span the legacy Compute signature expects.
        const std::span<const Message> inbox = worker.MaterializedInbox();
        uint32_t r = begin;
        while (r < end) {
          uint32_t r_end = r + 1;
          while (r_end < end && runs[r_end].target == runs[r].target) {
            ++r_end;
          }
          const size_t first = runs[r].begin;
          const size_t last = runs[r_end - 1].end;
          sink.BeginVertex(runs[r].target);
          program.Compute(runs[r].target,
                          inbox.subspan(first, last - first), sink);
          r = r_end;
        }
      }
    };
    parallel_shards(num_shard_tasks, run_shard);

    // --- Phase C: canonical merge / cross-traffic tally ---
    // One task per (sender, destination) pair walks the sender's shard
    // arenas for that destination in ascending shard order — exactly the
    // sender's serial emission order — so combining folds, outbox bytes
    // and the destination's cross-in traffic are all independent of the
    // shard count. Without a combiner nothing is copied: the destination
    // groups the arenas themselves next round, and this pass only folds
    // the cross-in traffic.
    auto merge_pair = [&](uint32_t pair) {
      const uint32_t sender = pair / machines;
      const uint32_t dest = pair % machines;
      const uint64_t t0 = collect_times ? wallclock::NowNs() : 0;
      Worker& worker = workers[sender];
      MergeSlot& slot = merge_slots[pair];
      slot.Clear();
      const uint32_t first_task = sender * shards_per_machine;
      double logical_in = 0.0;
      if (combiner != nullptr) {
        // Last round's outbox was grouped by its destination in phase A;
        // start this round's fold from empty.
        MessageBlock& outbox = worker.outbox(dest);
        outbox.Clear();
        worker.combine_index(dest).Clear();
        if (dense_combine) scratch.dense_combine[pair].Clear();
        // Per-message fold through the sender's combining index, counting
        // created keys (integer wire units).
        const CombinerKind kind = worker.combiner_kind();
        double new_keys = 0.0;
        double wire_in = 0.0;
        // One amortized reservation sized by the arenas (an upper bound:
        // folds only shrink the outbox) replaces the per-PushBack growth
        // doublings that dominated stage time under contention.
        size_t arena_total = 0;
        for (uint32_t shard = 0; shard < shards_per_machine; ++shard) {
          arena_total += shard_sinks[first_task + shard]->arena(dest).size();
        }
        outbox.Reserve(outbox.size() + arena_total);
        // The fold itself: first touch of a (target, tag) key appends to
        // the outbox; repeats fold in place. The dense variant performs
        // the identical appends and folds in the identical order — only
        // the key lookup differs — so the two paths produce the same
        // outbox bytes and the same counts.
        const auto fold = [&](VertexId target, uint32_t tag, double value,
                              double mult, size_t position, bool inserted) {
          if (inserted) {
            outbox.PushBack(target, tag, value, mult);
            new_keys += 1.0;
            if (dest != sender) wire_in += 1.0;
          } else {
            switch (kind) {
              case CombinerKind::kSum:
                outbox.values()[position] += value;
                outbox.multiplicities()[position] += mult;
                break;
              case CombinerKind::kMin:
                if (value < outbox.values()[position]) {
                  outbox.values()[position] = value;
                }
                outbox.multiplicities()[position] += mult;
                break;
              case CombinerKind::kCustom: {
                Message into = outbox.At(position);
                combiner->Merge(into, Message{target, tag, value, mult});
                outbox.Set(position, into);
                break;
              }
            }
          }
          if (dest != sender) logical_in += mult;
        };
        for (uint32_t shard = 0; shard < shards_per_machine; ++shard) {
          const MessageBlock& arena =
              shard_sinks[first_task + shard]->arena(dest);
          const VertexId* targets = arena.targets();
          const uint32_t* tags = arena.tags();
          const double* values = arena.values();
          const double* mults = arena.multiplicities();
          const size_t n = arena.size();
          if (dense_combine) {
            // Direct-indexed lookup: one array read per message instead
            // of a hash probe chain.
            DenseCombineTable& table = scratch.dense_combine[pair];
            table.EnsureSlots(dense_slots[dest]);
            for (size_t i = 0; i < n; ++i) {
              assert(tags[i] < tag_universe &&
                     "program sent a tag outside its declared universe");
              const size_t key_slot =
                  static_cast<size_t>(local_index_[targets[i]]) *
                      tag_universe +
                  tags[i];
              const bool inserted = table.epoch[key_slot] != table.cur_epoch;
              if (inserted) {
                table.epoch[key_slot] = table.cur_epoch;
                table.position[key_slot] =
                    static_cast<uint32_t>(outbox.size());
              }
              fold(targets[i], tags[i], values[i], mults[i],
                   table.position[key_slot], inserted);
            }
          } else {
            CombineIndex& index = worker.combine_index(dest);
            for (size_t i = 0; i < n; ++i) {
              bool inserted = false;
              const uint64_t key =
                  (static_cast<uint64_t>(targets[i]) << 32) | tags[i];
              const size_t position =
                  index.FindOrInsert(key, outbox.size(), &inserted);
              fold(targets[i], tags[i], values[i], mults[i], position,
                   inserted);
            }
          }
        }
        slot.new_wire_keys = new_keys;
        slot.wire_cross_in = wire_in;
      } else if (dest != sender) {
        // Wire == logical traffic. Mirror mode folds the per-message
        // cross weights (1/0 for mirror first-touches, multiplicity for
        // plain sends from unmirrored vertices), plain mode the
        // multiplicities, both in emission order.
        for (uint32_t shard = 0; shard < shards_per_machine; ++shard) {
          const ShardSink& sink = *shard_sinks[first_task + shard];
          if (mirror_plan_ != nullptr) {
            for (double weight : sink.cross_weights(dest)) {
              logical_in += weight;
            }
            continue;
          }
          const MessageBlock& arena = sink.arena(dest);
          const double* mults = arena.multiplicities();
          const size_t n = arena.size();
          for (size_t i = 0; i < n; ++i) logical_in += mults[i];
        }
        slot.wire_cross_in = logical_in;
      }
      slot.logical_cross_in = logical_in;
      if (collect_times) slot.merge_ns = wallclock::NowNs() - t0;
    };
    // Unified fold: one task per destination replaces that destination's
    // column of merge_pair tasks AND its delivery AND next round's
    // grouping. Folding senders in machine order, each sender's arenas in
    // shard order, is the exact FP operation sequence the receiver's
    // per-run fold would see over the raw grouped inbox (stable grouping
    // is sender-major), so task results are bit-identical to the
    // non-combining run at every thread and shard count.
    auto fold_dest = [&](uint32_t dest) {
      const uint64_t t0 = collect_times ? wallclock::NowNs() : 0;
      UnifiedCombineTable& table = scratch.unified_combine[dest];
      table.EnsureSlots(dense_slots[dest]);
      table.BeginFold();
      const uint32_t cur_epoch = table.cur_epoch;
      UnifiedCombineTable::Slot* const slots = table.slots.data();
      uint32_t* const block_epoch = table.block_epoch.data();
      MessageBlock& inbox = workers[dest].inbox();
      inbox.Clear();
      double wire_total = 0.0;
      size_t distinct = 0;
      // The arenas' target column holds destination slot indices (the
      // sinks store them under slot_targets), so the fold addresses its
      // table straight off the stream; the combine op is lifted out of
      // the loop as a template parameter so each kind gets a tight
      // specialised loop.
      auto fold_senders = [&](double identity, auto&& combine_op) {
        for (uint32_t sender = 0; sender < machines; ++sender) {
          MergeSlot& slot = merge_slots[sender * machines + dest];
          slot.Clear();
          size_t new_key_count = 0;
          double mult_sum = 0.0;
          const uint32_t first_task = sender * shards_per_machine;
          for (uint32_t shard = 0; shard < shards_per_machine; ++shard) {
            const MessageBlock& arena =
                shard_sinks[first_task + shard]->arena(dest);
            const VertexId* key_slots = arena.targets();
            const double* values = arena.values();
            const double* mults = arena.multiplicities();
            const size_t n = arena.size();
            // The table access is a random load; prefetching a fixed
            // distance ahead keeps several misses in flight at once. The
            // body is branchless — a first touch folds into the
            // combiner's identity element instead of taking a separate
            // store path, because the fresh/live mix is unpredictable in
            // sparse rounds and mispredicts would dominate the loop.
            constexpr size_t kFoldPrefetchDistance = 16;
            double mult_even = 0.0;
            double mult_odd = 0.0;
            const size_t prefetch_end =
                n > kFoldPrefetchDistance ? n - kFoldPrefetchDistance : 0;
            for (size_t i = 0; i < n; ++i) {
              if (i < prefetch_end) {
                __builtin_prefetch(
                    &slots[key_slots[i + kFoldPrefetchDistance]], 1, 1);
              }
              const size_t key_slot = key_slots[i];
              assert(key_slot < dense_slots[dest] &&
                     "program sent a tag outside its declared universe");
              UnifiedCombineTable::Slot& entry = slots[key_slot];
              const bool fresh = entry.epoch != cur_epoch;
              const double base_value = fresh ? identity : entry.value;
              const double base_mult = fresh ? 0.0 : entry.mult;
              const uint32_t prev_sender = entry.last_sender;
              entry.value = combine_op(base_value, values[i]);
              entry.mult = base_mult + mults[i];
              entry.epoch = cur_epoch;
              entry.last_sender = sender;
              block_epoch[key_slot >> UnifiedCombineTable::kBlockShift] =
                  cur_epoch;
              // A sender's first touch of a key — fresh or last touched
              // by an earlier sender — is one wire unit from that sender
              // (the per-pair path would have appended it to the
              // sender's outbox).
              new_key_count +=
                  static_cast<size_t>(fresh | (prev_sender != sender));
              distinct += static_cast<size_t>(fresh);
              if (i & 1) {
                mult_odd += mults[i];
              } else {
                mult_even += mults[i];
              }
            }
            mult_sum += mult_even + mult_odd;
          }
          const double new_keys = static_cast<double>(new_key_count);
          slot.new_wire_keys = new_keys;
          if (dest != sender) {
            slot.wire_cross_in = new_keys;
            slot.logical_cross_in = mult_sum;
          }
          wire_total += new_keys;
        }
      };
      const CombinerKind kind = workers[dest].combiner_kind();
      if (kind == CombinerKind::kMin) {
        fold_senders(std::numeric_limits<double>::infinity(),
                     [](double base, double value) {
                       return value < base ? value : base;
                     });
      } else {
        fold_senders(0.0,
                     [](double base, double value) { return base + value; });
      }
      unified_wire_in[dest] = wire_total;
      // Emit in ascending slot order — ascending (target, tag), since
      // local indices ascend with vertex ids — so the inbox arrives
      // pre-sorted and next round's GroupInbox takes its no-permutation
      // fast path. Blocks no fold entry marked are skipped wholesale.
      // One slot of slack: the branchless compaction below stores
      // unconditionally, so dead slots after the last live one write
      // (and a growth landing exactly on `distinct` would overflow)
      // one past the cursor.
      inbox.Reserve(distinct + 1);
      inbox.ResizeUninitialized(distinct);
      double* const out_values = inbox.values();
      double* const out_mults = inbox.multiplicities();
      // Every emitted key is distinct, so its run is a singleton; build
      // the runs here while target and tag are in registers and next
      // round's prep publishes them instead of re-deriving them from a
      // grouping scan. The runs are the round's only key source (the
      // Worker contract already routes consumers through runs()), so the
      // inbox's own target/tag columns stay unwritten — two dead store
      // streams fewer per key.
      std::vector<MessageRun>& runs = workers[dest].pregrouped_runs();
      runs.resize(distinct + 1);
      MessageRun* const out_runs = runs.data();
      size_t emitted = 0;
      const std::vector<VertexId>& locals = vertices_by_machine_[dest];
      const size_t total_slots = dense_slots[dest];
      constexpr size_t kBlockSlots =
          size_t{1} << UnifiedCombineTable::kBlockShift;
      for (size_t block = 0; block * kBlockSlots < total_slots; ++block) {
        if (block_epoch[block] != cur_epoch) continue;
        const size_t begin = block * kBlockSlots;
        const size_t end = std::min(begin + kBlockSlots, total_slots);
        size_t local = begin / tag_universe;
        uint32_t tag = static_cast<uint32_t>(begin % tag_universe);
        // Branchless compaction: store unconditionally, advance the
        // cursor only on live slots — the live/dead mix inside a touched
        // block is as unpredictable as the fold's.
        for (size_t s = begin; s < end; ++s) {
          const UnifiedCombineTable::Slot& entry = slots[s];
          out_values[emitted] = entry.value;
          out_mults[emitted] = entry.mult;
          out_runs[emitted] =
              MessageRun{locals[local], tag, static_cast<uint32_t>(emitted),
                         static_cast<uint32_t>(emitted) + 1};
          emitted += static_cast<size_t>(entry.epoch == cur_epoch);
          if (++tag == tag_universe) {
            tag = 0;
            ++local;
          }
        }
      }
      assert(emitted == distinct &&
             "emission must cover exactly the folded keys");
      (void)emitted;
      runs.resize(distinct);
      if (collect_times) {
        merge_slots[static_cast<size_t>(dest) * machines + dest].merge_ns =
            wallclock::NowNs() - t0;
      }
    };
    if (unified_combine) {
      pool.ParallelFor(machines, fold_dest);
    } else {
      parallel_shards(machines * machines, merge_pair);
    }

    // --- Phase D: fold per-vertex logs in vertex order ---
    // Shard s holds a contiguous vertex range, so concatenating the
    // machine's shard logs in shard order IS its vertex order: the fold
    // below performs the same FP add sequence at every shard count.
    auto finalize_machine = [&](uint32_t machine) {
      double units = 0.0;
      double aggregate = 0.0;
      bool aggregate_used = false;
      double residual = 0.0;
      double active = 0.0;
      double logical_sent = 0.0;
      double logical_cross = 0.0;
      double wire_sent = 0.0;
      double wire_cross = 0.0;
      const uint32_t first_task = machine * shards_per_machine;
      for (uint32_t shard = 0; shard < shards_per_machine; ++shard) {
        for (const ShardSink::VertexLog& rec :
             shard_sinks[first_task + shard]->log()) {
          units += rec.compute_units;
          aggregate += rec.aggregate;
          aggregate_used = aggregate_used || rec.aggregate_used;
          residual += rec.residual_bytes;
          logical_sent += rec.logical_sent;
          logical_cross += rec.logical_cross;
          wire_sent += rec.wire_sent;
          wire_cross += rec.wire_cross;
          active += 1.0;
        }
      }
      if (combiner != nullptr) {
        // Wire units under combining are the distinct keys the merge
        // created — integers, summed over destinations in fixed order.
        wire_sent = 0.0;
        wire_cross = 0.0;
        for (uint32_t dest = 0; dest < machines; ++dest) {
          const MergeSlot& slot = merge_slots[machine * machines + dest];
          wire_sent += slot.new_wire_keys;
          if (dest != machine) wire_cross += slot.new_wire_keys;
        }
      }
      WorkerSendStats& stats = workers[machine].send_stats();
      stats.logical_sent = logical_sent;
      stats.wire_sent = wire_sent;
      stats.wire_cross = wire_cross;
      stats.logical_cross = logical_cross;
      MachineRoundLoad& load = loads[machine];
      load.active_vertices = active;
      machine_units[machine] = units;
      machine_aggregate[machine] = aggregate;
      machine_aggregate_used[machine] = aggregate_used ? 1 : 0;
      machine_residual_round[machine] = residual;
    };
    pool.ParallelFor(machines, finalize_machine);
    if (collect_times) {
      result.phase.compute_seconds +=
          wallclock::SecondsSince(compute_start_ns);
      uint64_t merge_ns = 0;
      for (const MergeSlot& slot : merge_slots) merge_ns += slot.merge_ns;
      result.phase.stage_seconds += merge_ns * 1e-9;
    }
    double active_vertices_total = 0.0;
    for (const MachineRoundLoad& load : loads) {
      active_vertices_total += load.active_vertices;
    }

    // --- Assemble loads and price the round ---
    const double bytes_per_message = options_.profile.bytes_per_message;
    double round_extra_barriers = 0.0;
    for (uint32_t machine = 0; machine < machines; ++machine) {
      MachineRoundLoad& load = loads[machine];
      const WorkerSendStats& send = workers[machine].send_stats();
      load.cross_bytes_out = send.wire_cross * bytes_per_message * scale;
      double wire_cross_in = 0.0;
      for (uint32_t sender = 0; sender < machines; ++sender) {
        wire_cross_in +=
            merge_slots[sender * machines + machine].wire_cross_in;
      }
      load.cross_bytes_in = wire_cross_in * bytes_per_message * scale;
      double recv_wire_units =
          combining ? load.processed_messages : load.recv_messages;
      // A machine's message work is the larger of its receive and send
      // sides (serialization costs the sender as much as deserialization
      // costs the receiver); this prices seed supersteps, whose traffic
      // is all outbound. Sender-side combining does NOT reduce the work:
      // every logical message still passes through the combiner (it only
      // shrinks wire bytes and buffers).
      load.processed_messages =
          std::max(load.recv_messages, send.logical_sent);
      if (combining) {
        // Merged messages skip serialization/allocation; only the fold
        // remains. (combined_work_fraction defaults to 1.0, so flipping
        // sender_combining on under Pregel+ leaves compute pricing
        // untouched — the win shows up in wire bytes and buffers.)
        load.processed_messages *= options_.profile.combined_work_fraction;
      }
      // Receive buffers drain into compute while send buffers stream out:
      // the resident peak is the larger direction, not their sum.
      load.buffered_message_bytes =
          std::max(recv_wire_units, send.wire_sent) * bytes_per_message *
          scale;
      // Superstep splitting (Facebook Giraph): a message-heavy round is
      // chopped into sub-steps, capping the resident buffer at the
      // threshold; every extra sub-step costs one more barrier.
      double split_threshold =
          options_.profile.superstep_split_threshold_bytes;
      if (split_threshold > 0.0 &&
          load.buffered_message_bytes > split_threshold) {
        double sub_steps =
            std::ceil(load.buffered_message_bytes / split_threshold);
        round_extra_barriers =
            std::max(round_extra_barriers, sub_steps - 1.0);
        load.buffered_message_bytes = split_threshold;
      }
      load.sent_messages = send.logical_sent * scale;
      load.recv_messages *= scale;
      load.processed_messages *= scale;
      load.active_vertices *= scale;
      load.compute_units = machine_units[machine] * scale;
      load.state_bytes =
          (graph_share_bytes_[machine] + program.StateBytes(machine)) *
          scale;
      // Residual memory: the carryover from earlier batches, whatever the
      // program still reports itself, and the engine's ledger of
      // AddResidualBytes calls accumulated over this run's rounds.
      residual_ledger[machine] += machine_residual_round[machine];
      double carryover = options_.carryover_residual_bytes.empty()
                             ? 0.0
                             : options_.carryover_residual_bytes[machine];
      load.residual_bytes = (carryover + program.ResidualBytes(machine) +
                             residual_ledger[machine]) *
                            scale;
      if (rt != nullptr) {
        // Measured spill: what the stream actually restored this round,
        // expressed in the same paper-scale buffered-byte terms the
        // modeled recv-side overflow uses.
        load.measured_spill_bytes =
            static_cast<double>(rt->TakeRestoredMessages(machine)) *
            bytes_per_message * options_.profile.message_memory_overhead *
            scale;
        // Measured vertex-state streaming replaces the page-cache
        // heuristic below.
        load.measured_edge_stream_bytes =
            rt->TakeRoundStreamBytes(machine) * scale;
        // Live: this round's inbox plus everything the machine sent.
        size_t live_messages = workers[machine].inbox().size();
        for (uint32_t dest = 0; dest < machines; ++dest) {
          for (uint32_t k = 0; k < segments_per_sender; ++k) {
            live_messages +=
                sent_to[dest][machine * segments_per_sender + k]->size();
          }
        }
        rt->NoteRoundLiveBytes(machine,
                               static_cast<double>(live_messages) *
                                   MessageBlock::kBytesPerMessage);
      }
    }

    double edge_stream_per_machine = 0.0;
    if (options_.profile.out_of_core && rt == nullptr) {
      for (double bytes : edge_stream_bytes_) {
        edge_stream_per_machine = std::max(edge_stream_per_machine, bytes);
      }
      // Edge partitions far smaller than memory live in the OS page cache
      // after the first round; only partitions that genuinely cannot stay
      // cached keep hitting the disk every round.
      if (edge_stream_per_machine * scale <
          0.25 * options_.cluster.machine.usable_memory_bytes) {
        edge_stream_per_machine = 0.0;
      }
      // The semi-streaming engine only streams adjacency lists that are
      // actually scanned this round; tasks report scans as compute units
      // (one per edge).
      double scanned_units = 0.0;
      for (uint32_t machine = 0; machine < machines; ++machine) {
        scanned_units += machine_units[machine];
      }
      double scanned_fraction =
          scanned_units > 0.0
              ? std::min(1.0, scanned_units /
                                  std::max<double>(graph_.NumEdges(), 1.0))
              : std::min(1.0, active_vertices_total /
                                  std::max<double>(graph_.NumVertices(), 1.0));
      edge_stream_per_machine *= scale * scanned_fraction;
    }
    RoundStats stats =
        cost_model_.EvaluateRound(loads, edge_stream_per_machine);
    stats.round = round;
    // Combine ratio: logical messages emitted vs. what actually hit the
    // wire/buffers this round. Plain runs fold the same two sequences and
    // report exactly 1.0; combining (and mirror wire dedup) report > 1.
    {
      double round_logical_sent = 0.0;
      double round_wire_sent = 0.0;
      for (const Worker& worker : workers) {
        const WorkerSendStats& send = worker.send_stats();
        round_logical_sent += send.logical_sent;
        round_wire_sent += send.wire_sent;
      }
      stats.wire_messages = round_wire_sent * scale;
      stats.combined_ratio = round_wire_sent > 0.0
                                 ? round_logical_sent / round_wire_sent
                                 : 1.0;
      result.total_logical_sent += round_logical_sent * scale;
      result.total_wire_messages += round_wire_sent * scale;
    }
    if (round_extra_barriers > 0.0) {
      double extra = round_extra_barriers * stats.barrier_seconds;
      stats.barrier_seconds += extra;
      stats.total_seconds += extra;
    }

    // --- Fault tolerance: checkpoints and injected failures ---
    double round_checkpoint_seconds = 0.0;
    double round_recovery_seconds = 0.0;
    if (options_.checkpoint_interval_rounds > 0 && round > 0 &&
        round % options_.checkpoint_interval_rounds == 0) {
      // Synchronous checkpoint: every machine flushes its resident data.
      double checkpoint_time = stats.max_memory_bytes /
                               options_.cluster.machine.disk_bandwidth;
      stats.total_seconds += checkpoint_time;
      result.checkpoint_seconds += checkpoint_time;
      round_checkpoint_seconds = checkpoint_time;
      ++result.checkpoints_taken;
      seconds_since_checkpoint = 0.0;
    }
    if (round == options_.inject_failure_at_round &&
        !result.failure_recovered) {
      // A machine dies: reload the last checkpoint (or restart) and
      // replay every round since. The replay re-executes the same
      // deterministic rounds, so its cost is the elapsed time since the
      // checkpoint plus the reload itself.
      double reload_time =
          options_.checkpoint_interval_rounds > 0
              ? stats.max_memory_bytes /
                    options_.cluster.machine.disk_bandwidth
              : 0.0;
      double replay_time = options_.checkpoint_interval_rounds > 0
                               ? seconds_since_checkpoint
                               : result.seconds;
      result.recovery_seconds = reload_time + replay_time;
      stats.total_seconds += result.recovery_seconds;
      round_recovery_seconds = result.recovery_seconds;
      result.failure_recovered = true;
    }
    seconds_since_checkpoint += stats.total_seconds;

    if (tracer != nullptr) {
      // The round partitions: the machines work (compute with
      // network/disk stalls overlapped), then the barrier, then any
      // checkpoint flush and failure recovery. Round boundaries are
      // anchored to the same running sum result.seconds uses, so round
      // starts are monotone by FP-addition monotonicity; the child
      // chain is clamped into [t0, t_end] so nesting survives the last
      // ulp of rounding. Per-phase maxima that do not form a timeline
      // (they come from different machines) travel as span args.
      const double t0 = options_.trace_time_offset_seconds + result.seconds;
      const double t_end = options_.trace_time_offset_seconds +
                           (result.seconds + stats.total_seconds);
      const double work = stats.total_seconds - stats.barrier_seconds -
                          round_checkpoint_seconds -
                          round_recovery_seconds;
      tracer->Begin(trace_track, "round", t0,
                    {{"round", static_cast<double>(round)},
                     {"messages", stats.messages},
                     {"message_bytes", stats.message_bytes},
                     {"cross_machine_bytes", stats.cross_machine_bytes},
                     {"active_vertices", stats.active_vertices}});
      double t = t0;
      auto child = [&](const char* name, double duration,
                       std::vector<TraceArg> args = {}) {
        tracer->Begin(trace_track, name, t, std::move(args));
        t = std::min(t + duration, t_end);
        tracer->End(trace_track, t);
      };
      // The compute child optionally nests one span per (machine, shard),
      // sized by the shard's staged messages — the same integer weights
      // at every thread count, so the subdivision is deterministic too.
      tracer->Begin(trace_track, "compute", t,
                    {{"max_compute_seconds", stats.compute_seconds},
                     {"network_stall_seconds", stats.network_seconds},
                     {"disk_stall_seconds", stats.disk_stall_seconds},
                     {"thrash_multiplier", stats.thrash_multiplier}});
      {
        const double compute_end = std::min(t + work, t_end);
        if (options_.trace_shard_spans) {
          shard_weights.assign(num_shard_tasks, 0.0);
          for (uint32_t task = 0; task < num_shard_tasks; ++task) {
            double staged = 0.0;
            for (uint32_t dest = 0; dest < machines; ++dest) {
              staged +=
                  static_cast<double>(shard_sinks[task]->arena(dest).size());
            }
            shard_weights[task] = staged;
          }
          obs::EmitShardSpans(*tracer, trace_track, t, compute_end - t,
                              shards_per_machine, shard_weights);
        }
        t = compute_end;
      }
      tracer->End(trace_track, t);
      child("barrier", stats.barrier_seconds);
      if (round_checkpoint_seconds > 0.0) {
        child("checkpoint", round_checkpoint_seconds);
      }
      if (round_recovery_seconds > 0.0) {
        child("recovery", round_recovery_seconds);
      }
      if (rt != nullptr && stats.spilled_bytes > 0.0) {
        // Real OOC only (non-OOC traces stay byte-identical): a marker
        // span inside the round carrying the measured spill traffic.
        // Its I/O time is already part of the compute child's disk
        // stalls, so the marker adds no duration of its own.
        child("ooc_spill", 0.0, {{"spilled_bytes", stats.spilled_bytes}});
      }
      tracer->End(trace_track, t_end);
      tracer->Gauge(trace_track, "memory_bytes", t_end,
                    stats.max_memory_bytes);
      tracer->Gauge(trace_track, "residual_bytes", t_end,
                    stats.max_residual_bytes);
      if (rt != nullptr) {
        tracer->Gauge(trace_track, "ooc_spilled_bytes", t_end,
                      stats.spilled_bytes);
      }
    }

    result.seconds += stats.total_seconds;
    result.total_messages += stats.messages;
    result.peak_memory_bytes =
        std::max(result.peak_memory_bytes, stats.max_memory_bytes);
    result.peak_residual_bytes =
        std::max(result.peak_residual_bytes, stats.max_residual_bytes);
    result.peak_buffered_bytes =
        std::max(result.peak_buffered_bytes, stats.max_buffered_bytes);
    result.network_overuse_seconds += stats.network_overuse_seconds;
    result.disk_overuse_seconds += stats.disk_overuse_seconds;
    result.disk_utilization += stats.disk_io_seconds;  // Normalised below.
    result.disk_saturated = result.disk_saturated || stats.disk_saturated;
    result.max_io_queue_length =
        std::max(result.max_io_queue_length, stats.io_queue_length);
    result.spilled_bytes += stats.spilled_bytes;
    result.rounds.push_back(stats);
    result.num_rounds = round + 1;

    if (stats.overflow || result.seconds > cutoff) {
      result.overloaded = true;
      if (options_.stop_early_on_overload) break;
    }

    // --- Deliver: only the out-of-core path materializes an inbox ---
    // Everywhere else next round's phase A groups sent_to in place, and
    // the unified fold already wrote every destination's inbox. Under
    // OOC the resident-message cap cuts the sender-major concatenation
    // at an arbitrary point: the prefix stays resident and the suffix
    // pages to the spill file. At most one segment straddles the cut, so
    // resident ++ restored reproduces the uncapped inbox order byte for
    // byte (and the stable grouping then folds identical payload
    // orders).
    const uint64_t deliver_start_ns = wallclock::NowNs();
    if (rt != nullptr) {
      pool.ParallelFor(machines, [&sent_to, &workers, rt](uint32_t dest) {
        MessageBlock& inbox = workers[dest].inbox();
        inbox.Clear();
        size_t total = 0;
        for (const MessageBlock* segment : sent_to[dest]) {
          total += segment->size();
        }
        const size_t cap = static_cast<size_t>(rt->resident_message_cap());
        inbox.Reserve(std::min(total, cap));
        size_t kept = 0;
        for (const MessageBlock* segment : sent_to[dest]) {
          const size_t n = segment->size();
          const size_t take = std::min(n, cap - kept);
          inbox.AppendColumns(segment->targets(), segment->tags(),
                              segment->values(), segment->multiplicities(),
                              take);
          kept += take;
          if (take < n) rt->SpillMessages(dest, *segment, take, n - take);
        }
        rt->FinishDeliverRound(dest);
      });
    }
    if (collect_times) {
      result.phase.deliver_seconds += wallclock::SecondsSince(deliver_start_ns);
    }
    if (rt != nullptr) VCMP_RETURN_IF_ERROR(rt->ConsumeError());
    for (uint32_t machine = 0; machine < machines; ++machine) {
      if (unified_combine || rt != nullptr) {
        any_messages_pending |=
            !workers[machine].inbox().empty() ||
            (rt != nullptr && rt->has_pending_spill(machine));
        continue;
      }
      for (const MessageBlock* segment : sent_to[machine]) {
        any_messages_pending |= !segment->empty();
      }
    }
    if (!any_messages_pending) break;  // Quiescence: vote-to-halt.
    if (program.ShouldTerminate(round + 1)) break;
    bool aggregate_used = false;
    double aggregate_sum = 0.0;
    for (uint32_t machine = 0; machine < machines; ++machine) {
      aggregate_used = aggregate_used || machine_aggregate_used[machine];
      aggregate_sum += machine_aggregate[machine];
    }
    if (aggregate_used && program.TerminateOnAggregate(aggregate_sum)) {
      break;
    }
    if (rt != nullptr) {
      // The loop will run another round: queue its sections (from the
      // resident inbox targets — a subset of next round's needed set)
      // and kick off one background read job per machine. The barrier
      // at the top of the next iteration publishes the staged buffers.
      for (uint32_t machine = 0; machine < machines; ++machine) {
        rt->SchedulePrefetch(machine, workers[machine].inbox());
      }
      rt->LaunchPrefetch(&pool);
    }
  }

  result.residual_bytes_per_machine = residual_ledger;

  if (rt != nullptr) {
    // Drain any prefetch jobs a terminal break left in flight before
    // reading the runtime's counters (or letting it be destroyed).
    rt->WaitPrefetch();
    VCMP_RETURN_IF_ERROR(rt->ConsumeError());
    result.ooc_active = true;
    result.ooc = rt->run_stats();
  }

  if (result.seconds > 0.0) {
    result.disk_utilization =
        std::min(1.0, result.disk_utilization / result.seconds);
  }
  if (result.overloaded) {
    result.seconds = std::max(result.seconds, cutoff);
  }
  if (collect_times) {
    for (const Worker& worker : workers) {
      result.phase.group_seconds += worker.group_ns() * 1e-9;
    }
  }
  if (tracer != nullptr) {
    // One Add per run, mirroring RunReport::Absorb's per-batch
    // accumulation so the flat counters reconcile bitwise with the
    // report totals (per-round adds would associate differently).
    tracer->Add("engine.messages", result.total_messages);
    tracer->Add("engine.rounds", static_cast<double>(result.num_rounds));
    tracer->Add("engine.seconds", result.seconds);
    tracer->Add("engine.checkpoint_seconds", result.checkpoint_seconds);
    tracer->Add("engine.checkpoints",
                static_cast<double>(result.checkpoints_taken));
    tracer->Peak("engine.peak_memory_bytes", result.peak_memory_bytes);
    tracer->Peak("engine.peak_residual_bytes",
                 result.peak_residual_bytes);
    tracer->Peak("engine.peak_buffered_bytes",
                 result.peak_buffered_bytes);
    if (mirror_plan_ != nullptr) {
      tracer->Peak("engine.mirrors",
                   static_cast<double>(mirror_plan_->TotalMirrors()));
    }
    if (result.ooc_active) {
      tracer->Add("engine.ooc.spilled_bytes", result.spilled_bytes);
      tracer->Add("engine.ooc.spill_bytes_written",
                  result.ooc.spill_bytes_written);
      tracer->Add("engine.ooc.spill_bytes_read",
                  result.ooc.spill_bytes_read);
      tracer->Add("engine.ooc.state_bytes_read",
                  result.ooc.state_bytes_read);
      tracer->Add("engine.ooc.cache_hits",
                  static_cast<double>(result.ooc.cache_hits));
      tracer->Add("engine.ooc.cache_misses",
                  static_cast<double>(result.ooc.cache_misses));
      tracer->Add("engine.ooc.prefetch_loads",
                  static_cast<double>(result.ooc.prefetch_loads));
      tracer->Peak("engine.ooc.peak_live_bytes",
                   result.ooc.peak_live_bytes);
    }
  }
  return result;
}

}  // namespace vcmp
