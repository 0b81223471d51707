#include "engine/sync_engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <span>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/wall_clock.h"
#include "ooc/ooc_runtime.h"

namespace vcmp {

namespace {

/// Compute shards per machine. Fixed (never derived from the thread
/// count) so the shard plan — and with it every reduction order — is a
/// pure function of the round's inbox.
constexpr uint32_t kShardsPerMachine = 16;

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

  /// Greedy proportional cut over `n` items: shard s ends at the first
  /// vertex boundary where the cumulative weight reaches
  /// total * (s + 1) / shards. `weight(i)` is item i's weight, and
  /// `same_vertex(i)` says item i belongs to item i - 1's vertex, so no
  /// cut falls between them.
  template <typename Weight, typename SameVertex>
  void Build(uint32_t n, uint32_t shards, const Weight& weight,
             const SameVertex& same_vertex) {
    uint64_t total = 0;
    for (uint32_t i = 0; i < n; ++i) total += weight(i);
    bounds.assign(shards + 1, 0);
    uint32_t i = 0;
    uint64_t cum = 0;
    for (uint32_t s = 0; s < shards; ++s) {
      bounds[s] = i;
      const uint64_t target = total * (s + 1) / shards;
      while (i < n && cum < target) {
        do {  // Whole vertex.
          cum += weight(i);
          ++i;
        } while (i < n && same_vertex(i));
      }
    }
    bounds[shards] = n;
  }
};

/// What one (sender, destination) pair sent in a round, tallied from the
/// sender's shard arenas. Written by exactly one tally task; read after
/// the tally barrier and, under combining, by the destination's next
/// phase A.
struct SyncEngine::MergeSlot {
  /// Wire traffic the sender pushed INTO the destination machine, folded
  /// by walking the shard arenas in shard order — i.e. the sender's
  /// emission order, which shard boundaries cannot change.
  double wire_cross_in = 0.0;
  /// Combining only: distinct (target, tag) keys in this pair's arenas
  /// (integer-valued; the sender's wire_sent contribution).
  double new_wire_keys = 0.0;
  uint64_t merge_ns = 0;

  void Clear() { *this = MergeSlot{}; }
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
    /// Wire counts are only meaningful without combining (one wire unit
    /// per logical unit; mirror broadcasts count mirror hops). Under
    /// combining the tally counts distinct keys instead.
    double wire_sent = 0.0;
    double wire_cross = 0.0;
    double residual_bytes = 0.0;
    bool aggregate_used = false;
  };

  ShardSink() = default;

  /// (Re)binds the sink to an engine for one Run. The engine pointer is
  /// refreshed every call because sinks persist in the QueryContext
  /// across a query's batches, while the runner constructs a fresh
  /// engine per batch.
  void Configure(const SyncEngine* engine, uint32_t machine,
                 uint32_t num_machines, uint64_t query) {
    engine_ = engine;
    machine_ = machine;
    num_machines_ = num_machines;
    query_ = query;
    machine_of_ = engine_->partition_.assignment.data();
    mirror_broadcast_only_ = engine_->options_.profile.mirroring;
    arenas_.resize(num_machines);
    cross_weights_.resize(num_machines);
  }

  void BeginRound(uint64_t round) {
    round_ = round;
    for (MessageBlock& arena : arenas_) arena.Clear();
    for (std::vector<double>& weights : cross_weights_) weights.clear();
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
      // machine within this broadcast, else 0.0 — so the tally can fold
      // the destination's cross-in traffic from the arenas in emission
      // order without re-deriving broadcast boundaries.
      const double mult = multiplicity_per_neighbor;
      const double remote = plan->RemoteMirrorMachines(from);
      cur_->wire_cross += remote;
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
  /// Out-of-core delivery truncates the arena to its resident prefix.
  MessageBlock& mutable_arena(uint32_t dest) { return arenas_[dest]; }
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
      cur_->wire_cross += multiplicity;
      if (mirror_broadcast_only_) {
        // Mirror profiles mix first-touch hops (weight 1/0) with plain
        // sends from unmirrored vertices (weight = multiplicity); the
        // weight column keeps the tally's cross-in fold uniform.
        cross_weights_[target_machine].push_back(multiplicity);
      }
    }
    arenas_[target_machine].PushBack(target, tag, value, multiplicity);
  }

  const SyncEngine* engine_ = nullptr;  // Rebound by Configure each Run.
  uint32_t machine_ = 0;
  uint32_t num_machines_ = 0;
  uint64_t query_ = 0;
  const uint32_t* machine_of_ = nullptr;
  bool mirror_broadcast_only_ = false;
  uint64_t round_ = 0;
  Rng rng_{0};
  VertexLog* cur_ = nullptr;
  std::vector<MessageBlock> arenas_;          // One per destination.
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
  /// Combining only: one wire-key set per (sender, destination) pair,
  /// sender-major.
  std::vector<CombineIndex> wire_keys;
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
  // The superstep engine prices no locking and no async message
  // inflation, so an async profile here would run barrier-free rounds
  // with no combining: a model that reverses the paper's Table 4.
  if (!options_.profile.synchronous) {
    return Status::InvalidArgument(
        options_.profile.name +
        " is asynchronous: SyncEngine runs only synchronous profiles; "
        "asynchronous execution is modelled by GasEngine "
        "(bench/table4_async_vs_sync)");
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
  // Combining is a count, not a fold (DESIGN.md §16): when the modeled
  // system merges same-(target, tag) messages at the sender (GraphLab
  // sync) and the program declares a fold, phase C counts each
  // (sender, destination) pair's distinct keys as its wire messages.
  // Receivers fold or group the raw arenas in arrival order under every
  // profile, so task answers do not depend on it. `combining` is the one
  // flag every stats/cost branch keys on, so the counts flow into
  // RoundLoad, spill accounting and the batcher's fits.
  const MessageFold fold = program.fold();
  const bool combining =
      options_.profile.combines_messages && fold != MessageFold::kNone;
  scratch.wire_keys.resize(
      combining ? static_cast<size_t>(machines) * machines : 0);
  for (uint32_t machine = 0; machine < machines; ++machine) {
    Worker& worker = workers[machine];
    worker.Reset();
    worker.set_collect_timing(collect_times);
    worker.SetLocalNumbering(local_index_.data(),
                             vertices_by_machine_[machine]);
  }

  // One sink per (machine, shard): raw staging arenas and per-vertex log
  // records, read after the compute barrier in fixed shard order.
  const uint32_t num_shard_tasks = machines * kShardsPerMachine;
  scratch.shard_sinks.resize(num_shard_tasks);
  std::vector<std::unique_ptr<ShardSink>>& shard_sinks =
      scratch.shard_sinks;
  for (uint32_t task = 0; task < num_shard_tasks; ++task) {
    if (shard_sinks[task] == nullptr) {
      shard_sinks[task] = std::make_unique<ShardSink>();
    }
    shard_sinks[task]->Configure(this, task / kShardsPerMachine, machines,
                                 ctx.query_id);
  }
  // What each destination receives in a round, as the list of buffers
  // its inbox is the concatenation of: every sender's shard arenas,
  // senders in machine order and each sender's arenas in shard order
  // (task order), then under OOC the runtime's restored block, the tail
  // the resident cap spilled. Next round receives this list in place (no
  // merge copy, no delivery copy). The buffer objects are stable for the
  // whole Run.
  std::vector<std::vector<const MessageBlock*>> inbox_of(machines);
  for (uint32_t dest = 0; dest < machines; ++dest) {
    for (uint32_t task = 0; task < num_shard_tasks; ++task) {
      inbox_of[dest].push_back(&shard_sinks[task]->arena(dest));
    }
    if (rt != nullptr) inbox_of[dest].push_back(&rt->restored(dest));
  }

  // The pool outlives the round loop. A context without a pool gets a
  // private one: its threads are created once per Run and parked between
  // parallel sections, instead of spawning and joining a thread set
  // every round. A context WITH a pool (concurrent queries) fans out on
  // the shared workers and on any driver lending its thread; each loop
  // waits only for its own claimed indices, so the queries' parallel
  // sections stay independent. Intra-machine sharding means more
  // threads than machines still helps; the engine runs exactly the count
  // it is given (the runner clamps to the hardware).
  std::unique_ptr<ThreadPool> owned_pool;
  if (ctx.pool == nullptr) {
    const uint32_t thread_count = ThreadPool::ResolveThreads(
        options_.execution_threads, /*clamp_to_hardware=*/false);
    owned_pool = std::make_unique<ThreadPool>(thread_count - 1);
  }
  ThreadPool& pool = ctx.pool != nullptr ? *ctx.pool : *owned_pool;

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
  // Real OOC seeding superstep: per-machine degree columns streamed from
  // the vertex-state files (shard planning without touching the CSR).
  std::vector<std::vector<uint32_t>> ooc_degrees(rt != nullptr ? machines
                                                               : 0);

  for (uint64_t round = 0; round <= options_.max_rounds; ++round) {
    for (Worker& worker : workers) worker.send_stats().Clear();

    ClusterRoundLoad loads(machines);

    bool any_messages_pending = false;
    const uint64_t compute_start_ns = wallclock::NowNs();

    // --- Phase A: per-machine prep (receive, shard plan) ---
    // Receiving (folding or grouping the inbox, summing its
    // multiplicities) is serial per machine — the same order at every
    // thread and shard count — and machines are independent. It reads
    // last round's arenas here, before phase B's BeginRound clears them.
    auto prep_machine = [&](uint32_t machine) {
      Worker& worker = workers[machine];
      ShardPlan& plan = plans[machine];
      if (round == 0) {
        // Seeding superstep: every local vertex seeds; shards balance by
        // out-degree (broadcast seeds scan adjacency). Under real OOC the
        // degrees come off the state file, streamed through the cache so
        // the first round pays real vertex-state I/O like GraphD's load
        // phase would (the values equal graph_.OutDegree, so the plan
        // does too).
        const std::vector<VertexId>& vertices = vertices_by_machine_[machine];
        const uint32_t* degrees = nullptr;
        if (rt != nullptr) {
          rt->StreamAllDegrees(machine, &ooc_degrees[machine]);
          degrees = ooc_degrees[machine].data();
        }
        plan.Build(
            vertices.size(), kShardsPerMachine,
            [&](uint32_t i) {
              return uint64_t{1} + (degrees != nullptr
                                        ? degrees[i]
                                        : graph_.OutDegree(vertices[i]));
            },
            [](uint32_t) { return false; });
        return;
      }
      // Under OOC, stream last round's spilled tail back first: it is
      // the list's last segment, behind the resident prefix the delivery
      // left in the arenas, so the received inbox is bit-identical to
      // the uncapped run's.
      if (rt != nullptr) rt->RestoreInbox(machine);
      worker.FoldInbox(inbox_of[machine], fold);
      MachineRoundLoad& load = loads[machine];
      load.recv_messages = worker.received_multiplicity();
      if (combining) {
        // Wire units: what was actually serialized/deserialized — the
        // distinct keys last round's tally counted per sender (integers,
        // summed in sender order). Phase C has not overwritten them yet.
        for (uint32_t sender = 0; sender < machines; ++sender) {
          load.processed_messages +=
              merge_slots[sender * machines + machine].new_wire_keys;
        }
      }
      if (rt != nullptr) {
        // Page in the vertex-state sections behind this round's targets,
        // in ascending section order.
        rt->TouchSections(machine, worker.runs());
      }
      const std::span<const MessageRun> runs = worker.runs();
      plan.Build(
          runs.size(), kShardsPerMachine,
          [runs](uint32_t r) { return uint64_t{1} + runs[r].size(); },
          [runs](uint32_t r) { return runs[r].target == runs[r - 1].target; });
    };
    pool.ParallelFor(machines, prep_machine);
    if (rt != nullptr) VCMP_RETURN_IF_ERROR(rt->ConsumeError());

    // --- Phase B: sharded compute kernels ---
    // runs() is the round's sparse frontier: only vertices with messages
    // appear, in ascending (target, tag) order. Each shard executes its
    // contiguous vertex range into its own arenas/logs, one ComputeRun per
    // (vertex, tag) run with its values (or its one folded value) handed
    // over as a contiguous column; a vertex's log record and random
    // stream open at its first run. Which thread claims a shard never
    // changes what the shard writes.
    auto run_shard = [&](uint32_t task) {
      const uint32_t machine = task / kShardsPerMachine;
      const uint32_t shard = task % kShardsPerMachine;
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
          program.Seed(vertices[i], sink);
        }
        return;
      }
      const Worker& worker = workers[machine];
      const std::span<const MessageRun> runs = worker.runs();
      const double* values = worker.grouped_values();
      for (uint32_t r = begin; r < end; ++r) {
        const MessageRun& run = runs[r];
        if (r == begin || run.target != runs[r - 1].target) {
          sink.BeginVertex(run.target);
        }
        program.ComputeRun(
            run.target,
            MessageRunView{run.tag, values + run.begin, run.size()}, sink);
      }
    };
    pool.ParallelFor(num_shard_tasks, run_shard);

    // --- Phase C: cross-traffic tally ---
    // One task per (sender, destination) pair walks the sender's shard
    // arenas for that destination in ascending shard order — exactly the
    // sender's serial emission order — so the destination's cross-in
    // traffic is independent of the shard count. Nothing is copied: the
    // destination groups the arenas themselves next round. Under
    // combining the pass counts the pair's distinct (target, tag) keys:
    // the wire messages a sender-side combiner would have left.
    auto tally_pair = [&](uint32_t pair) {
      const uint32_t sender = pair / machines;
      const uint32_t dest = pair % machines;
      const uint64_t t0 = collect_times ? wallclock::NowNs() : 0;
      MergeSlot& slot = merge_slots[pair];
      slot.Clear();
      const uint32_t first_task = sender * kShardsPerMachine;
      if (combining) {
        CombineIndex& keys = scratch.wire_keys[pair];
        keys.Clear();
        for (uint32_t shard = 0; shard < kShardsPerMachine; ++shard) {
          const MessageBlock& arena =
              shard_sinks[first_task + shard]->arena(dest);
          const VertexId* targets = arena.targets();
          const uint32_t* tags = arena.tags();
          const size_t n = arena.size();
          for (size_t i = 0; i < n; ++i) {
            keys.Insert((static_cast<uint64_t>(targets[i]) << 32) | tags[i]);
          }
        }
        slot.new_wire_keys = static_cast<double>(keys.size());
        if (dest != sender) slot.wire_cross_in = slot.new_wire_keys;
      } else if (dest != sender) {
        // Wire == logical traffic. Mirror mode folds the per-message
        // cross weights (1/0 for mirror first-touches, multiplicity for
        // plain sends from unmirrored vertices), plain mode the
        // multiplicities, both in emission order.
        double wire_in = 0.0;
        for (uint32_t shard = 0; shard < kShardsPerMachine; ++shard) {
          const ShardSink& sink = *shard_sinks[first_task + shard];
          if (mirror_plan_ != nullptr) {
            for (double weight : sink.cross_weights(dest)) {
              wire_in += weight;
            }
            continue;
          }
          const MessageBlock& arena = sink.arena(dest);
          const double* mults = arena.multiplicities();
          const size_t n = arena.size();
          for (size_t i = 0; i < n; ++i) wire_in += mults[i];
        }
        slot.wire_cross_in = wire_in;
      }
      if (collect_times) slot.merge_ns = wallclock::NowNs() - t0;
    };
    pool.ParallelFor(machines * machines, tally_pair);

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
      double wire_sent = 0.0;
      double wire_cross = 0.0;
      const uint32_t first_task = machine * kShardsPerMachine;
      for (uint32_t shard = 0; shard < kShardsPerMachine; ++shard) {
        for (const ShardSink::VertexLog& rec :
             shard_sinks[first_task + shard]->log()) {
          units += rec.compute_units;
          aggregate += rec.aggregate;
          aggregate_used = aggregate_used || rec.aggregate_used;
          residual += rec.residual_bytes;
          logical_sent += rec.logical_sent;
          wire_sent += rec.wire_sent;
          wire_cross += rec.wire_cross;
          active += 1.0;
        }
      }
      if (combining) {
        // Wire units under combining are the distinct keys the tally
        // counted — integers, summed over destinations in fixed order.
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
        // remains. (combined_work_fraction defaults to 1.0, so a Pregel+
        // profile with combines_messages set leaves compute pricing
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
      // Residual memory: the carryover from earlier batches and the
      // engine's ledger of AddResidualBytes calls accumulated over this
      // run's rounds.
      residual_ledger[machine] += machine_residual_round[machine];
      double carryover = options_.carryover_residual_bytes.empty()
                             ? 0.0
                             : options_.carryover_residual_bytes[machine];
      load.residual_bytes = (carryover + residual_ledger[machine]) * scale;
      if (rt != nullptr) {
        // Measured spill: what the stream actually restored this round,
        // expressed in the same paper-scale buffered-byte terms the
        // modeled recv-side overflow uses.
        load.measured_spill_bytes =
            static_cast<double>(rt->restored(machine).size()) *
            bytes_per_message * options_.profile.message_memory_overhead *
            scale;
        // Measured vertex-state streaming replaces the page-cache
        // heuristic below.
        load.measured_edge_stream_bytes =
            rt->TakeRoundStreamBytes(machine) * scale;
        // Live: everything the machine sent this round; the runtime adds
        // the restored tail it received. The resident prefix it received
        // sat in the senders' arenas, which this round's sends reused.
        size_t sent_messages = 0;
        const uint32_t first_task = machine * kShardsPerMachine;
        for (uint32_t shard = 0; shard < kShardsPerMachine; ++shard) {
          for (uint32_t dest = 0; dest < machines; ++dest) {
            sent_messages +=
                shard_sinks[first_task + shard]->arena(dest).size();
          }
        }
        rt->NoteRoundLiveBytes(machine,
                               static_cast<double>(sent_messages) *
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
    if (options_.checkpoint_interval_rounds > 0 && round > 0 &&
        round % options_.checkpoint_interval_rounds == 0) {
      // Synchronous checkpoint: every machine flushes its resident data.
      double checkpoint_time = stats.max_memory_bytes /
                               options_.cluster.machine.disk_bandwidth;
      stats.total_seconds += checkpoint_time;
      stats.checkpoint_seconds = checkpoint_time;
      result.checkpoint_seconds += checkpoint_time;
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
      stats.recovery_seconds = result.recovery_seconds;
      result.failure_recovered = true;
    }
    seconds_since_checkpoint += stats.total_seconds;

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
      break;
    }

    // --- Deliver: only the out-of-core path touches the arenas ---
    // Next round's phase A receives each inbox_of list in place. Under
    // OOC the resident-message cap cuts the sender-major concatenation at
    // an arbitrary point: the suffix pages to the spill file and the
    // senders' arenas are truncated to the prefix. At most one arena
    // straddles the cut, so prefix ++ restored reproduces the uncapped
    // inbox order byte for byte (and the receive then folds or groups
    // identical arrival orders). Each destination truncates only its own
    // arena of every sender, so the tasks share nothing.
    const uint64_t deliver_start_ns = wallclock::NowNs();
    if (rt != nullptr) {
      pool.ParallelFor(machines, [&](uint32_t dest) {
        const size_t cap = static_cast<size_t>(rt->resident_message_cap());
        size_t kept = 0;
        for (uint32_t task = 0; task < num_shard_tasks; ++task) {
          MessageBlock& arena = shard_sinks[task]->mutable_arena(dest);
          const size_t n = arena.size();
          const size_t take = std::min(n, cap - kept);
          kept += take;
          if (take < n) {
            rt->SpillMessages(dest, arena, take, n - take);
            arena.Truncate(take);
          }
        }
        rt->FinishDeliverRound(dest);
      });
      VCMP_RETURN_IF_ERROR(rt->ConsumeError());
    }
    if (collect_times) {
      result.phase.deliver_seconds += wallclock::SecondsSince(deliver_start_ns);
    }
    // Quiescence reads the arenas and the pending spill only: the
    // restored block was received this round.
    for (uint32_t machine = 0; machine < machines; ++machine) {
      for (uint32_t task = 0; task < num_shard_tasks; ++task) {
        any_messages_pending |= !shard_sinks[task]->arena(machine).empty();
      }
      if (rt != nullptr) any_messages_pending |= rt->has_pending_spill(machine);
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
  }

  result.residual_bytes_per_machine = residual_ledger;

  if (rt != nullptr) {
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
  return result;
}

}  // namespace vcmp
