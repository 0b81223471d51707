#include "engine/gas_engine.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "engine/frontier.h"
#include "sim/round_load.h"

namespace vcmp {

/// Accumulator-based scheduling context shared by both modes.
class GasEngine::Context : public GasContext {
 public:
  Context(const GasEngine* engine, uint64_t query)
      : engine_(engine),
        query_(query),
        machines_(engine->partition_.num_machines),
        acc_(engine->graph_.NumVertices(), 0.0),
        residual_ledger_(machines_, 0.0),
        wire_stamp_(static_cast<size_t>(machines_) *
                        engine->graph_.NumVertices(),
                    0) {
    frontier_.Reset(engine->graph_.NumVertices());
    ResetPassCounters();
  }

  void Signal(VertexId target, double value, double multiplicity) override {
    acc_[target] += value;
    // Frontier membership: the first signal activates (and records) the
    // vertex; later signals — including ones arriving while the vertex
    // sits in an already-taken frontier awaiting consumption — fold into
    // the same pending activation.
    frontier_.Activate(target);
    // Pass 0 is Seed(): initial activations are machine-local state
    // initialisation, not traffic.
    if (pass_ == 0) return;
    uint32_t sender = sender_machine_;
    uint32_t dest = engine_->partition_.MachineOf(target);
    logical_signals_[sender] += multiplicity;
    double wire_units = multiplicity;
    if (engine_->options_.profile.combines_messages) {
      // Sender-side combining: the first signal from this machine to this
      // target within the pass creates a wire message, later ones merge.
      size_t stamp_index =
          static_cast<size_t>(sender) * engine_->graph_.NumVertices() +
          target;
      if (wire_stamp_[stamp_index] == pass_stamp_) {
        wire_units = 0.0;
      } else {
        wire_stamp_[stamp_index] = pass_stamp_;
        wire_units = 1.0;
      }
    }
    wire_signals_[sender] += wire_units;
    if (sender != dest) {
      wire_cross_out_[sender] += wire_units;
      wire_cross_in_[dest] += wire_units;
      logical_cross_[sender] += multiplicity;
    }
  }

  void AddComputeUnits(double units) override {
    compute_units_[sender_machine_] += units;
  }

  void AddResidualBytes(double bytes) override {
    residual_ledger_[sender_machine_] += bytes;
  }

  Rng& rng() override { return rng_; }
  uint64_t pass() const override { return pass_; }

  // --- engine-side helpers ---
  void BeginPass(uint64_t pass) {
    pass_ = pass;
    ++pass_stamp_;
    ResetPassCounters();
  }
  void SetSender(uint32_t machine) { sender_machine_ = machine; }

  /// Reseeds the context RNG from (seed, query, pass, vertex), so a
  /// program gets identical draws for a given activation in either mode.
  void BeginVertex(VertexId v) {
    rng_ = Rng(Rng::MixSeed(engine_->options_.seed, query_, pass_, v));
  }

  /// Takes the accumulated signal of v and clears its scheduling mark.
  double Consume(VertexId v) {
    double value = acc_[v];
    acc_[v] = 0.0;
    frontier_.Deactivate(v);
    return value;
  }

  std::vector<VertexId> TakeFrontier() { return frontier_.Take(); }

  const std::vector<double>& logical_signals() const {
    return logical_signals_;
  }
  const std::vector<double>& wire_signals() const { return wire_signals_; }
  const std::vector<double>& wire_cross_out() const {
    return wire_cross_out_;
  }
  const std::vector<double>& wire_cross_in() const { return wire_cross_in_; }
  const std::vector<double>& logical_cross() const { return logical_cross_; }
  const std::vector<double>& compute_units() const { return compute_units_; }
  const std::vector<double>& residual_ledger() const {
    return residual_ledger_;
  }

 private:
  void ResetPassCounters() {
    logical_signals_.assign(machines_, 0.0);
    wire_signals_.assign(machines_, 0.0);
    wire_cross_out_.assign(machines_, 0.0);
    wire_cross_in_.assign(machines_, 0.0);
    logical_cross_.assign(machines_, 0.0);
    compute_units_.assign(machines_, 0.0);
  }

  const GasEngine* engine_;
  uint64_t query_;
  uint32_t machines_;
  uint64_t pass_ = 0;
  uint64_t pass_stamp_ = 1;
  uint32_t sender_machine_ = 0;
  Rng rng_{0};
  std::vector<double> acc_;
  /// Per-machine AddResidualBytes totals, accumulated over the whole run
  /// in frontier order.
  std::vector<double> residual_ledger_;
  /// Dense-bitmap + sparse-list active set (engine/frontier.h): O(1)
  /// membership tests during signal accumulation, Take() hands out only
  /// the activated vertices — no vertex-space scan per pass.
  VertexFrontier frontier_;
  std::vector<uint64_t> wire_stamp_;
  std::vector<double> logical_signals_;
  std::vector<double> wire_signals_;
  std::vector<double> wire_cross_out_;
  std::vector<double> wire_cross_in_;
  std::vector<double> logical_cross_;
  std::vector<double> compute_units_;
};

GasEngine::GasEngine(const Graph& graph, const Partitioning& partition,
                     GasOptions options)
    : graph_(graph), partition_(partition), options_(std::move(options)) {
  graph_share_bytes_.assign(partition_.num_machines, 0.0);
  for (VertexId v = 0; v < graph_.NumVertices(); ++v) {
    graph_share_bytes_[partition_.MachineOf(v)] +=
        sizeof(EdgeIndex) + graph_.OutDegree(v) * sizeof(VertexId);
  }
}

Result<GasResult> GasEngine::Run(GasVertexProgram& program) const {
  QueryContext ctx;
  return Run(program, ctx);
}

Result<GasResult> GasEngine::Run(GasVertexProgram& program,
                                 QueryContext& ctx) const {
  if (partition_.num_machines != options_.cluster.num_machines) {
    return Status::InvalidArgument(
        "partition machine count does not match cluster spec");
  }
  const uint32_t machines = partition_.num_machines;
  const SystemProfile& profile = options_.profile;
  const double scale = options_.stat_scale;
  const MachineSpec& machine_spec = options_.cluster.machine;
  CostModel cost_model(options_.cluster, profile, options_.cost);

  Context context(this, ctx.query_id);

  GasResult result;
  double total_processed_signals = 0.0;  // For async pricing.
  double total_activations = 0.0;
  double total_compute_units = 0.0;
  std::vector<double> cross_bytes_per_machine(machines, 0.0);

  context.BeginPass(0);
  context.SetSender(0);  // Seeding attributed to the master.
  program.Seed(context);

  std::vector<VertexId> frontier = context.TakeFrontier();
  for (uint64_t pass = 1; pass <= options_.max_passes && !frontier.empty();
       ++pass) {
    context.BeginPass(pass);
    double pass_logical = 0.0;
    // A synchronous pass consumes its whole frontier first, so every
    // signal it sends lands in the NEXT pass's accumulators (the
    // bulk-synchronous semantics). An asynchronous pass consumes each
    // vertex as it reaches it: signals sent to frontier vertices not yet
    // consumed fold into the *current* pass (eager propagation, the
    // behaviour the async pricing models).
    std::vector<double> signals;
    if (profile.synchronous) {
      signals.resize(frontier.size());
      for (size_t i = 0; i < frontier.size(); ++i) {
        signals[i] = context.Consume(frontier[i]);
      }
    }
    for (size_t i = 0; i < frontier.size(); ++i) {
      const VertexId v = frontier[i];
      const double signal =
          profile.synchronous ? signals[i] : context.Consume(v);
      context.SetSender(partition_.MachineOf(v));
      context.BeginVertex(v);
      program.Process(v, signal, context);
    }
    total_activations += frontier.size();
    result.passes = pass;

    ClusterRoundLoad loads(machines);
    // Received == sent within the pass (accumulators are consumed next
    // pass; attribute the traffic to this pass).
    double pass_messages = 0.0;
    for (uint32_t m = 0; m < machines; ++m) {
      MachineRoundLoad& load = loads[m];
      load.recv_messages = context.logical_signals()[m] * scale;
      // Combining shrinks wire traffic, not gather work: every logical
      // signal still folds into the accumulator, at the merged-entry
      // discount.
      load.processed_messages =
          context.logical_signals()[m] * scale *
          (profile.combines_messages ? profile.combined_work_fraction
                                     : 1.0);
      load.cross_bytes_out =
          context.wire_cross_out()[m] * profile.bytes_per_message * scale;
      load.cross_bytes_in =
          context.wire_cross_in()[m] * profile.bytes_per_message * scale;
      load.buffered_message_bytes =
          context.wire_signals()[m] * profile.bytes_per_message * scale;
      load.compute_units = context.compute_units()[m] * scale;
      load.state_bytes =
          (graph_share_bytes_[m] + program.StateBytes(m)) * scale;
      load.residual_bytes = context.residual_ledger()[m] * scale;
      cross_bytes_per_machine[m] += load.cross_bytes_out;
      pass_messages += load.recv_messages;
      pass_logical += context.logical_signals()[m];
      total_compute_units += context.compute_units()[m];
    }
    // Activations per machine for the cost model's per-vertex term.
    for (VertexId v : frontier) {
      loads[partition_.MachineOf(v)].active_vertices += scale;
    }
    result.messages += pass_messages;
    total_processed_signals += pass_logical;

    if (profile.synchronous) {
      RoundStats stats = cost_model.EvaluateRound(loads, 0.0);
      result.seconds += stats.total_seconds;
      result.barrier_seconds += stats.barrier_seconds;
      result.peak_memory_bytes =
          std::max(result.peak_memory_bytes, stats.max_memory_bytes);
      if (stats.overflow ||
          result.seconds > options_.cost.overload_cutoff_seconds) {
        result.overloaded = true;
        break;
      }
    } else {
      // Track memory only; async time is priced once at the end.
      for (const MachineRoundLoad& load : loads) {
        double demand = load.state_bytes + load.residual_bytes +
                        load.buffered_message_bytes *
                            profile.message_memory_overhead;
        result.peak_memory_bytes =
            std::max(result.peak_memory_bytes, demand);
        if (demand > machine_spec.memory_bytes) result.overloaded = true;
      }
      if (result.overloaded) break;
    }

    frontier = context.TakeFrontier();
  }
  result.activations = total_activations * scale;
  result.residual_bytes_per_machine = context.residual_ledger();

  if (!profile.synchronous && !result.overloaded) {
    // Asynchronous pricing: no barriers; work flows through a shared
    // thread pool, each activation acquiring a distributed lock whose
    // contention grows with the cluster-wide fiber count. Convergent
    // programs need fewer updates under eager scheduling
    // (AsyncWorkFactor); cross-machine signals are serialized one by one
    // (no combining window) and inflated by retries.
    const double work_factor = program.AsyncWorkFactor();
    const double effective_cores =
        std::max(1.0,
                 machine_spec.cores * options_.cost.core_utilization) *
        machine_spec.core_speed;
    double local_signals = total_processed_signals * scale * work_factor;
    double total_cross_logical = 0.0;
    for (double bytes : cross_bytes_per_machine) {
      total_cross_logical += bytes / profile.bytes_per_message;
    }
    double cross_signals = total_cross_logical * work_factor *
                           profile.async_message_inflation;
    double compute_seconds =
        (options_.cost.seconds_per_message *
             profile.combined_work_fraction *
             (local_signals + cross_signals) +
         options_.cost.seconds_per_active_vertex * result.activations *
             work_factor +
         options_.cost.seconds_per_compute_unit * total_compute_units *
             scale * work_factor) *
        profile.compute_factor / (effective_cores * machines);
    // Per-activation lock wait grows with the cluster-wide fiber count
    // (1000 fibers/machine, Section 4.8); the work itself parallelises, so
    // the lock plateau is what stops async from scaling.
    double lock_seconds = profile.lock_overhead_coefficient *
                          options_.cost.seconds_per_active_vertex *
                          result.activations * work_factor *
                          std::log2(static_cast<double>(machines) + 1.0);
    double cross_bytes_max = 0.0;
    for (double bytes : cross_bytes_per_machine) {
      cross_bytes_max = std::max(cross_bytes_max, bytes);
    }
    double network_seconds = cross_bytes_max * work_factor *
                             profile.async_message_inflation /
                             machine_spec.network_bandwidth;
    result.lock_seconds = lock_seconds;
    result.seconds =
        std::max(compute_seconds + lock_seconds, network_seconds);
    result.messages *= profile.async_message_inflation * work_factor;
    for (double& bytes : cross_bytes_per_machine) {
      bytes *= profile.async_message_inflation * work_factor;
    }
  }

  double total_cross = 0.0;
  for (double bytes : cross_bytes_per_machine) total_cross += bytes;
  result.network_bytes_per_machine =
      machines == 0 ? 0.0 : total_cross / machines;

  if (result.overloaded) {
    result.seconds = std::max(result.seconds,
                              options_.cost.overload_cutoff_seconds);
  }
  return result;
}

}  // namespace vcmp
