#include "core/runner.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "sim/monetary_model.h"

namespace vcmp {

MultiProcessingRunner::MultiProcessingRunner(const Dataset& dataset,
                                             RunnerOptions options)
    : dataset_(dataset),
      options_(std::move(options)),
      profile_(options_.profile_override.has_value()
                   ? *options_.profile_override
                   : ProfileFor(options_.system)) {
  if (options_.shared_partition != nullptr) {
    partition_ = options_.shared_partition;
  } else {
    std::unique_ptr<Partitioner> partitioner =
        MakePartitioner(profile_.partitioner);
    owned_partition_ = partitioner->Partition(dataset_.graph,
                                              options_.cluster.num_machines);
    partition_ = &owned_partition_;
  }
}

Result<RunReport> MultiProcessingRunner::Run(const MultiTask& task,
                                             const BatchSchedule& schedule) {
  if (schedule.NumBatches() == 0) {
    return Status::InvalidArgument("empty batch schedule");
  }

  RunReport report;
  report.system = profile_.name;
  report.dataset = dataset_.info.name;
  report.task = task.name();
  report.cluster = options_.cluster.name;
  report.workload = schedule.TotalWorkload();

  TaskContext context{&dataset_.graph, partition_, dataset_.scale};
  ProgramFlavor flavor = profile_.mirroring ? ProgramFlavor::kBroadcast
                                            : ProgramFlavor::kPointToPoint;

  // The engine keeps carryover in generated-graph-scale bytes;
  // initial_residual_bytes and the report speak paper scale, so
  // conversion happens here at the boundary.
  std::vector<double> carryover(options_.cluster.num_machines, 0.0);
  if (!options_.initial_residual_bytes.empty()) {
    if (options_.initial_residual_bytes.size() != carryover.size()) {
      return Status::InvalidArgument(
          "initial_residual_bytes must have one entry per machine");
    }
    for (uint32_t machine = 0; machine < carryover.size(); ++machine) {
      carryover[machine] =
          options_.initial_residual_bytes[machine] / dataset_.scale;
    }
  }

  // One context for the whole run: batches of a query execute in order,
  // so reusing it keeps engine scratch buffers warm across batches while
  // the query id namespaces every per-vertex RNG stream.
  QueryContext query_context(options_.query_id);
  query_context.pool = options_.pool;
  // Program seeds derive from the query-namespaced base seed, so two
  // queries sharing options_.seed generate decorrelated workloads; query
  // 0 reproduces the historical seed sequence exactly.
  const uint64_t program_seed_base =
      Rng::QuerySeed(options_.seed, options_.query_id);
  // Results are thread-count invariant, so threads beyond the hardware's
  // would only add context switches: the engines get the clamped count.
  const uint32_t engine_threads = ThreadPool::ResolveThreads(
      options_.execution_threads, /*clamp_to_hardware=*/true);

  uint64_t batch_index = 0;
  for (double workload : schedule.workloads()) {
    ++batch_index;
    if (workload <= 0.0) continue;  // Degenerate split (Fig. 9 extremes).

    VCMP_ASSIGN_OR_RETURN(
        std::unique_ptr<VertexProgram> program,
        task.MakeProgram(context, flavor, workload,
                         program_seed_base * 1315423911ULL + batch_index));

    EngineOptions engine_options;
    engine_options.cluster = options_.cluster;
    engine_options.profile = profile_;
    engine_options.cost = options_.cost;
    engine_options.stat_scale = dataset_.scale;
    engine_options.carryover_residual_bytes = carryover;
    engine_options.max_rounds = options_.max_rounds;
    engine_options.execution_threads = engine_threads;
    engine_options.collect_phase_times = options_.collect_phase_times;
    engine_options.checkpoint_interval_rounds =
        options_.checkpoint_interval_rounds;
    engine_options.ooc = options_.ooc;
    engine_options.seed = options_.seed + batch_index;

    SyncEngine engine(dataset_.graph, *partition_, engine_options);
    VCMP_ASSIGN_OR_RETURN(EngineResult result,
                          engine.Run(*program, query_context));
    if (options_.engine_observer) options_.engine_observer(result);

    BatchReport batch;
    batch.index = batch_index;
    batch.workload = workload;
    batch.engine_seconds = result.seconds;
    batch.seconds = result.seconds + options_.cost.batch_overhead_seconds;
    batch.overloaded = result.overloaded;
    batch.rounds = result.num_rounds;
    batch.messages = result.total_messages;
    batch.peak_memory_bytes = result.peak_memory_bytes;
    batch.peak_residual_bytes = result.peak_residual_bytes;
    batch.peak_buffered_bytes = result.peak_buffered_bytes;
    batch.network_overuse_seconds = result.network_overuse_seconds;
    batch.disk_overuse_seconds = result.disk_overuse_seconds;
    batch.disk_utilization = result.disk_utilization;
    batch.disk_saturated = result.disk_saturated;
    batch.max_io_queue_length = result.max_io_queue_length;
    batch.spilled_bytes = result.spilled_bytes;
    batch.round_stats = std::move(result.rounds);
    if (engine.mirror_plan() != nullptr) {
      batch.mirrors = engine.mirror_plan()->TotalMirrors();
    }
    batch.ooc = result.ooc;
    batch.ooc_active = result.ooc_active;
    report.Absorb(std::move(batch));

    if (options_.batch_observer) options_.batch_observer(*program);

    if (result.overloaded ||
        report.total_seconds > options_.cost.overload_cutoff_seconds) {
      report.overloaded = true;
      break;  // The paper stops overloaded runs at the cut-off.
    }

    // Residual memory of this batch persists into the next ones: results
    // the program recorded through MessageSink::AddResidualBytes, folded
    // per machine by the engine. The report keeps the largest machine's
    // total, the mid-workload observation point the online batcher
    // inverts the memory models against.
    double max_carryover = 0.0;
    for (uint32_t machine = 0; machine < carryover.size(); ++machine) {
      if (machine < result.residual_bytes_per_machine.size()) {
        carryover[machine] += result.residual_bytes_per_machine[machine];
      }
      max_carryover =
          std::max(max_carryover, carryover[machine] * dataset_.scale);
    }
    report.batches.back().carryover_residual_bytes = max_carryover;
  }

  if (report.overloaded) {
    report.total_seconds = std::max(
        report.total_seconds, options_.cost.overload_cutoff_seconds);
  }
  if (options_.cluster.cloud) {
    MonetaryModel billing;
    report.monetary_cost =
        billing.Cost(options_.cluster, report.total_seconds,
                     report.overloaded,
                     options_.cost.overload_cutoff_seconds);
  }
  return report;
}

}  // namespace vcmp
