#include "core/runner.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"
#include "obs/tracer.h"
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

  TaskContext context{&dataset_.graph, partition_, dataset_.scale,
                      profile_.combines_messages};
  ProgramFlavor flavor = profile_.mirroring ? ProgramFlavor::kBroadcast
                                            : ProgramFlavor::kPointToPoint;

  // The engine keeps carryover in generated-graph-scale bytes; the hook
  // API (initial_residual_bytes / residual_observer) speaks paper-scale
  // like every report, so conversion happens here at the boundary.
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
  Tracer* const tracer = options_.tracer;
  uint32_t batch_track = 0;
  uint32_t engine_track = 0;
  if (tracer != nullptr) {
    batch_track = tracer->AddTrack(options_.trace_label, "batches");
    engine_track = tracer->AddTrack(options_.trace_label, "engine");
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
    engine_options.execution_threads = options_.execution_threads;
    engine_options.collect_phase_times = options_.collect_phase_times;
    engine_options.checkpoint_interval_rounds =
        options_.checkpoint_interval_rounds;
    engine_options.ooc = options_.ooc;
    engine_options.seed = options_.seed + batch_index;
    if (tracer != nullptr) {
      // Batches line up end to end on the report's own running sum, so
      // engine round spans land inside their batch span (batch.seconds
      // >= engine seconds; the overhead is the uninstrumented tail).
      engine_options.tracer = tracer;
      engine_options.trace_track = engine_track;
      engine_options.trace_time_offset_seconds = report.total_seconds;
    }

    SyncEngine engine(dataset_.graph, *partition_, engine_options);
    VCMP_ASSIGN_OR_RETURN(EngineResult result,
                          engine.Run(*program, query_context));
    if (options_.engine_observer) options_.engine_observer(result);

    BatchReport batch;
    batch.workload = workload;
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
    const double batch_start_seconds = report.total_seconds;
    report.Absorb(batch);
    if (tracer != nullptr) {
      tracer->Begin(batch_track, "batch", batch_start_seconds,
                    {{"batch", static_cast<double>(batch_index)},
                     {"workload", workload},
                     {"rounds", static_cast<double>(batch.rounds)},
                     {"messages", batch.messages},
                     {"peak_memory_bytes", batch.peak_memory_bytes}});
      tracer->End(batch_track, report.total_seconds);
      tracer->Add("runner.batches", 1.0);
      tracer->Add("runner.seconds", batch.seconds);
      tracer->Add("runner.messages", batch.messages);
      tracer->Add("runner.rounds", static_cast<double>(batch.rounds));
    }

    if (options_.batch_observer) options_.batch_observer(*program);

    if (batch.overloaded ||
        report.total_seconds > options_.cost.overload_cutoff_seconds) {
      report.overloaded = true;
      break;  // The paper stops overloaded runs at the cut-off.
    }

    // Residual memory of this batch persists into the next ones: results
    // the program recorded through MessageSink::AddResidualBytes, folded
    // per machine by the engine.
    for (uint32_t machine = 0; machine < carryover.size(); ++machine) {
      if (machine < result.residual_bytes_per_machine.size()) {
        carryover[machine] += result.residual_bytes_per_machine[machine];
      }
    }
    if (options_.residual_observer || tracer != nullptr) {
      std::vector<double> paper_scale(carryover.size());
      double max_carryover = 0.0;
      for (uint32_t machine = 0; machine < carryover.size(); ++machine) {
        paper_scale[machine] = carryover[machine] * dataset_.scale;
        max_carryover = std::max(max_carryover, paper_scale[machine]);
      }
      if (tracer != nullptr) {
        // The mid-workload observation point the online batcher inverts
        // the memory models against, now visible per batch boundary.
        tracer->Gauge(batch_track, "carryover_residual_bytes",
                      report.total_seconds, max_carryover);
      }
      if (options_.residual_observer) {
        options_.residual_observer(batch_index, paper_scale);
      }
    }
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
