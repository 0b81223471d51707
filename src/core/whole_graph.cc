#include "core/whole_graph.h"

#include <algorithm>
#include <cmath>

#include "engine/sync_engine.h"
#include "graph/partition.h"

namespace vcmp {

WholeGraphRunner::WholeGraphRunner(const Dataset& dataset,
                                   WholeGraphOptions options)
    : dataset_(dataset), options_(std::move(options)) {}

Result<WholeGraphReport> WholeGraphRunner::Run(
    const MultiTask& task, const BatchSchedule& schedule) {
  if (schedule.NumBatches() == 0) {
    return Status::InvalidArgument("empty batch schedule");
  }
  const uint32_t machines = options_.cluster.num_machines;

  // Each machine is an independent single-machine Pregel+ instance over
  // the full graph, processing workload/machines of every batch. All
  // instances run in lock-step on equal shares, so simulating one machine
  // gives the cluster's wall-clock.
  Partitioning local;
  local.num_machines = 1;
  local.assignment.assign(dataset_.graph.NumVertices(), 0);
  ClusterSpec single = options_.cluster.WithMachines(1);
  single.name = options_.cluster.name + "/whole-graph";

  WholeGraphReport report;
  TaskContext context{&dataset_.graph, &local, dataset_.scale};
  std::vector<double> carryover(1, 0.0);

  uint64_t batch_index = 0;
  for (double workload : schedule.workloads()) {
    ++batch_index;
    double machine_share = workload / machines;
    if (machine_share < 1.0 && workload > 0.0) machine_share = 1.0;
    if (workload <= 0.0) continue;

    VCMP_ASSIGN_OR_RETURN(
        std::unique_ptr<VertexProgram> program,
        task.MakeProgram(context, ProgramFlavor::kPointToPoint,
                         machine_share,
                         options_.seed * 2654435761ULL + batch_index));

    EngineOptions engine_options;
    engine_options.cluster = single;
    engine_options.profile = ProfileFor(SystemKind::kPregelPlus);
    engine_options.cost = options_.cost;
    engine_options.stat_scale = dataset_.scale;
    engine_options.carryover_residual_bytes = carryover;
    engine_options.max_rounds = options_.max_rounds;
    engine_options.seed = options_.seed + batch_index;

    SyncEngine engine(dataset_.graph, local, engine_options);
    VCMP_ASSIGN_OR_RETURN(EngineResult result, engine.Run(*program));

    report.algorithm_seconds +=
        result.seconds + options_.cost.batch_overhead_seconds;
    report.total_rounds += result.num_rounds;
    report.peak_memory_bytes =
        std::max(report.peak_memory_bytes, result.peak_memory_bytes);
    if (result.overloaded) {
      report.overloaded = true;
      break;
    }
    if (!result.residual_bytes_per_machine.empty()) {
      carryover[0] += result.residual_bytes_per_machine[0];
    }
  }

  // Final aggregation: every machine ships its n-vector of partial results
  // to the master, which folds them (tree reduction would halve the bytes;
  // the paper's bars show a visible but modest aggregation share, matching
  // the flat gather modelled here).
  double result_bytes = static_cast<double>(dataset_.graph.NumVertices()) *
                        options_.result_record_bytes * dataset_.scale;
  double gather_bytes = result_bytes * (machines - 1);
  report.aggregation_seconds =
      gather_bytes / options_.cluster.machine.network_bandwidth +
      options_.cost.seconds_per_message *
          static_cast<double>(dataset_.graph.NumVertices()) * dataset_.scale *
          machines /
          std::max(1.0, options_.cluster.machine.cores *
                            options_.cost.core_utilization);

  if (report.overloaded) {
    report.algorithm_seconds =
        std::max(report.algorithm_seconds,
                 options_.cost.overload_cutoff_seconds);
  }
  return report;
}

}  // namespace vcmp
