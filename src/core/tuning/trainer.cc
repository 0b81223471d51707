#include "core/tuning/trainer.h"

#include <utility>

namespace vcmp {

Trainer::Trainer(const Dataset& dataset, RunnerOptions runner_options)
    : dataset_(dataset), runner_options_(std::move(runner_options)) {}

Result<std::vector<TrainingSample>> Trainer::CollectSamples(
    const MultiTask& task, double target_workload,
    const TrainerOptions& options) {
  if (target_workload < 4.0) {
    return Status::InvalidArgument("target workload too small to train on");
  }

  std::vector<double> workloads;
  double w = 2.0 * options.workload_base;
  while (workloads.size() < options.max_points &&
         (w <= options.max_fraction * target_workload ||
          workloads.size() < options.min_points)) {
    if (w >= target_workload) break;  // Never train above the target.
    workloads.push_back(w);
    w *= 2.0;
  }
  if (workloads.size() < 3) {
    return Status::FailedPrecondition(
        "not enough headroom below the target workload to train");
  }

  std::vector<TrainingSample> samples;
  samples.reserve(workloads.size());
  for (double workload : workloads) {
    // Fresh runner per sample: training runs are independent 1-batch jobs.
    MultiProcessingRunner runner(dataset_, runner_options_);
    VCMP_ASSIGN_OR_RETURN(
        RunReport report,
        runner.Run(task, BatchSchedule::FullParallelism(workload)));
    TrainingSample sample;
    sample.workload = workload;
    sample.peak_memory_bytes = report.peak_memory_bytes;
    sample.residual_memory_bytes =
        report.batches.empty()
            ? 0.0
            : report.batches.back().carryover_residual_bytes;
    sample.seconds = report.total_seconds;
    samples.push_back(sample);
  }
  return samples;
}

}  // namespace vcmp
