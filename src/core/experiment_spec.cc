#include "core/experiment_spec.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>

#include "common/string_util.h"
#include "common/units.h"
#include "core/batch_search.h"
#include "core/tuning/tuner.h"
#include "graph/datasets.h"
#include "tasks/task_registry.h"

namespace vcmp {
namespace {

const std::set<std::string>& KnownKeys() {
  static const auto& keys = *new std::set<std::string>{
      "dataset", "task",  "system", "cluster", "machines",
      "workload", "schedule", "scale", "seed", "threads",
      "memory_budget", "ooc_dir"};
  return keys;
}

Result<ClusterSpec> ResolveCluster(const ExperimentSpec& spec) {
  ClusterSpec cluster;
  if (spec.cluster == "galaxy") {
    cluster = ClusterSpec::Galaxy8();
  } else if (spec.cluster == "galaxy27") {
    cluster = ClusterSpec::Galaxy27();
  } else if (spec.cluster == "docker") {
    cluster = ClusterSpec::Docker32();
  } else {
    return Status::InvalidArgument("experiment '" + spec.name +
                                   "': unknown cluster '" + spec.cluster +
                                   "'");
  }
  if (spec.machines > 0) cluster = cluster.WithMachines(spec.machines);
  return cluster;
}

/// A parsed `schedule` value.
struct ScheduleSpec {
  std::string kind;      // equal | twobatch | geometric | tuned | search
  uint32_t batches = 0;  // equal, geometric
  double delta = 0.0;    // twobatch
  double ratio = 0.0;    // geometric
};

Status SpecError(const ExperimentSpec& spec, const std::string& message) {
  return Status::InvalidArgument("experiment '" + spec.name + "': " +
                                 message);
}

/// Strict parse of a whole decimal or floating-point string.
bool ParseNumber(const std::string& text, double* value) {
  char* end = nullptr;
  errno = 0;
  *value = std::strtod(text.c_str(), &end);
  return errno == 0 && end != text.c_str() && *end == '\0' &&
         std::isfinite(*value);
}

/// Strict parse of a batch count: a whole integer in [1, 2^32).
Result<uint32_t> ParseBatchCount(const ExperimentSpec& spec,
                                 const std::string& text) {
  double value = 0.0;
  if (!ParseNumber(text, &value) || value != std::floor(value) ||
      value < 1.0 || value > std::numeric_limits<uint32_t>::max()) {
    return SpecError(spec, "schedule '" + spec.schedule +
                               "' needs a positive integer batch count, "
                               "got '" + text + "'");
  }
  return static_cast<uint32_t>(value);
}

/// Parses "equal:4", "twobatch:2560", "geometric:5,0.5", "tuned" or
/// "search", and checks every value against the workload, so a schedule
/// BatchSchedule would refuse is an InvalidArgument here.
Result<ScheduleSpec> ParseSchedule(const ExperimentSpec& spec) {
  if (!(spec.workload > 0.0) || !std::isfinite(spec.workload)) {
    return SpecError(spec, StrFormat("workload must be positive, got %g",
                                     spec.workload));
  }
  std::vector<std::string> parts = SplitString(spec.schedule, ":");
  ScheduleSpec schedule;
  schedule.kind = parts.empty() ? "" : parts[0];
  if (schedule.kind == "tuned" || schedule.kind == "search") {
    return schedule;
  }
  if (parts.size() != 2) {
    return SpecError(spec, "malformed schedule '" + spec.schedule + "'");
  }
  if (schedule.kind == "equal") {
    VCMP_ASSIGN_OR_RETURN(schedule.batches, ParseBatchCount(spec, parts[1]));
    return schedule;
  }
  if (schedule.kind == "twobatch") {
    if (!ParseNumber(parts[1], &schedule.delta) ||
        std::fabs(schedule.delta) > spec.workload) {
      return SpecError(spec, "schedule '" + spec.schedule +
                                 "' needs a delta with |delta| <= the "
                                 "workload " +
                                 StrFormat("%g", spec.workload));
    }
    return schedule;
  }
  if (schedule.kind == "geometric") {
    std::vector<std::string> args = SplitString(parts[1], ",");
    if (args.size() != 2) {
      return SpecError(spec,
                       "geometric schedule needs 'geometric:K,RATIO'");
    }
    VCMP_ASSIGN_OR_RETURN(schedule.batches, ParseBatchCount(spec, args[0]));
    if (!ParseNumber(args[1], &schedule.ratio) || !(schedule.ratio > 0.0) ||
        schedule.ratio > 1.0) {
      return SpecError(spec, "schedule '" + spec.schedule +
                                 "' needs a ratio in (0, 1], got '" +
                                 args[1] + "'");
    }
    return schedule;
  }
  return SpecError(spec, "unknown schedule kind '" + schedule.kind + "'");
}

Result<BatchSchedule> ResolveSchedule(const ExperimentSpec& spec,
                                      const Dataset& dataset,
                                      const RunnerOptions& options,
                                      const MultiTask& task) {
  VCMP_ASSIGN_OR_RETURN(ScheduleSpec schedule, ParseSchedule(spec));
  if (schedule.kind == "tuned") {
    Tuner tuner(dataset, options);
    VCMP_ASSIGN_OR_RETURN(TunedPlan plan,
                          tuner.Tune(task, spec.workload));
    return plan.schedule;
  }
  if (schedule.kind == "search") {
    VCMP_ASSIGN_OR_RETURN(
        BatchSearchResult search,
        FindOptimalBatchCount(dataset, options, task, spec.workload));
    return BatchSchedule::Equal(spec.workload, search.best_batches);
  }
  if (schedule.kind == "equal") {
    return BatchSchedule::Equal(spec.workload, schedule.batches);
  }
  if (schedule.kind == "twobatch") {
    return BatchSchedule::TwoBatch(spec.workload, schedule.delta);
  }
  return BatchSchedule::GeometricDecay(spec.workload, schedule.batches,
                                       schedule.ratio);
}

}  // namespace

Result<std::vector<ExperimentSpec>> ParseExperimentSpecs(
    const IniDocument& document) {
  constexpr int64_t kMaxUint32 = std::numeric_limits<uint32_t>::max();
  std::vector<ExperimentSpec> specs;
  for (const IniDocument::Section& section : document.sections()) {
    if (section.name.empty()) {
      return Status::InvalidArgument(
          "experiment keys must live inside a [named] section");
    }
    for (const auto& [key, value] : section.values) {
      (void)value;
      if (KnownKeys().find(key) == KnownKeys().end()) {
        return Status::InvalidArgument("experiment '" + section.name +
                                       "': unknown key '" + key + "'");
      }
    }
    ExperimentSpec spec;
    spec.name = section.name;
    spec.dataset = IniDocument::GetString(section, "dataset", spec.dataset);
    spec.task = IniDocument::GetString(section, "task", spec.task);
    spec.system = IniDocument::GetString(section, "system", spec.system);
    spec.cluster = IniDocument::GetString(section, "cluster", spec.cluster);
    VCMP_ASSIGN_OR_RETURN(
        int64_t machines,
        IniDocument::GetIntInRange(section, "machines", 0, 0, kMaxUint32));
    spec.machines = static_cast<uint32_t>(machines);
    VCMP_ASSIGN_OR_RETURN(
        spec.workload,
        IniDocument::GetDouble(section, "workload", spec.workload));
    spec.schedule = IniDocument::GetString(section, "schedule",
                                           spec.schedule);
    VCMP_ASSIGN_OR_RETURN(spec.scale,
                          IniDocument::GetDouble(section, "scale", 0.0));
    VCMP_ASSIGN_OR_RETURN(int64_t seed,
                          IniDocument::GetInt(section, "seed", 1));
    spec.seed = static_cast<uint64_t>(seed);
    VCMP_ASSIGN_OR_RETURN(
        int64_t threads,
        IniDocument::GetIntInRange(section, "threads", 0, 0, kMaxUint32));
    spec.threads = static_cast<uint32_t>(threads);
    spec.memory_budget =
        IniDocument::GetString(section, "memory_budget", "");
    spec.ooc_dir = IniDocument::GetString(section, "ooc_dir", "");
    VCMP_RETURN_IF_ERROR(ParseSchedule(spec).status());
    specs.push_back(std::move(spec));
  }
  if (specs.empty()) {
    return Status::InvalidArgument("no experiment sections found");
  }
  return specs;
}

Result<ExperimentResult> RunExperiment(const ExperimentSpec& spec) {
  VCMP_ASSIGN_OR_RETURN(DatasetInfo info, FindDataset(spec.dataset));
  Dataset dataset = LoadDataset(info.id, spec.scale);

  RunnerOptions options;
  VCMP_ASSIGN_OR_RETURN(options.cluster, ResolveCluster(spec));
  SystemKind system = SystemKind::kPregelPlus;
  if (!SystemKindFromName(spec.system, &system)) {
    return Status::InvalidArgument("experiment '" + spec.name +
                                   "': unknown system '" + spec.system +
                                   "'");
  }
  options.system = system;
  options.seed = spec.seed;
  options.execution_threads = spec.threads;
  if (!spec.memory_budget.empty()) {
    VCMP_ASSIGN_OR_RETURN(options.ooc.memory_budget_bytes,
                          ParseByteSize(spec.memory_budget));
    options.ooc.enabled = true;
    options.ooc.directory = spec.ooc_dir;
  } else if (!spec.ooc_dir.empty()) {
    return Status::InvalidArgument(
        "experiment '" + spec.name +
        "': ooc_dir requires memory_budget to enable real out-of-core "
        "execution");
  }

  VCMP_ASSIGN_OR_RETURN(std::unique_ptr<MultiTask> task,
                        MakeTask(spec.task));
  ExperimentResult result;
  result.spec = spec;
  VCMP_ASSIGN_OR_RETURN(
      result.schedule,
      ResolveSchedule(spec, dataset, options, *task));
  MultiProcessingRunner runner(dataset, options);
  VCMP_ASSIGN_OR_RETURN(result.report, runner.Run(*task, result.schedule));
  return result;
}

}  // namespace vcmp
