#include "service/serve_spec.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <set>

#include "common/string_util.h"
#include "core/tuning/memory_fit.h"
#include "core/tuning/trainer.h"
#include "graph/datasets.h"
#include "service/service.h"
#include "tasks/task_registry.h"

namespace vcmp {
namespace {

const std::set<std::string>& KnownKeys() {
  static const auto& keys = *new std::set<std::string>{
      "dataset",  "task",     "system",      "cluster",
      "machines", "scale",    "seed",        "threads",
      "horizon",  "clients",  "rate",        "trace",
      "units",    "queue_capacity", "per_client_capacity",
      "policy",   "max_wait", "drain_delay", "overload_fraction",
      "safety",   "train_target", "job_overhead"};
  return keys;
}

/// Strict number: all of `text` (surrounding blanks aside) must parse,
/// to a finite value.
bool ParseFinite(const std::string& text, double* value) {
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  *value = std::strtod(begin, &end);
  if (end == begin || errno != 0 || !std::isfinite(*value)) return false;
  while (std::isspace(static_cast<unsigned char>(*end))) ++end;
  return *end == '\0';
}

/// Reads `key` as a finite number that is > 0 (`positive`) or >= 0; the
/// error names the scenario and the key.
Result<double> GetBoundedReal(const IniDocument::Section& section,
                              const std::string& key, double fallback,
                              bool positive) {
  auto it = section.values.find(key);
  if (it == section.values.end()) return fallback;
  double value = 0.0;
  if (!ParseFinite(it->second, &value) || value < 0.0 ||
      (positive && value == 0.0)) {
    return Status::InvalidArgument(StrFormat(
        "scenario '%s': %s must be a finite number %s, got '%s'",
        section.name.c_str(), key.c_str(), positive ? "> 0" : ">= 0",
        it->second.c_str()));
  }
  return value;
}

/// The batching policy: 0 for "dynamic", the batch size for
/// "fixed:UNITS" (UNITS a finite number > 0).
Result<double> FixedPolicyUnits(const std::string& scenario,
                                const std::string& policy) {
  if (policy == "dynamic") return 0.0;
  std::vector<std::string> parts = SplitString(policy, ":");
  double units = 0.0;
  if (parts.size() == 2 && parts[0] == "fixed" &&
      ParseFinite(parts[1], &units) && units > 0.0) {
    return units;
  }
  return Status::InvalidArgument(
      "scenario '" + scenario + "': policy must be dynamic or fixed:UNITS "
      "with UNITS > 0, got '" + policy + "'");
}

Result<ClusterSpec> ResolveCluster(const ServeSpec& spec) {
  ClusterSpec cluster;
  if (spec.cluster == "galaxy") {
    cluster = ClusterSpec::Galaxy8();
  } else if (spec.cluster == "galaxy27") {
    cluster = ClusterSpec::Galaxy27();
  } else if (spec.cluster == "docker") {
    cluster = ClusterSpec::Docker32();
  } else {
    return Status::InvalidArgument("scenario '" + spec.name +
                                   "': unknown cluster '" + spec.cluster +
                                   "'");
  }
  if (spec.machines > 0) cluster = cluster.WithMachines(spec.machines);
  return cluster;
}

}  // namespace

Result<std::vector<TraceSegment>> ParseTrace(const std::string& trace) {
  std::vector<TraceSegment> segments;
  for (const std::string& part : SplitString(trace, ",")) {
    std::vector<std::string> pair = SplitString(part, "x");
    if (pair.size() != 2) {
      return Status::InvalidArgument(
          "malformed trace segment '" + part +
          "' (expected DURATIONxRATE, e.g. '30x12')");
    }
    TraceSegment segment;
    if (!ParseFinite(pair[0], &segment.duration_seconds) ||
        segment.duration_seconds <= 0.0) {
      return Status::InvalidArgument("trace segment '" + part +
                                     "' needs a finite duration > 0");
    }
    if (!ParseFinite(pair[1], &segment.rate_per_second) ||
        segment.rate_per_second < 0.0) {
      return Status::InvalidArgument("trace segment '" + part +
                                     "' needs a finite rate >= 0");
    }
    segments.push_back(segment);
  }
  if (segments.empty()) {
    return Status::InvalidArgument("trace is empty");
  }
  return segments;
}

Result<std::vector<ServeSpec>> ParseServeSpecs(
    const IniDocument& document) {
  constexpr int64_t kMaxUint32 = std::numeric_limits<uint32_t>::max();
  constexpr int64_t kMaxInt64 = std::numeric_limits<int64_t>::max();
  std::vector<ServeSpec> specs;
  for (const IniDocument::Section& section : document.sections()) {
    if (section.name.empty()) {
      return Status::InvalidArgument(
          "serving keys must live inside a [named] section");
    }
    for (const auto& [key, value] : section.values) {
      (void)value;
      if (KnownKeys().find(key) == KnownKeys().end()) {
        return Status::InvalidArgument("scenario '" + section.name +
                                       "': unknown key '" + key + "'");
      }
    }
    ServeSpec spec;
    spec.name = section.name;
    spec.dataset = IniDocument::GetString(section, "dataset", spec.dataset);
    spec.task = IniDocument::GetString(section, "task", spec.task);
    spec.system = IniDocument::GetString(section, "system", spec.system);
    spec.cluster = IniDocument::GetString(section, "cluster", spec.cluster);
    VCMP_ASSIGN_OR_RETURN(
        int64_t machines,
        IniDocument::GetIntInRange(section, "machines", 0, 0, kMaxUint32));
    spec.machines = static_cast<uint32_t>(machines);
    VCMP_ASSIGN_OR_RETURN(spec.scale,
                          IniDocument::GetDouble(section, "scale", 0.0));
    VCMP_ASSIGN_OR_RETURN(
        int64_t seed,
        IniDocument::GetInt(section, "seed",
                            static_cast<int64_t>(spec.seed)));
    spec.seed = static_cast<uint64_t>(seed);
    VCMP_ASSIGN_OR_RETURN(
        int64_t threads,
        IniDocument::GetIntInRange(section, "threads", 0, 0, kMaxUint32));
    spec.threads = static_cast<uint32_t>(threads);
    VCMP_ASSIGN_OR_RETURN(
        spec.horizon_seconds,
        GetBoundedReal(section, "horizon", spec.horizon_seconds,
                       /*positive=*/true));
    VCMP_ASSIGN_OR_RETURN(
        int64_t clients,
        IniDocument::GetIntInRange(section, "clients", spec.clients, 1,
                                   kMaxUint32));
    spec.clients = static_cast<uint32_t>(clients);
    VCMP_ASSIGN_OR_RETURN(
        spec.rate_per_second,
        GetBoundedReal(section, "rate", spec.rate_per_second,
                       /*positive=*/false));
    spec.trace = IniDocument::GetString(section, "trace", spec.trace);
    if (!spec.trace.empty()) {
      auto trace = ParseTrace(spec.trace);
      if (!trace.ok()) {
        return Status::InvalidArgument("scenario '" + section.name +
                                       "': trace: " +
                                       trace.status().message());
      }
    }
    VCMP_ASSIGN_OR_RETURN(
        spec.units_per_query,
        GetBoundedReal(section, "units", spec.units_per_query,
                       /*positive=*/true));
    VCMP_ASSIGN_OR_RETURN(
        int64_t total_capacity,
        IniDocument::GetIntInRange(
            section, "queue_capacity",
            static_cast<int64_t>(spec.total_capacity), 0, kMaxInt64));
    spec.total_capacity = static_cast<size_t>(total_capacity);
    VCMP_ASSIGN_OR_RETURN(
        int64_t per_client,
        IniDocument::GetIntInRange(
            section, "per_client_capacity",
            static_cast<int64_t>(spec.per_client_capacity), 0, kMaxInt64));
    spec.per_client_capacity = static_cast<size_t>(per_client);
    VCMP_ASSIGN_OR_RETURN(
        spec.job_overhead_seconds,
        IniDocument::GetDouble(section, "job_overhead",
                               spec.job_overhead_seconds));
    spec.policy = IniDocument::GetString(section, "policy", spec.policy);
    VCMP_RETURN_IF_ERROR(FixedPolicyUnits(spec.name, spec.policy).status());
    VCMP_ASSIGN_OR_RETURN(spec.max_wait_seconds,
                          IniDocument::GetDouble(section, "max_wait",
                                                 spec.max_wait_seconds));
    VCMP_ASSIGN_OR_RETURN(
        spec.drain_delay_seconds,
        IniDocument::GetDouble(section, "drain_delay",
                               spec.drain_delay_seconds));
    VCMP_ASSIGN_OR_RETURN(
        spec.overload_fraction,
        IniDocument::GetDouble(section, "overload_fraction",
                               spec.overload_fraction));
    VCMP_ASSIGN_OR_RETURN(spec.safety_fraction,
                          IniDocument::GetDouble(section, "safety",
                                                 spec.safety_fraction));
    VCMP_ASSIGN_OR_RETURN(spec.train_target,
                          IniDocument::GetDouble(section, "train_target",
                                                 spec.train_target));
    specs.push_back(std::move(spec));
  }
  if (specs.empty()) {
    return Status::InvalidArgument("the serving INI defines no scenario");
  }
  return specs;
}

Result<ServiceReport> RunServeScenario(const ServeSpec& spec,
                                       Tracer* tracer) {
  VCMP_ASSIGN_OR_RETURN(double fixed_units,
                        FixedPolicyUnits(spec.name, spec.policy));
  std::vector<TraceSegment> trace;
  if (!spec.trace.empty()) {
    VCMP_ASSIGN_OR_RETURN(trace, ParseTrace(spec.trace));
  }
  VCMP_ASSIGN_OR_RETURN(DatasetInfo info, FindDataset(spec.dataset));
  Dataset dataset = LoadDataset(info.id, spec.scale);
  VCMP_ASSIGN_OR_RETURN(ClusterSpec cluster, ResolveCluster(spec));
  SystemKind system = SystemKind::kPregelPlus;
  if (!SystemKindFromName(spec.system, &system)) {
    return Status::InvalidArgument("scenario '" + spec.name +
                                   "': unknown system '" + spec.system +
                                   "'");
  }
  // Validate the task name up front (the executor would also catch it,
  // but only at the first batch formation).
  VCMP_ASSIGN_OR_RETURN(std::unique_ptr<MultiTask> task,
                        MakeTask(spec.task));
  (void)task;

  RunnerOptions runner_options;
  runner_options.cluster = cluster;
  runner_options.system = system;
  runner_options.seed = spec.seed;
  runner_options.execution_threads = spec.threads;
  if (spec.job_overhead_seconds > 0.0) {
    runner_options.cost.batch_overhead_seconds = spec.job_overhead_seconds;
  }

  std::vector<ClientSpec> clients(spec.clients);
  for (uint32_t i = 0; i < spec.clients; ++i) {
    clients[i].name = StrFormat("client-%u", i);
    clients[i].task = spec.task;
    clients[i].units_per_query = spec.units_per_query;
    clients[i].rate_per_second = spec.rate_per_second;
    clients[i].trace = trace;
  }
  ArrivalOptions arrival_options;
  arrival_options.seed = spec.seed;
  arrival_options.horizon_seconds = spec.horizon_seconds;
  ArrivalProcess arrivals(std::move(clients), arrival_options);

  AdmissionOptions admission;
  admission.per_client_capacity = spec.per_client_capacity;
  admission.total_capacity = spec.total_capacity;

  std::unique_ptr<BatchPolicy> policy;
  if (fixed_units == 0.0) {
    // Section 5's training phase, run against the serving deployment.
    Trainer trainer(dataset, runner_options);
    VCMP_ASSIGN_OR_RETURN(
        std::vector<TrainingSample> samples,
        trainer.CollectSamples(*task, spec.train_target));
    VCMP_ASSIGN_OR_RETURN(MemoryModels models, FitMemoryModels(samples));
    DynamicBatcherOptions options;
    options.overload_fraction = spec.overload_fraction;
    options.machine_memory_bytes = cluster.machine.memory_bytes;
    options.safety_fraction = spec.safety_fraction;
    options.max_wait_seconds = spec.max_wait_seconds;
    policy = std::make_unique<DynamicBatcher>(models, options);
  } else {
    policy =
        std::make_unique<FixedBatcher>(fixed_units, spec.max_wait_seconds);
  }

  ServiceOptions service_options;
  service_options.horizon_seconds = spec.horizon_seconds;
  service_options.drain_delay_seconds = spec.drain_delay_seconds;
  service_options.tracer = tracer;
  service_options.trace_label = spec.name;

  BatchExecutor executor = MakeRunnerExecutor(dataset, runner_options);
  ServingLoop loop(arrivals, admission, *policy, executor,
                   service_options);
  VCMP_ASSIGN_OR_RETURN(ServiceReport report, loop.Run());
  report.dataset = dataset.info.name;
  report.system = SystemName(system);
  return report;
}

}  // namespace vcmp
