#ifndef VCMP_SERVICE_SERVE_SPEC_H_
#define VCMP_SERVICE_SERVE_SPEC_H_

#include <string>
#include <vector>

#include "common/ini.h"
#include "common/result.h"
#include "metrics/service_report.h"

namespace vcmp {

class Tracer;

/// A declarative serving scenario, loadable from an INI section (see
/// tools/vcmp_serve.cc for the key reference). One section = one serving
/// run: an arrival trace, an admission policy, a batching policy, and
/// the simulated deployment it executes on.
struct ServeSpec {
  std::string name;
  std::string dataset = "DBLP";
  std::string task = "BPPR";
  std::string system = "Pregel+";
  std::string cluster = "galaxy";
  uint32_t machines = 0;  // 0 = the cluster preset's count.
  double scale = 0.0;     // 0 = dataset default.
  uint64_t seed = 7;
  uint32_t threads = 0;  // 0 = auto.

  /// Arrival side.
  double horizon_seconds = 60.0;
  uint32_t clients = 4;
  double rate_per_second = 1.0;
  /// "DURxRATE,DURxRATE,..." piecewise trace (empty = steady Poisson).
  std::string trace;
  double units_per_query = 1.0;

  /// Admission side.
  size_t per_client_capacity = 1024;
  size_t total_capacity = 4096;

  /// Per-job dispatch + result-collection overhead, simulated seconds
  /// (overrides the cost model's batch_overhead_seconds when > 0). In
  /// serving every formed batch is one submitted job, so this is the
  /// fixed cost batching amortises.
  double job_overhead_seconds = 0.0;

  /// Batching side: "dynamic" or "fixed:UNITS".
  std::string policy = "dynamic";
  double max_wait_seconds = 2.0;
  double drain_delay_seconds = 4.0;
  double overload_fraction = 0.85;
  double safety_fraction = 0.05;
  /// Training target workload for the dynamic policy's memory models.
  double train_target = 4096.0;
};

/// Parses every section of an INI document into a ServeSpec (section name
/// = scenario name). Unknown keys are an error, and so is a value outside
/// its domain (horizon and units > 0, rates >= 0, fixed:UNITS > 0): the
/// InvalidArgument names the scenario and the key.
Result<std::vector<ServeSpec>> ParseServeSpecs(const IniDocument& document);

/// Parses "40x1,20x12,60x1" into trace segments: each DURATION a finite
/// number > 0, each RATE a finite number >= 0.
Result<std::vector<struct TraceSegment>> ParseTrace(
    const std::string& trace);

/// Resolves and runs one scenario end to end: loads the dataset
/// stand-in, fits the memory models when the policy needs them (training
/// runs on the same deployment, as in Section 5), builds the arrival
/// process + admission queue + policy, and drives the serving loop.
/// When `tracer` is set, the serving loop records the query lifecycle
/// under the scenario's name (the dynamic policy's training probe runs
/// stay untraced — they are calibration, not the scenario).
Result<ServiceReport> RunServeScenario(const ServeSpec& spec,
                                       Tracer* tracer = nullptr);

}  // namespace vcmp

#endif  // VCMP_SERVICE_SERVE_SPEC_H_
