#ifndef VCMP_CORE_EXPERIMENT_SPEC_H_
#define VCMP_CORE_EXPERIMENT_SPEC_H_

#include <string>
#include <vector>

#include "common/ini.h"
#include "common/result.h"
#include "core/batch_schedule.h"
#include "core/runner.h"
#include "metrics/run_report.h"

namespace vcmp {

/// A declarative experiment: everything needed to run one simulated
/// multi-processing job, loadable from an INI file (configs/*.ini). This
/// is how saved experiment suites are replayed without recompiling:
///
///   [fig04-heavy]
///   dataset  = DBLP
///   task     = BPPR
///   system   = Pregel+
///   cluster  = galaxy        # galaxy | galaxy27 | docker
///   machines = 8             # optional override
///   workload = 12288
///   schedule = equal:4       # equal:K | twobatch:DELTA |
///                            # geometric:K,RATIO | tuned | search
///   scale    = 64            # optional stand-in scale override
///   seed     = 1
struct ExperimentSpec {
  std::string name;
  std::string dataset = "DBLP";
  std::string task = "BPPR";
  std::string system = "Pregel+";
  std::string cluster = "galaxy";
  uint32_t machines = 0;  // 0 = the cluster preset's count.
  double workload = 1024.0;
  std::string schedule = "equal:1";
  double scale = 0.0;  // 0 = dataset default.
  uint64_t seed = 1;
  uint32_t threads = 0;  // 0 = auto (hardware cores).
  /// Real out-of-core execution (src/ooc): hard per-machine memory
  /// budget with unit suffixes ("2.5GiB"); empty = off. Requires an
  /// out-of-core system such as GraphD.
  std::string memory_budget;
  /// Spill/state directory for the real out-of-core path; empty = a
  /// fresh temp directory per run.
  std::string ooc_dir;
};

/// Parses every section of an INI document into a spec (section name =
/// experiment name). Unknown keys are an error (typos must not silently
/// fall back to defaults).
Result<std::vector<ExperimentSpec>> ParseExperimentSpecs(
    const IniDocument& document);

/// Outcome of RunExperiment.
struct ExperimentResult {
  ExperimentSpec spec;
  BatchSchedule schedule;
  RunReport report;
};

/// Resolves the spec (dataset stand-in, cluster, system, task, schedule —
/// including `tuned` via the Section-5 tuner and `search` via the
/// batch-count search) and runs it. The report is the main run's alone:
/// tuner/search probe runs are exploration, not the experiment.
Result<ExperimentResult> RunExperiment(const ExperimentSpec& spec);

}  // namespace vcmp

#endif  // VCMP_CORE_EXPERIMENT_SPEC_H_
