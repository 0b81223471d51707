// vcmp_batch: replay a saved experiment suite from an INI config and
// print a result table (optionally exporting each run's report as JSON).
//
//   vcmp_batch --config=configs/fig04_workload_sweep.ini
//   vcmp_batch --config=suite.ini --json-dir=/tmp/results
//   vcmp_batch --config=suite.ini --concurrency=4 --trace-out=suite.trace

#include <atomic>
#include <cctype>
#include <deque>
#include <iostream>
#include <thread>

#include "common/flags.h"
#include "common/string_util.h"
#include "common/units.h"
#include "core/experiment_spec.h"
#include "graph/datasets.h"
#include "metrics/export.h"
#include "metrics/table_printer.h"
#include "obs/run_trace.h"
#include "obs/trace_sink.h"
#include "obs/tracer.h"
#include "tasks/task_registry.h"

namespace vcmp {
namespace {

/// Strict parse of --concurrency: the whole string must be a decimal
/// integer in [1, 1024]. atoll-style silent fallbacks to 0 would turn a
/// typo into a confusing "concurrency must be at least 1" rather than
/// naming the malformed value.
Result<uint32_t> ParseConcurrency(const std::string& text) {
  if (text.empty()) {
    return Status::InvalidArgument("--concurrency must not be empty");
  }
  for (char c : text) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      return Status::InvalidArgument("--concurrency expects a positive "
                                     "integer, got '" + text + "'");
    }
  }
  if (text.size() > 4) {
    return Status::InvalidArgument("--concurrency out of range (1..1024): '" +
                                   text + "'");
  }
  const long value = std::atol(text.c_str());
  if (value < 1 || value > 1024) {
    return Status::InvalidArgument("--concurrency out of range (1..1024): '" +
                                   text + "'");
  }
  return static_cast<uint32_t>(value);
}

int Main(int argc, char** argv) {
  FlagParser flags("vcmp_batch", "run an INI-defined experiment suite");
  flags.Define("config", "", "path to the experiment INI file (required)");
  flags.Define("json-dir", "",
               "write one <experiment>.json report per run to this "
               "directory");
  flags.Define("trace-out", "",
               "write one deterministic Chrome/Perfetto trace covering "
               "the whole suite to this path (one process per "
               "experiment; load in ui.perfetto.dev)");
  flags.Define("memory-budget", "",
               "suite-wide hard per-machine memory budget enabling real "
               "out-of-core execution (unit suffixes: 512MiB, 2.5GiB; "
               "overrides each spec's memory_budget key; requires "
               "out-of-core systems such as GraphD)");
  flags.Define("ooc-dir", "",
               "directory for out-of-core spill/state files (empty = a "
               "fresh temp directory per run)");
  flags.Define("concurrency", "1",
               "experiments in flight at once (1..1024). Every output — "
               "table, JSON reports, --trace-out bytes — is identical at "
               "every concurrency level; the trace is drawn from the "
               "reports in suite order");
  flags.Define("list-tasks", "false",
               "print the registered task names and exit");
  flags.Define("list-datasets", "false",
               "print the registered dataset names and exit");
  Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::cerr << parsed.ToString() << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.HelpText();
    return 0;
  }
  if (flags.GetBool("list-tasks")) {
    for (const std::string& name : RegisteredTaskNames()) {
      std::cout << name << "\n";
    }
    return 0;
  }
  if (flags.GetBool("list-datasets")) {
    for (const DatasetInfo& info : AllDatasets()) {
      std::cout << info.name << "\n";
    }
    return 0;
  }
  auto concurrency = ParseConcurrency(flags.GetString("concurrency"));
  if (!concurrency.ok()) {
    std::cerr << concurrency.status().ToString() << "\n";
    return 2;
  }
  if (flags.GetString("config").empty()) {
    std::cout << flags.HelpText();
    return 2;
  }

  auto document = IniDocument::Load(flags.GetString("config"));
  if (!document.ok()) {
    std::cerr << document.status().ToString() << "\n";
    return 1;
  }
  auto specs = ParseExperimentSpecs(document.value());
  if (!specs.ok()) {
    std::cerr << specs.status().ToString() << "\n";
    return 2;
  }
  if (!flags.GetString("memory-budget").empty()) {
    // Fail fast on a malformed size before any experiment runs; the
    // per-run feasibility floor is checked by the engine with the
    // machine layout in hand.
    auto budget = ParseByteSize(flags.GetString("memory-budget"));
    if (!budget.ok()) {
      std::cerr << budget.status().ToString() << "\n";
      return 2;
    }
    for (ExperimentSpec& spec : specs.value()) {
      spec.memory_budget = flags.GetString("memory-budget");
      spec.ooc_dir = flags.GetString("ooc-dir");
    }
  } else if (!flags.GetString("ooc-dir").empty()) {
    std::cerr << "--ooc-dir requires --memory-budget\n";
    return 2;
  }
  std::cout << "Running " << specs.value().size() << " experiments from "
            << flags.GetString("config") << "\n";

  const std::vector<ExperimentSpec>& suite = specs.value();

  struct ExperimentOutcome {
    Status status = Status::OK();
    ExperimentResult result;
    Status json_status = Status::OK();
  };
  std::deque<ExperimentOutcome> outcomes(suite.size());
  // Drivers take experiment indices from one shared counter, like
  // ConcurrentRunner's queries: each index is claimed by exactly one
  // driver, so the outcome slots need no locking. The first failure (in
  // any driver) stops every driver from STARTING another experiment —
  // the sequential loop's fail-fast, generalized. In-flight neighbors
  // still finish; their outputs are simply not reported.
  std::atomic<bool> failed{false};
  std::atomic<size_t> next{0};
  const std::string json_dir = flags.GetString("json-dir");
  const auto drive = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= suite.size()) break;
      ExperimentOutcome& outcome = outcomes[i];
      auto result = RunExperiment(suite[i]);
      if (!result.ok()) {
        outcome.status = result.status();
        failed.store(true, std::memory_order_relaxed);
        break;
      }
      outcome.result = std::move(result.value());
      if (!json_dir.empty()) {
        // Distinct files per experiment; safe from concurrent drivers.
        outcome.json_status = WriteRunReportJson(
            outcome.result.report, json_dir + "/" + suite[i].name + ".json");
        if (!outcome.json_status.ok()) {
          failed.store(true, std::memory_order_relaxed);
          break;
        }
      }
    }
  };
  const size_t driver_count =
      std::min<size_t>(concurrency.value(), suite.size());
  if (driver_count <= 1) {
    drive();
  } else {
    std::vector<std::thread> drivers(driver_count);
    for (std::thread& driver : drivers) driver = std::thread(drive);
    for (std::thread& driver : drivers) driver.join();
  }
  for (size_t i = 0; i < suite.size(); ++i) {
    if (!outcomes[i].status.ok()) {
      std::cerr << "experiment '" << suite[i].name
                << "' failed: " << outcomes[i].status.ToString() << "\n";
      return 1;
    }
    if (!outcomes[i].json_status.ok()) {
      std::cerr << outcomes[i].json_status.ToString() << "\n";
      return 1;
    }
  }

  TablePrinter table({"Experiment", "Setting", "Schedule", "Time",
                      "Peak mem", "Msgs/round"});
  for (size_t i = 0; i < suite.size(); ++i) {
    const ExperimentSpec& spec = suite[i];
    const RunReport& report = outcomes[i].result.report;
    table.AddRow({
        spec.name,
        StrFormat("%s/%s/%s W=%.0f", spec.task.c_str(),
                  spec.system.c_str(), spec.dataset.c_str(),
                  spec.workload),
        outcomes[i].result.schedule.ToString(),
        report.overloaded ? "Overload"
                          : StrFormat("%.1fs", report.total_seconds),
        StrFormat("%.1fGB", BytesToGiB(report.peak_memory_bytes)),
        FormatCount(report.MessagesPerRound()),
    });
  }
  table.Print(std::cout);
  if (!flags.GetString("trace-out").empty()) {
    // One trace for the suite, one process group per experiment, drawn
    // from the reports in spec order: the same bytes at every
    // concurrency level.
    Tracer tracer;
    for (size_t i = 0; i < suite.size(); ++i) {
      TraceRunReport(tracer, suite[i].name, outcomes[i].result.report);
    }
    Status written = WriteTraceJson(tracer, flags.GetString("trace-out"));
    if (!written.ok()) {
      std::cerr << written.ToString() << "\n";
      return 1;
    }
    std::cout << "wrote " << flags.GetString("trace-out") << " ("
              << tracer.events().size() << " trace events)\n";
  }
  return 0;
}

}  // namespace
}  // namespace vcmp

int main(int argc, char** argv) { return vcmp::Main(argc, argv); }
