// vcmp_serve: the online serving driver. Replays INI-defined serving
// scenarios — continuous query arrival, admission control, and online
// batch formation — and prints per-scenario latency/throughput tables.
//
//   vcmp_serve --config=configs/serve_steady_vs_burst.ini
//   vcmp_serve --config=serve.ini --json-dir=/tmp/results
//
// Each INI section is one scenario:
//
//   [burst-dynamic]
//   dataset  = DBLP
//   task     = BPPR
//   system   = Pregel+
//   cluster  = galaxy          # galaxy | galaxy27 | docker
//   machines = 8               # optional override
//   scale    = 64              # stand-in generation scale
//   seed     = 7
//   horizon  = 120             # arrival window (simulated seconds)
//   clients  = 4               # identical per-tenant streams
//   rate     = 2.0             # queries/second per client (steady)
//   trace    = 40x1,20x12,60x1 # optional DURxRATE segments (burst)
//   units    = 16              # workload units per query
//   policy   = dynamic         # dynamic | fixed:UNITS
//   max_wait = 2.0             # age trigger (anti-starvation deadline)
//   drain_delay = 4.0          # residual hold after batch completion
//   train_target = 4096        # tuner training target for `dynamic`
//
// The dynamic policy trains the paper's memory models on light workloads
// first (Section 5), then inverts them online against current free
// memory; fixed:UNITS is the k-batch mechanism applied online.

#include <iostream>

#include "common/flags.h"
#include "common/string_util.h"
#include "common/units.h"
#include "core/tuning/memory_fit.h"
#include "core/tuning/trainer.h"
#include "graph/datasets.h"
#include "metrics/service_report.h"
#include "metrics/table_printer.h"
#include "obs/trace_sink.h"
#include "obs/tracer.h"
#include "service/serve_spec.h"
#include "tasks/task_registry.h"

namespace vcmp {
namespace {

int Main(int argc, char** argv) {
  FlagParser flags("vcmp_serve",
                   "replay an INI-defined online-serving suite");
  flags.Define("config", "", "path to the serving INI file (required)");
  flags.Define("json-dir", "",
               "write one <scenario>.json service report per run to this "
               "directory");
  flags.Define("csv-dir", "",
               "write one <scenario>.csv per-query outcome file per run "
               "to this directory");
  flags.Define("trace-out", "",
               "write one deterministic Chrome/Perfetto lifecycle trace "
               "covering every scenario to this path (load in "
               "ui.perfetto.dev)");
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
  if (flags.GetString("config").empty()) {
    std::cout << flags.HelpText();
    return 2;
  }

  auto document = IniDocument::Load(flags.GetString("config"));
  if (!document.ok()) {
    std::cerr << document.status().ToString() << "\n";
    return 1;
  }
  auto specs = ParseServeSpecs(document.value());
  if (!specs.ok()) {
    std::cerr << specs.status().ToString() << "\n";
    return 2;
  }
  std::cout << "Serving " << specs.value().size() << " scenarios from "
            << flags.GetString("config") << "\n";

  // One shared tracer across the suite: each scenario becomes its own
  // process group (named by the spec) in the exported trace.
  Tracer tracer;
  Tracer* trace_ptr =
      flags.GetString("trace-out").empty() ? nullptr : &tracer;

  TablePrinter table({"Scenario", "Policy", "Done", "Shed", "p50", "p95",
                      "p99", "q/s", "Util", "Peak mem"});
  for (const ServeSpec& spec : specs.value()) {
    auto result = RunServeScenario(spec, trace_ptr);
    if (!result.ok()) {
      std::cerr << "scenario '" << spec.name
                << "' failed: " << result.status().ToString() << "\n";
      return 1;
    }
    const ServiceReport& report = result.value();
    table.AddRow({
        spec.name,
        report.policy + (report.memory_overload ? " OVERLOAD" : ""),
        StrFormat("%llu", (unsigned long long)report.completed),
        StrFormat("%llu", (unsigned long long)report.shed),
        StrFormat("%.2fs", report.p50_latency_seconds),
        StrFormat("%.2fs", report.p95_latency_seconds),
        StrFormat("%.2fs", report.p99_latency_seconds),
        StrFormat("%.2f", report.throughput_qps),
        StrFormat("%.0f%%", 100.0 * report.utilization),
        StrFormat("%.1fGB", BytesToGiB(report.peak_memory_bytes)),
    });
    if (!flags.GetString("json-dir").empty()) {
      std::string path =
          flags.GetString("json-dir") + "/" + spec.name + ".json";
      Status written = WriteServiceReportJson(report, path);
      if (!written.ok()) {
        std::cerr << written.ToString() << "\n";
        return 1;
      }
    }
    if (!flags.GetString("csv-dir").empty()) {
      std::string path =
          flags.GetString("csv-dir") + "/" + spec.name + ".csv";
      Status written = WriteQueryOutcomesCsv(report.queries, path);
      if (!written.ok()) {
        std::cerr << written.ToString() << "\n";
        return 1;
      }
    }
  }
  table.Print(std::cout);
  if (trace_ptr != nullptr) {
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
