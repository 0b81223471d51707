// vcmp_sim: the command-line driver for the simulator. Runs any
// (system, dataset, task, cluster, schedule) combination, optionally
// auto-tunes the batch schedule (Section 5) or searches the batch count,
// and can export reports as JSON and per-round statistics as CSV.
//
//   vcmp_sim --dataset=DBLP --task=BPPR --system="Pregel+" --machines=8
//            --cluster=galaxy --workload=10240 --batches=2
//   vcmp_sim --workload=5120 --machines=4 --tune
//   vcmp_sim --workload=12288 --search --chart
//   vcmp_sim --workload=2048 --batches=4 --json=report.json

#include <iostream>

#include "common/flags.h"
#include "common/string_util.h"
#include "common/units.h"
#include "core/batch_search.h"
#include "core/runner.h"
#include "core/tuning/tuner.h"
#include "engine/sync_engine.h"
#include "graph/datasets.h"
#include "metrics/ascii_chart.h"
#include "metrics/export.h"
#include "obs/trace_sink.h"
#include "obs/tracer.h"
#include "sim/monetary_model.h"
#include "tasks/task_registry.h"

namespace vcmp {
namespace {

Result<ClusterSpec> MakeCluster(const std::string& name,
                                int64_t machines) {
  ClusterSpec spec;
  if (name == "galaxy") {
    spec = ClusterSpec::Galaxy8();
  } else if (name == "galaxy27") {
    spec = ClusterSpec::Galaxy27();
  } else if (name == "docker") {
    spec = ClusterSpec::Docker32();
  } else {
    return Status::InvalidArgument(
        "unknown cluster '" + name + "' (galaxy | galaxy27 | docker)");
  }
  if (machines > 0) {
    spec = spec.WithMachines(static_cast<uint32_t>(machines));
  }
  return spec;
}

void PrintReport(const RunReport& report, const BatchSchedule& schedule) {
  std::cout << "\n" << report.ToString() << "\n";
  std::cout << StrFormat(
      "  schedule: %s\n  peak memory/machine: %.2fGB  residual: %.2fGB\n",
      schedule.ToString().c_str(), BytesToGiB(report.peak_memory_bytes),
      BytesToGiB(report.peak_residual_bytes));
  if (report.disk_utilization > 0.0) {
    std::cout << StrFormat("  disk utilisation: %.0f%%%s\n",
                           100.0 * report.disk_utilization,
                           report.disk_saturated ? " (saturated)" : "");
  }
  if (report.spilled_bytes > 0.0) {
    std::cout << StrFormat("  spilled to disk: %.2fGB\n",
                           BytesToGiB(report.spilled_bytes));
  }
  if (report.monetary_cost > 0.0) {
    std::cout << "  cloud cost: "
              << MonetaryModel::Format(report.monetary_cost,
                                       report.overloaded)
              << "\n";
  }
}

int Main(int argc, char** argv) {
  FlagParser flags("vcmp_sim",
                   "simulate multi-task processing on a VC-system");
  flags.Define("dataset", "DBLP",
               "Web-St | DBLP | LiveJournal | Orkut | Twitter | Friendster");
  flags.Define("task", "BPPR", "BPPR | MSSP | BKHS | PageRank");
  flags.Define("system", "Pregel+",
               "Giraph | Giraph(async) | Pregel+ | Pregel+(mirror) | "
               "GraphD | GraphLab");
  flags.Define("cluster", "galaxy", "galaxy | galaxy27 | docker");
  flags.Define("machines", "0", "override the cluster's machine count");
  flags.Define("workload", "1024", "total workload W");
  flags.Define("batches", "1", "equal-batch count (the k-batch scheme)");
  flags.Define("delta", "0",
               "two-batch mode with W1 - W2 = delta (overrides --batches)");
  flags.Define("tune", "false",
               "learn the batch schedule with the Section-5 tuner");
  flags.Define("search", "false",
               "search the optimal batch count by simulation");
  flags.Define("scale", "0",
               "dataset generation scale override (0 = default)");
  flags.Define("seed", "1", "simulation seed");
  flags.Define("threads", "0",
               "engine threads (0 = one per hardware core; results are "
               "identical for any value)");
  flags.Define("memory-budget", "",
               "hard per-machine memory budget enabling real out-of-core "
               "execution (unit suffixes: 512MiB, 2.5GiB; requires an "
               "out-of-core system such as GraphD; empty = off)");
  flags.Define("ooc-dir", "",
               "directory for out-of-core spill/state files (empty = a "
               "fresh temp directory, removed on exit)");
  flags.Define("chart", "false", "render an ASCII chart of the sweep");
  flags.Define("json", "", "write the run report as JSON to this path");
  flags.Define("csv", "",
               "write per-round statistics as CSV to this path "
               "(single-schedule runs only)");
  flags.Define("trace-out", "",
               "write a deterministic Chrome/Perfetto trace of the run "
               "to this path (load in ui.perfetto.dev)");
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

  // Validate every name before the (comparatively expensive) stand-in
  // generation so typos fail fast with the registry's Status message.
  auto info = FindDataset(flags.GetString("dataset"));
  if (!info.ok()) {
    std::cerr << info.status().ToString() << "\n";
    return 2;
  }
  auto task = MakeTask(flags.GetString("task"));
  if (!task.ok()) {
    std::cerr << task.status().ToString() << "\n";
    return 2;
  }
  auto cluster =
      MakeCluster(flags.GetString("cluster"), flags.GetInt("machines"));
  if (!cluster.ok()) {
    std::cerr << cluster.status().ToString() << "\n";
    return 2;
  }
  SystemKind system = SystemKind::kPregelPlus;
  if (!SystemKindFromName(flags.GetString("system"), &system)) {
    std::cerr << "unknown system '" << flags.GetString("system") << "'\n";
    return 2;
  }
  Dataset dataset =
      LoadDataset(info.value().id, flags.GetDouble("scale"));
  std::cout << "Dataset: " << dataset.info.name << " stand-in "
            << dataset.graph.ToString() << " (scale " << dataset.scale
            << ")\n";

  RunnerOptions options;
  options.cluster = cluster.value();
  options.system = system;
  options.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  options.execution_threads =
      static_cast<uint32_t>(flags.GetInt("threads"));
  if (!flags.GetString("memory-budget").empty()) {
    auto budget = ParseByteSize(flags.GetString("memory-budget"));
    if (!budget.ok()) {
      std::cerr << budget.status().ToString() << "\n";
      return 2;
    }
    options.ooc.enabled = true;
    options.ooc.memory_budget_bytes = budget.value();
    options.ooc.directory = flags.GetString("ooc-dir");
  } else if (!flags.GetString("ooc-dir").empty()) {
    std::cerr << "--ooc-dir requires --memory-budget\n";
    return 2;
  }
  const double workload = flags.GetDouble("workload");
  std::cout << "Cluster: " << options.cluster.ToString() << ", system "
            << SystemName(system) << ", task "
            << flags.GetString("task") << ", workload "
            << StrFormat("%.0f", workload) << "\n";

  if (flags.GetBool("search")) {
    auto search = FindOptimalBatchCount(dataset, options, *task.value(),
                                        workload);
    if (!search.ok()) {
      std::cerr << search.status().ToString() << "\n";
      return 1;
    }
    std::vector<ChartBar> bars;
    for (const BatchProbe& probe : search.value().probes) {
      bars.push_back({StrFormat("%u-batch", probe.batches), probe.seconds,
                      probe.overloaded,
                      probe.batches == search.value().best_batches});
    }
    if (flags.GetBool("chart")) {
      std::cout << "\n" << RenderBarChart(bars);
    } else {
      for (const ChartBar& bar : bars) {
        std::cout << "  " << bar.label << ": "
                  << (bar.saturated ? "Overload"
                                    : StrFormat("%.1fs", bar.value))
                  << (bar.highlight ? "  <== optimal" : "") << "\n";
      }
    }
    std::cout << StrFormat("Optimal batch count: %u (%.1fs)\n",
                           search.value().best_batches,
                           search.value().best_seconds);
    return 0;
  }

  BatchSchedule schedule;
  if (flags.GetBool("tune")) {
    Tuner tuner(dataset, options);
    auto plan = tuner.Tune(*task.value(), workload);
    if (!plan.ok()) {
      std::cerr << "tuning failed: " << plan.status().ToString() << "\n";
      return 1;
    }
    std::cout << "Fitted models: " << plan.value().models.ToString()
              << "\nLearned schedule: "
              << plan.value().schedule.ToString() << "\n";
    schedule = plan.value().schedule;
  } else if (flags.IsSet("delta")) {
    schedule = BatchSchedule::TwoBatch(workload, flags.GetDouble("delta"));
  } else {
    schedule = BatchSchedule::Equal(
        workload, static_cast<uint32_t>(flags.GetInt("batches")));
  }

  // The tracer attaches only to the final run: --tune/--search probes
  // above are exploration and stay untraced.
  Tracer tracer;
  if (!flags.GetString("trace-out").empty()) {
    options.tracer = &tracer;
    options.trace_label = "run";
  }

  MultiProcessingRunner runner(dataset, options);
  auto report = runner.Run(*task.value(), schedule);
  if (!report.ok()) {
    std::cerr << report.status().ToString() << "\n";
    return 1;
  }
  PrintReport(report.value(), schedule);

  if (!flags.GetString("trace-out").empty()) {
    Status written = WriteTraceJson(tracer, flags.GetString("trace-out"));
    if (!written.ok()) {
      std::cerr << written.ToString() << "\n";
      return 1;
    }
    std::cout << "wrote " << flags.GetString("trace-out") << " ("
              << tracer.events().size() << " trace events)\n";
  }

  if (!flags.GetString("json").empty()) {
    Status written =
        WriteRunReportJson(report.value(), flags.GetString("json"));
    if (!written.ok()) {
      std::cerr << written.ToString() << "\n";
      return 1;
    }
    std::cout << "wrote " << flags.GetString("json") << "\n";
  }
  if (!flags.GetString("csv").empty()) {
    // Re-run the first batch through the engine to capture round stats
    // (the runner aggregates; the engine keeps the full trace).
    TaskContext context{&dataset.graph, &runner.partition(), dataset.scale,
                        runner.profile().combines_messages};
    auto program = task.value()->MakeProgram(
        context,
        runner.profile().mirroring ? ProgramFlavor::kBroadcast
                                   : ProgramFlavor::kPointToPoint,
        schedule.workloads().front(), options.seed);
    if (program.ok()) {
      EngineOptions engine_options;
      engine_options.cluster = options.cluster;
      engine_options.profile = runner.profile();
      engine_options.stat_scale = dataset.scale;
      engine_options.ooc = options.ooc;
      SyncEngine engine(dataset.graph, runner.partition(), engine_options);
      auto result = engine.Run(*program.value());
      if (result.ok()) {
        Status written = WriteRoundStatsCsv(result.value().rounds,
                                            flags.GetString("csv"));
        if (!written.ok()) {
          std::cerr << written.ToString() << "\n";
          return 1;
        }
        std::cout << "wrote " << flags.GetString("csv") << " ("
                  << result.value().rounds.size() << " rounds)\n";
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace vcmp

int main(int argc, char** argv) { return vcmp::Main(argc, argv); }
