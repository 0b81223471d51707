#ifndef VCMP_BENCH_BENCH_UTIL_H_
#define VCMP_BENCH_BENCH_UTIL_H_

#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/batch_schedule.h"
#include "core/runner.h"
#include "graph/datasets.h"
#include "metrics/table_printer.h"
#include "tasks/task_registry.h"

namespace vcmp {
namespace bench {

/// Generation scales for bench runs. The simulator reports paper-scale
/// statistics regardless of the stand-in's generation scale (see
/// datasets.h); these values keep every bench binary under ~2 minutes.
inline double BenchScale(DatasetId id) {
  switch (id) {
    case DatasetId::kWebSt:
      return 32.0;
    case DatasetId::kDblp:
      return 64.0;
    case DatasetId::kLiveJournal:
      return 256.0;
    case DatasetId::kOrkut:
      return 512.0;
    case DatasetId::kTwitter:
      return 2048.0;
    case DatasetId::kFriendster:
      return 2048.0;
  }
  return 64.0;
}

/// Cache of generated stand-ins (several benches sweep one dataset many
/// times). `scale_override` > 0 replaces the bench default — the GraphLab
/// panels of Figures 3(d) and 5(d) run their counting BPPR on a coarser
/// stand-in (scale 512).
inline const Dataset& CachedDataset(DatasetId id,
                                    double scale_override = 0.0) {
  double scale = scale_override > 0.0 ? scale_override : BenchScale(id);
  static auto& cache = *new std::map<std::pair<DatasetId, double>, Dataset>();
  auto key = std::make_pair(id, scale);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, LoadDataset(id, scale)).first;
  }
  return it->second;
}

/// One experimental setting in a figure panel, e.g.
/// "(Workload,#Machines,System)=(10240,8,Pregel+)".
struct PanelSetting {
  std::string label;
  DatasetId dataset = DatasetId::kDblp;
  ClusterSpec cluster = ClusterSpec::Galaxy8();
  SystemKind system = SystemKind::kPregelPlus;
  std::string task = "BPPR";
  double workload = 1024.0;
  /// Optional generation-scale override (0 = bench default).
  double scale_override = 0.0;
};

/// Runs one setting under a schedule and returns the report (CHECK-fails
/// on configuration errors: benches are not user-input surfaces).
inline RunReport RunSetting(const PanelSetting& setting,
                            const BatchSchedule& schedule) {
  const Dataset& dataset =
      CachedDataset(setting.dataset, setting.scale_override);
  RunnerOptions options;
  options.cluster = setting.cluster;
  options.system = setting.system;
  options.execution_threads = 6;  // Thread-count invariant (see engine).
  MultiProcessingRunner runner(dataset, options);
  auto task = MakeTask(setting.task);
  VCMP_CHECK(task.ok()) << task.status().ToString();
  auto report = runner.Run(*task.value(), schedule);
  VCMP_CHECK(report.ok()) << report.status().ToString();
  return std::move(report).value();
}

/// Renders a run's wall-clock the way the paper's figures do.
inline std::string TimeCell(const RunReport& report) {
  if (report.overloaded) return "Overload";
  return StrFormat("%.1fs", report.total_seconds);
}

/// Prints one figure panel: rows = settings, columns = batch counts, cells
/// = running time; the best batch count per row is marked with '*' (the
/// paper's yellow arrows).
inline void PrintBatchSweepPanel(const std::string& title,
                                 const std::vector<PanelSetting>& settings,
                                 const std::vector<uint32_t>& batch_counts) {
  PrintBanner(std::cout, title);
  std::vector<std::string> headers = {"(Workload,#Machines,...)"};
  for (uint32_t batches : batch_counts) {
    headers.push_back(StrFormat("%u-batch", batches));
  }
  TablePrinter table(std::move(headers));
  for (const PanelSetting& setting : settings) {
    std::vector<RunReport> reports;
    reports.reserve(batch_counts.size());
    size_t best = 0;
    for (size_t i = 0; i < batch_counts.size(); ++i) {
      reports.push_back(RunSetting(
          setting,
          BatchSchedule::Equal(setting.workload, batch_counts[i])));
      bool better =
          !reports[i].overloaded &&
          (reports[best].overloaded ||
           reports[i].total_seconds < reports[best].total_seconds);
      if (better) best = i;
    }
    std::vector<std::string> row = {setting.label};
    for (size_t i = 0; i < batch_counts.size(); ++i) {
      row.push_back(TimeCell(reports[i]) + (i == best ? " *" : ""));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
}

/// The doubling batch counts the paper sweeps.
inline std::vector<uint32_t> DoublingBatches() { return {1, 2, 4, 8, 16}; }

}  // namespace bench
}  // namespace vcmp

#endif  // VCMP_BENCH_BENCH_UTIL_H_
