#ifndef VCMP_METRICS_RUN_REPORT_H_
#define VCMP_METRICS_RUN_REPORT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "metrics/round_stats.h"
#include "ooc/ooc_options.h"

namespace vcmp {

/// Summary of one executed batch.
struct BatchReport {
  /// Position in the schedule, from 1; skipped zero-workload batches
  /// keep their numbers.
  uint64_t index = 0;
  double workload = 0.0;
  /// Simulated engine seconds; `seconds` adds the batch overhead.
  double engine_seconds = 0.0;
  double seconds = 0.0;
  bool overloaded = false;
  uint64_t rounds = 0;
  double messages = 0.0;           // Logical, paper scale.
  double peak_memory_bytes = 0.0;  // Max machine demand.
  double peak_residual_bytes = 0.0;
  double peak_buffered_bytes = 0.0;
  double network_overuse_seconds = 0.0;
  double disk_overuse_seconds = 0.0;
  /// Time-weighted disk utilisation of the batch.
  double disk_utilization = 0.0;
  bool disk_saturated = false;
  double max_io_queue_length = 0.0;
  /// Bytes spilled to disk over the batch (modeled, or measured when the
  /// real out-of-core path ran).
  double spilled_bytes = 0.0;
  /// The engine's per-round statistics, in round order.
  std::vector<RoundStats> round_stats;
  /// Mirrors of the broadcast routing plan; set only for mirror profiles.
  std::optional<uint64_t> mirrors;
  /// Measured I/O of the real out-of-core path; zeros unless ooc_active.
  OocRunStats ooc;
  bool ooc_active = false;
  /// Largest per-machine residual (paper scale) carried into the next
  /// batch; 0 when this batch stopped the run.
  double carryover_residual_bytes = 0.0;
};

/// Summary of a complete multi-processing run (all batches).
struct RunReport {
  std::string system;
  std::string dataset;
  std::string task;
  std::string cluster;
  double workload = 0.0;

  std::vector<BatchReport> batches;

  double total_seconds = 0.0;
  bool overloaded = false;
  uint64_t total_rounds = 0;
  double total_messages = 0.0;
  double peak_memory_bytes = 0.0;
  double peak_residual_bytes = 0.0;
  double peak_buffered_bytes = 0.0;
  double network_overuse_seconds = 0.0;
  double disk_overuse_seconds = 0.0;
  /// Time-weighted disk utilisation over all batches.
  double disk_utilization = 0.0;
  bool disk_saturated = false;
  double max_io_queue_length = 0.0;
  /// Bytes spilled to disk over the whole run.
  double spilled_bytes = 0.0;
  /// Cloud credits (only populated for cloud clusters).
  double monetary_cost = 0.0;

  /// Average logical messages per round — the paper's congestion measure.
  double MessagesPerRound() const {
    return total_rounds == 0 ? 0.0 : total_messages / total_rounds;
  }

  /// Folds one batch's report into the run totals and keeps it.
  void Absorb(BatchReport batch);

  /// One-line summary for logs.
  std::string ToString() const;
};

}  // namespace vcmp

#endif  // VCMP_METRICS_RUN_REPORT_H_
