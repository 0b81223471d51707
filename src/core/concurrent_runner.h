#ifndef VCMP_CORE_CONCURRENT_RUNNER_H_
#define VCMP_CORE_CONCURRENT_RUNNER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/batch_schedule.h"
#include "core/runner.h"
#include "graph/datasets.h"
#include "graph/partition.h"
#include "metrics/run_report.h"
#include "tasks/task.h"

namespace vcmp {

/// One query of a concurrent multi-query run: a multi-task workload plus
/// the batch schedule to execute it under.
struct ConcurrentQuery {
  /// Must outlive the Run call.
  const MultiTask* task = nullptr;
  BatchSchedule schedule;
};

/// Configuration of a concurrent multi-query run.
struct ConcurrentRunnerOptions {
  /// Template for every query's MultiProcessingRunner: cluster, system,
  /// cost, seed, threads, out-of-core settings. Per-query fields
  /// (query_id, pool, shared_partition, ooc directory/budget) are
  /// overwritten by the concurrent runner; the per-batch observer hooks
  /// must be unset (they would otherwise run on several driver threads
  /// at once).
  RunnerOptions base;

  /// Queries in flight at once (K): K driver threads take query indices
  /// from one shared counter, and a driver that finds none left lends
  /// its thread to the shared pool until the last query finished. Which
  /// queries overlap therefore depends on timing; what each computes
  /// does not. 1 executes the queries back to back (the historical
  /// serial behavior).
  uint32_t concurrency = 1;
};

/// Per-query outcome: a failed query (bad spec, infeasible budget) does
/// not poison its neighbors — each query carries its own status.
struct QueryOutcome {
  Status status = Status::OK();
  /// Valid only when status.ok().
  RunReport report;
};

/// Aggregate of one concurrent run.
struct ConcurrentRunReport {
  /// Indexed by query; identical at every concurrency and thread count.
  std::vector<QueryOutcome> queries;
  /// Sum of the queries' simulated seconds (deterministic).
  double total_simulated_seconds = 0.0;
  /// Max per-query simulated seconds (deterministic).
  double max_simulated_seconds = 0.0;
  uint64_t queries_failed = 0;
  bool any_overloaded = false;
  /// Measured wall seconds of the whole Run call — the only
  /// non-deterministic field (benchmarks read it; golden tests must
  /// not).
  double wall_seconds = 0.0;
};

/// Executes K queries at a time over shared immutable graph state.
///
/// All queries run against one graph, one partition (computed once in the
/// constructor — it depends only on graph/profile/cluster) and one
/// ThreadPool, which idle drivers lend their threads to; everything a
/// query mutates lives in its own MultiProcessingRunner, QueryContext
/// arenas and spill directory.
/// Per-query results are bit-identical to running the same query alone:
/// each is a pure function of (task, schedule, base seed, query id), and
/// the query id namespaces every seed derivation (DESIGN.md section 14).
/// A caller that wants a trace draws it from the reports
/// (obs/run_trace.h), in query order.
class ConcurrentRunner {
 public:
  /// `dataset` must outlive the runner.
  ConcurrentRunner(const Dataset& dataset, ConcurrentRunnerOptions options);

  ConcurrentRunner(const ConcurrentRunner&) = delete;
  ConcurrentRunner& operator=(const ConcurrentRunner&) = delete;

  /// Runs every query, K in flight. Returns InvalidArgument for a
  /// malformed configuration (concurrency 0, no queries, null task,
  /// preset per-query fields); individual query failures land in their
  /// QueryOutcome instead.
  Result<ConcurrentRunReport> Run(
      const std::vector<ConcurrentQuery>& queries);

  const SystemProfile& profile() const { return profile_; }
  const Partitioning& partition() const { return partition_; }

 private:
  const Dataset& dataset_;
  ConcurrentRunnerOptions options_;
  SystemProfile profile_;
  Partitioning partition_;
};

}  // namespace vcmp

#endif  // VCMP_CORE_CONCURRENT_RUNNER_H_
