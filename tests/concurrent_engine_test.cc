// Concurrent multi-query execution (DESIGN.md section 14): K queries in
// flight over shared immutable graph state must produce per-query
// results bit-identical to running each query alone — at every
// (concurrency, thread-count) combination, for randomized query mixes,
// with per-query accounting that reconciles exactly, and with the real
// out-of-core path under a shared budget. Also the re-entrancy
// regression suite: engines are reused across batches and Run calls via
// a QueryContext, so stale-pointer/stale-scratch bugs show up here (and
// as races under the CI TSan job).

#include "core/concurrent_runner.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/batch_schedule.h"
#include "core/runner.h"
#include "obs/run_trace.h"
#include "obs/trace_sink.h"
#include "obs/tracer.h"
#include "tasks/task_registry.h"
#include "test_util.h"

namespace vcmp {
namespace {

using testing_util::RelaxedCluster;

Dataset TinyDataset() {
  // DBLP stand-in at aggressive scale: ~1.2K vertices, fast to run.
  return LoadDataset(DatasetId::kDblp, /*scale_override=*/512.0);
}

RunnerOptions BaseOptions(uint32_t threads) {
  RunnerOptions base;
  base.cluster = RelaxedCluster(4);
  base.system = SystemKind::kPregelPlus;
  base.seed = 7;
  base.execution_threads = threads;
  return base;
}

/// A seeded random query mix: each query draws its task, batch count and
/// workload from the mix seed, so one integer names an arbitrarily
/// shaped multi-query workload.
struct QueryMix {
  std::vector<std::unique_ptr<MultiTask>> tasks;
  std::vector<ConcurrentQuery> queries;
};

QueryMix MakeMix(uint64_t mix_seed, size_t count) {
  QueryMix mix;
  Rng rng(mix_seed);
  const std::vector<std::string>& names = BenchmarkTaskNames();
  for (size_t i = 0; i < count; ++i) {
    auto task = MakeTask(names[rng.NextBounded(names.size())]);
    EXPECT_TRUE(task.ok());
    const double workload = 64.0 + 64.0 * rng.NextBounded(3);
    const uint32_t batches = 1 + static_cast<uint32_t>(rng.NextBounded(3));
    mix.tasks.push_back(std::move(task.value()));
    ConcurrentQuery query;
    query.task = mix.tasks.back().get();
    query.schedule = BatchSchedule::Equal(workload, batches);
    mix.queries.push_back(std::move(query));
  }
  return mix;
}

/// Exact (bitwise, not tolerance) equality of every report field — the
/// determinism contract is bit-identity, so EXPECT_EQ on doubles is the
/// point, not an oversight.
void ExpectBatchEq(const BatchReport& a, const BatchReport& b,
                   const std::string& where) {
  EXPECT_EQ(a.workload, b.workload) << where;
  EXPECT_EQ(a.seconds, b.seconds) << where;
  EXPECT_EQ(a.overloaded, b.overloaded) << where;
  EXPECT_EQ(a.rounds, b.rounds) << where;
  EXPECT_EQ(a.messages, b.messages) << where;
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes) << where;
  EXPECT_EQ(a.peak_residual_bytes, b.peak_residual_bytes) << where;
  EXPECT_EQ(a.peak_buffered_bytes, b.peak_buffered_bytes) << where;
  EXPECT_EQ(a.network_overuse_seconds, b.network_overuse_seconds) << where;
  EXPECT_EQ(a.disk_overuse_seconds, b.disk_overuse_seconds) << where;
  EXPECT_EQ(a.disk_utilization, b.disk_utilization) << where;
  EXPECT_EQ(a.disk_saturated, b.disk_saturated) << where;
  EXPECT_EQ(a.max_io_queue_length, b.max_io_queue_length) << where;
  EXPECT_EQ(a.spilled_bytes, b.spilled_bytes) << where;
}

void ExpectReportEq(const RunReport& a, const RunReport& b,
                    const std::string& where) {
  EXPECT_EQ(a.system, b.system) << where;
  EXPECT_EQ(a.dataset, b.dataset) << where;
  EXPECT_EQ(a.task, b.task) << where;
  EXPECT_EQ(a.cluster, b.cluster) << where;
  EXPECT_EQ(a.workload, b.workload) << where;
  ASSERT_EQ(a.batches.size(), b.batches.size()) << where;
  for (size_t i = 0; i < a.batches.size(); ++i) {
    ExpectBatchEq(a.batches[i], b.batches[i],
                  where + " batch " + std::to_string(i));
  }
  EXPECT_EQ(a.total_seconds, b.total_seconds) << where;
  EXPECT_EQ(a.overloaded, b.overloaded) << where;
  EXPECT_EQ(a.total_rounds, b.total_rounds) << where;
  EXPECT_EQ(a.total_messages, b.total_messages) << where;
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes) << where;
  EXPECT_EQ(a.peak_residual_bytes, b.peak_residual_bytes) << where;
  EXPECT_EQ(a.peak_buffered_bytes, b.peak_buffered_bytes) << where;
  EXPECT_EQ(a.network_overuse_seconds, b.network_overuse_seconds) << where;
  EXPECT_EQ(a.disk_overuse_seconds, b.disk_overuse_seconds) << where;
  EXPECT_EQ(a.disk_utilization, b.disk_utilization) << where;
  EXPECT_EQ(a.disk_saturated, b.disk_saturated) << where;
  EXPECT_EQ(a.max_io_queue_length, b.max_io_queue_length) << where;
  EXPECT_EQ(a.spilled_bytes, b.spilled_bytes) << where;
  EXPECT_EQ(a.monetary_cost, b.monetary_cost) << where;
}

/// Runs the queries; with a tracer, traces the reports in query order
/// as "q<i>".
ConcurrentRunReport MustRun(const Dataset& dataset,
                            const std::vector<ConcurrentQuery>& queries,
                            uint32_t concurrency, uint32_t threads,
                            Tracer* tracer = nullptr) {
  ConcurrentRunnerOptions options;
  options.base = BaseOptions(threads);
  options.concurrency = concurrency;
  ConcurrentRunner runner(dataset, options);
  auto report = runner.Run(queries);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (tracer != nullptr) {
    for (size_t i = 0; i < report.value().queries.size(); ++i) {
      TraceRunReport(*tracer, StrFormat("q%zu", i),
                     report.value().queries[i].report);
    }
  }
  return std::move(report.value());
}

// The tentpole property: for seeded random query mixes, every
// (concurrency, threads) combination reproduces the serial
// single-threaded baseline bit for bit, query by query.
TEST(ConcurrentEngineTest, ConcurrencyAndThreadsPreserveBitIdentity) {
  Dataset dataset = TinyDataset();
  for (uint64_t mix_seed : {101u, 202u}) {
    QueryMix mix = MakeMix(mix_seed, 5);
    ConcurrentRunReport baseline = MustRun(dataset, mix.queries, 1, 1);
    ASSERT_EQ(baseline.queries.size(), mix.queries.size());
    EXPECT_EQ(baseline.queries_failed, 0u);
    for (uint32_t concurrency : {1u, 2u, 4u}) {
      for (uint32_t threads : {1u, 2u, 8u}) {
        if (concurrency == 1 && threads == 1) continue;
        ConcurrentRunReport run =
            MustRun(dataset, mix.queries, concurrency, threads);
        ASSERT_EQ(run.queries.size(), baseline.queries.size());
        const std::string combo = "mix " + std::to_string(mix_seed) +
                                  " K=" + std::to_string(concurrency) +
                                  " T=" + std::to_string(threads);
        for (size_t q = 0; q < run.queries.size(); ++q) {
          ASSERT_TRUE(run.queries[q].status.ok()) << combo;
          ExpectReportEq(run.queries[q].report, baseline.queries[q].report,
                         combo + " query " + std::to_string(q));
        }
        EXPECT_EQ(run.total_simulated_seconds,
                  baseline.total_simulated_seconds)
            << combo;
        EXPECT_EQ(run.max_simulated_seconds, baseline.max_simulated_seconds)
            << combo;
      }
    }
  }
}

// Decomposition: a query inside a concurrent run equals the same query
// run alone through a plain MultiProcessingRunner with the matching
// query id — the shared pool, shared partition and neighbor queries are
// invisible.
TEST(ConcurrentEngineTest, ConcurrentQueriesMatchStandaloneRuns) {
  Dataset dataset = TinyDataset();
  QueryMix mix = MakeMix(303, 4);
  ConcurrentRunReport run = MustRun(dataset, mix.queries, 4, 2);
  for (size_t q = 0; q < mix.queries.size(); ++q) {
    RunnerOptions standalone = BaseOptions(2);
    standalone.query_id = q;
    MultiProcessingRunner runner(dataset, standalone);
    auto alone =
        runner.Run(*mix.queries[q].task, mix.queries[q].schedule);
    ASSERT_TRUE(alone.ok()) << alone.status().ToString();
    ASSERT_TRUE(run.queries[q].status.ok());
    ExpectReportEq(run.queries[q].report, alone.value(),
                   "standalone query " + std::to_string(q));
  }
}

// Work conservation: with the longest query first, the other drivers
// drain the five short ones and then lend their threads to it. Lending
// moves threads, never bits: each report equals its query run alone.
TEST(ConcurrentEngineTest, LongQueryFirstMatchesStandaloneRuns) {
  Dataset dataset = TinyDataset();
  std::vector<std::unique_ptr<MultiTask>> tasks;
  std::vector<ConcurrentQuery> queries;
  const auto add_query = [&](const std::string& name, double workload,
                             uint32_t batches) {
    auto task = MakeTask(name);
    ASSERT_TRUE(task.ok());
    tasks.push_back(std::move(task.value()));
    ConcurrentQuery query;
    query.task = tasks.back().get();
    query.schedule = BatchSchedule::Equal(workload, batches);
    queries.push_back(std::move(query));
  };
  add_query("MSSP", 256, 4);
  for (const char* name : {"BKHS", "BPPR", "MSSP", "BKHS", "BPPR"}) {
    add_query(name, 64, 1);
  }
  std::vector<RunReport> alone;
  for (size_t q = 0; q < queries.size(); ++q) {
    RunnerOptions standalone = BaseOptions(1);
    standalone.query_id = q;
    MultiProcessingRunner runner(dataset, standalone);
    auto report = runner.Run(*queries[q].task, queries[q].schedule);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    alone.push_back(std::move(report.value()));
  }
  for (uint32_t concurrency : {2u, 3u}) {
    for (uint32_t threads : {1u, 4u}) {
      const std::string combo = "K=" + std::to_string(concurrency) +
                                " T=" + std::to_string(threads);
      ConcurrentRunReport run =
          MustRun(dataset, queries, concurrency, threads);
      ASSERT_EQ(run.queries.size(), queries.size()) << combo;
      EXPECT_EQ(run.queries_failed, 0u) << combo;
      for (size_t q = 0; q < queries.size(); ++q) {
        ASSERT_TRUE(run.queries[q].status.ok()) << combo;
        ExpectReportEq(run.queries[q].report, alone[q],
                       combo + " query " + std::to_string(q));
      }
    }
  }
}

// The query id namespaces every random stream: two queries with the same
// task, schedule and base seed draw decorrelated walks, while query 0
// reproduces the historical single-query run exactly.
TEST(ConcurrentEngineTest, QueryIdNamespacesRandomStreams) {
  Dataset dataset = TinyDataset();
  auto task = MakeTask("BPPR");
  ASSERT_TRUE(task.ok());
  BatchSchedule schedule = BatchSchedule::Equal(128, 2);

  RunnerOptions historical = BaseOptions(2);  // query_id defaulted.
  MultiProcessingRunner historical_runner(dataset, historical);
  auto base = historical_runner.Run(*task.value(), schedule);
  ASSERT_TRUE(base.ok());

  RunnerOptions q0 = BaseOptions(2);
  q0.query_id = 0;
  MultiProcessingRunner q0_runner(dataset, q0);
  auto same = q0_runner.Run(*task.value(), schedule);
  ASSERT_TRUE(same.ok());
  ExpectReportEq(same.value(), base.value(), "query 0 is historical");

  RunnerOptions q1 = BaseOptions(2);
  q1.query_id = 1;
  MultiProcessingRunner q1_runner(dataset, q1);
  auto other = q1_runner.Run(*task.value(), schedule);
  ASSERT_TRUE(other.ok());
  EXPECT_NE(other.value().total_messages, base.value().total_messages)
      << "query 1 must draw a different walk stream than query 0";
}

// Per-query accounting reconciles exactly: run totals are the fold of
// the batch reports (sums for flows, maxima for peaks), and the
// aggregate seconds are the fold of the per-query totals. This is the
// residual-bytes/spill reconciliation gate — a query reading a
// neighbor's arena would show up as a mismatch here.
TEST(ConcurrentEngineTest, PerQueryAccountingReconciles) {
  Dataset dataset = TinyDataset();
  QueryMix mix = MakeMix(404, 4);
  ConcurrentRunReport run = MustRun(dataset, mix.queries, 2, 2);
  EXPECT_EQ(run.queries_failed, 0u);
  double sum_seconds = 0.0;
  double max_seconds = 0.0;
  for (size_t q = 0; q < run.queries.size(); ++q) {
    ASSERT_TRUE(run.queries[q].status.ok());
    const RunReport& report = run.queries[q].report;
    double messages = 0.0;
    double seconds = 0.0;
    double spilled = 0.0;
    uint64_t rounds = 0;
    double peak_residual = 0.0;
    double peak_memory = 0.0;
    for (const BatchReport& batch : report.batches) {
      messages += batch.messages;
      seconds += batch.seconds;
      spilled += batch.spilled_bytes;
      rounds += batch.rounds;
      peak_residual = std::max(peak_residual, batch.peak_residual_bytes);
      peak_memory = std::max(peak_memory, batch.peak_memory_bytes);
    }
    EXPECT_EQ(report.total_messages, messages) << q;
    EXPECT_EQ(report.total_seconds, seconds) << q;
    EXPECT_EQ(report.spilled_bytes, spilled) << q;
    EXPECT_EQ(report.total_rounds, rounds) << q;
    EXPECT_EQ(report.peak_residual_bytes, peak_residual) << q;
    EXPECT_EQ(report.peak_memory_bytes, peak_memory) << q;
    sum_seconds += report.total_seconds;
    max_seconds = std::max(max_seconds, report.total_seconds);
  }
  EXPECT_EQ(run.total_simulated_seconds, sum_seconds);
  EXPECT_EQ(run.max_simulated_seconds, max_seconds);
  EXPECT_GT(run.wall_seconds, 0.0);
}

// A query that fails (empty schedule) carries its own status; its
// neighbors complete untouched and the aggregates cover the survivors.
TEST(ConcurrentEngineTest, FailedQueryDoesNotPoisonNeighbors) {
  Dataset dataset = TinyDataset();
  QueryMix mix = MakeMix(505, 3);
  mix.queries[1].schedule = BatchSchedule();  // Invalid: no batches.
  ConcurrentRunReport run = MustRun(dataset, mix.queries, 3, 2);
  EXPECT_EQ(run.queries_failed, 1u);
  EXPECT_FALSE(run.queries[1].status.ok());
  ASSERT_TRUE(run.queries[0].status.ok());
  ASSERT_TRUE(run.queries[2].status.ok());
  EXPECT_GT(run.queries[0].report.total_messages, 0.0);
  EXPECT_GT(run.queries[2].report.total_messages, 0.0);

  // The survivors still match their serial-baseline selves.
  QueryMix clean = MakeMix(505, 3);
  ConcurrentRunReport baseline = MustRun(dataset, clean.queries, 1, 1);
  ExpectReportEq(run.queries[0].report, baseline.queries[0].report,
                 "survivor 0");
  ExpectReportEq(run.queries[2].report, baseline.queries[2].report,
                 "survivor 2");
}

// Malformed configurations are rejected up front with InvalidArgument —
// no partial execution.
TEST(ConcurrentEngineTest, RejectsMalformedConfigurations) {
  Dataset dataset = TinyDataset();
  QueryMix mix = MakeMix(606, 2);

  ConcurrentRunnerOptions zero;
  zero.base = BaseOptions(1);
  zero.concurrency = 0;
  EXPECT_FALSE(ConcurrentRunner(dataset, zero).Run(mix.queries).ok());

  ConcurrentRunnerOptions ok_options;
  ok_options.base = BaseOptions(1);
  EXPECT_FALSE(ConcurrentRunner(dataset, ok_options).Run({}).ok());

  std::vector<ConcurrentQuery> with_null = mix.queries;
  with_null[1].task = nullptr;
  EXPECT_FALSE(ConcurrentRunner(dataset, ok_options).Run(with_null).ok());

  ConcurrentRunnerOptions preset = ok_options;
  preset.base.query_id = 3;  // Per-query field: must be unset.
  EXPECT_FALSE(ConcurrentRunner(dataset, preset).Run(mix.queries).ok());
}

// The trace is a pure function of the queries: drawn from the reports in
// query order, it is identical at every concurrency level.
TEST(ConcurrentEngineTest, MergedTraceIsConcurrencyInvariant) {
  Dataset dataset = TinyDataset();
  QueryMix mix = MakeMix(707, 3);
  Tracer serial_trace;
  MustRun(dataset, mix.queries, 1, 2, &serial_trace);
  Tracer concurrent_trace;
  MustRun(dataset, mix.queries, 3, 2, &concurrent_trace);
  EXPECT_EQ(TraceToJson(serial_trace), TraceToJson(concurrent_trace));
}

// Real out-of-core under concurrency: with a budget small enough that
// every concurrency level clamps to the same per-query minimum feasible
// share, capped runs are bit-identical across K (including measured
// spilled bytes), actually spill, and agree with the uncapped run on
// every budget-invariant statistic.
TEST(ConcurrentEngineTest, OocCappedConcurrentMatchesSerialAndUncapped) {
  Dataset dataset = TinyDataset();
  QueryMix mix = MakeMix(808, 3);

  auto run_graphd = [&](uint32_t concurrency, uint64_t budget_bytes) {
    ConcurrentRunnerOptions options;
    options.base = BaseOptions(2);
    options.base.system = SystemKind::kGraphD;
    if (budget_bytes > 0) {
      options.base.ooc.enabled = true;
      options.base.ooc.memory_budget_bytes = budget_bytes;
      options.base.ooc.cache_sections = 8;
      options.base.ooc.cache_ways = 2;
      options.base.ooc.spill_page_messages = 64;
    }
    options.concurrency = concurrency;
    ConcurrentRunner runner(dataset, options);
    auto report = runner.Run(mix.queries);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return std::move(report.value());
  };

  // Budget 1 byte: every K clamps to the same minimum feasible share.
  ConcurrentRunReport capped_serial = run_graphd(1, 1);
  ConcurrentRunReport capped_concurrent = run_graphd(3, 1);
  ConcurrentRunReport uncapped = run_graphd(3, 0);
  double measured_spill = 0.0;
  for (size_t q = 0; q < mix.queries.size(); ++q) {
    ASSERT_TRUE(capped_serial.queries[q].status.ok())
        << capped_serial.queries[q].status.ToString();
    ASSERT_TRUE(capped_concurrent.queries[q].status.ok());
    ASSERT_TRUE(uncapped.queries[q].status.ok());
    ExpectReportEq(capped_concurrent.queries[q].report,
                   capped_serial.queries[q].report,
                   "ooc query " + std::to_string(q));
    // Task results are budget-invariant: the capped run agrees with the
    // uncapped one on everything the budget cannot touch.
    EXPECT_EQ(capped_concurrent.queries[q].report.total_messages,
              uncapped.queries[q].report.total_messages)
        << q;
    EXPECT_EQ(capped_concurrent.queries[q].report.total_rounds,
              uncapped.queries[q].report.total_rounds)
        << q;
    measured_spill += capped_concurrent.queries[q].report.spilled_bytes;
  }
  EXPECT_GT(measured_spill, 0.0) << "the tight budget must actually spill";
}

// Re-entrancy regression: one runner object run twice reuses its
// QueryContext scratch (warm sinks, warm workers) across fresh engines —
// a stale engine pointer or leftover per-run state breaks the repeat.
TEST(ConcurrentEngineTest, RunnerObjectReuseIsRepeatable) {
  Dataset dataset = TinyDataset();
  auto task = MakeTask("BKHS");
  ASSERT_TRUE(task.ok());
  RunnerOptions options = BaseOptions(2);
  MultiProcessingRunner runner(dataset, options);
  BatchSchedule schedule = BatchSchedule::Equal(96, 3);
  auto first = runner.Run(*task.value(), schedule);
  auto second = runner.Run(*task.value(), schedule);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ExpectReportEq(first.value(), second.value(), "repeat run");
}

}  // namespace
}  // namespace vcmp
