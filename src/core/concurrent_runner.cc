#include "core/concurrent_runner.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <utility>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/wall_clock.h"
#include "ooc/ooc_runtime.h"

namespace vcmp {

namespace {

/// Per-query spill budget: an even split of the configured budget across
/// the K queries in flight, raised to the infeasible floor so a generous
/// total never turns into K infeasible shares. Results are budget-invariant
/// (DESIGN.md section 13), so the split only shifts WHERE bytes spill,
/// never what any query computes — which is what keeps per-query results
/// identical at every concurrency level.
uint64_t SplitOocBudget(uint64_t total, uint32_t concurrency,
                        uint64_t min_feasible) {
  uint64_t share = total / std::max<uint32_t>(concurrency, 1);
  return std::max(share, min_feasible);
}

}  // namespace

ConcurrentRunner::ConcurrentRunner(const Dataset& dataset,
                                   ConcurrentRunnerOptions options)
    : dataset_(dataset),
      options_(std::move(options)),
      profile_(options_.base.profile_override.has_value()
                   ? *options_.base.profile_override
                   : ProfileFor(options_.base.system)) {
  std::unique_ptr<Partitioner> partitioner =
      MakePartitioner(profile_.partitioner);
  partition_ = partitioner->Partition(dataset_.graph,
                                      options_.base.cluster.num_machines);
}

Result<ConcurrentRunReport> ConcurrentRunner::Run(
    const std::vector<ConcurrentQuery>& queries) {
  if (options_.concurrency == 0) {
    return Status::InvalidArgument("concurrency must be at least 1");
  }
  if (queries.empty()) {
    return Status::InvalidArgument("no queries to run");
  }
  for (const ConcurrentQuery& query : queries) {
    if (query.task == nullptr) {
      return Status::InvalidArgument("query has no task");
    }
  }
  if (options_.base.pool != nullptr ||
      options_.base.shared_partition != nullptr ||
      options_.base.query_id != 0) {
    return Status::InvalidArgument(
        "base options must leave per-query fields (pool, "
        "shared_partition, query_id) unset");
  }
  if (options_.base.batch_observer || options_.base.engine_observer) {
    return Status::InvalidArgument(
        "per-batch observers are not supported on concurrent runs (they "
        "would execute on several driver threads at once)");
  }

  const uint32_t concurrency = options_.concurrency;
  // Thread budget: the K driver threads each execute their query's
  // serial sections and act as the calling participant of its parallel
  // sections, so they count toward the configured thread total; the
  // shared pool supplies the rest. A ParallelFor waits only for its own
  // claimed indices, so the queries' fan-outs stay independent on the
  // shared workers.
  const uint32_t total_threads = ThreadPool::ResolveThreads(
      options_.base.execution_threads, /*clamp_to_hardware=*/false);
  const uint32_t pool_workers =
      total_threads > concurrency ? total_threads - concurrency : 0;
  ThreadPool pool(pool_workers);

  // The infeasible floor for the per-query spill-budget split, computed
  // once: it depends on the vertex placement and cache geometry, not on
  // the query.
  uint64_t min_ooc_budget = 0;
  if (options_.base.ooc.enabled &&
      options_.base.ooc.memory_budget_bytes != 0) {
    std::vector<std::vector<VertexId>> vertices_by_machine(
        partition_.num_machines);
    for (VertexId v = 0; v < dataset_.graph.NumVertices(); ++v) {
      vertices_by_machine[partition_.MachineOf(v)].push_back(v);
    }
    OocRuntime::Setup setup;
    setup.options = options_.base.ooc;
    setup.machines = partition_.num_machines;
    setup.stat_scale = dataset_.scale;
    setup.bytes_per_message = profile_.bytes_per_message;
    setup.message_memory_overhead = profile_.message_memory_overhead;
    min_ooc_budget =
        OocRuntime::MinFeasibleBudgetBytes(setup, vertices_by_machine);
  }

  ConcurrentRunReport report;
  report.queries.resize(queries.size());

  const uint64_t start_ns = wallclock::NowNs();
  // One shared query counter: a free driver takes the next query index,
  // so no driver idles while another still has a backlog. A driver that
  // finds no query left lends its thread to the pool until the last
  // query finished (a failed one counts), so the tail queries' rounds
  // spread over every thread. Each index is claimed by exactly one
  // driver, so the outcome vector needs no locking.
  std::atomic<size_t> next_query{0};
  std::atomic<size_t> finished{0};
  const auto drive = [&] {
    for (size_t i = next_query.fetch_add(1, std::memory_order_relaxed);
         i < queries.size();
         i = next_query.fetch_add(1, std::memory_order_relaxed)) {
      const ConcurrentQuery& query = queries[i];
      RunnerOptions opts = options_.base;
      opts.query_id = i;
      opts.pool = &pool;
      opts.shared_partition = &partition_;
      if (opts.ooc.enabled) {
        // Disjoint spill directories; an empty base directory already
        // yields a unique temp dir per engine run.
        if (!opts.ooc.directory.empty()) {
          opts.ooc.directory += StrFormat("/q%zu", i);
        }
        if (opts.ooc.memory_budget_bytes != 0) {
          opts.ooc.memory_budget_bytes = SplitOocBudget(
              opts.ooc.memory_budget_bytes, concurrency, min_ooc_budget);
        }
      }
      MultiProcessingRunner runner(dataset_, std::move(opts));
      Result<RunReport> outcome = runner.Run(*query.task, query.schedule);
      if (outcome.ok()) {
        report.queries[i].report = std::move(outcome.value());
      } else {
        report.queries[i].status = outcome.status();
      }
      if (finished.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          queries.size()) {
        pool.WakeLenders();
      }
    }
    pool.Lend([&] {
      return finished.load(std::memory_order_acquire) == queries.size();
    });
  };

  if (concurrency == 1) {
    drive();  // Serial: no reason to spawn a driver thread.
  } else {
    std::vector<std::thread> drivers(
        std::min<size_t>(concurrency, queries.size()));
    for (std::thread& driver : drivers) driver = std::thread(drive);
    for (std::thread& driver : drivers) driver.join();
  }
  report.wall_seconds = wallclock::SecondsSince(start_ns);

  for (const QueryOutcome& outcome : report.queries) {
    if (!outcome.status.ok()) {
      ++report.queries_failed;
      continue;
    }
    report.total_simulated_seconds += outcome.report.total_seconds;
    report.max_simulated_seconds = std::max(report.max_simulated_seconds,
                                            outcome.report.total_seconds);
    report.any_overloaded |= outcome.report.overloaded;
  }
  return report;
}

}  // namespace vcmp
