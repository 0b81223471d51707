#include "service/service.h"

#include <algorithm>
#include <deque>

#include "obs/tracer.h"
#include "sim/sim_clock.h"
#include "tasks/task_registry.h"

namespace vcmp {

ServingLoop::ServingLoop(const ArrivalProcess& arrivals,
                         AdmissionOptions admission, BatchPolicy& policy,
                         BatchExecutor executor, ServiceOptions options)
    : arrivals_(arrivals),
      admission_(admission),
      policy_(policy),
      executor_(std::move(executor)),
      options_(options) {}

Result<ServiceReport> ServingLoop::Run() {
  VCMP_ASSIGN_OR_RETURN(std::vector<QueryArrival> arrivals,
                        arrivals_.Generate());
  const uint32_t num_clients =
      static_cast<uint32_t>(arrivals_.clients().size());
  AdmissionQueue queue(num_clients, admission_);
  SimClock clock;

  ServiceReport report;
  report.policy = policy_.name();
  report.horizon_seconds = options_.horizon_seconds;
  report.queries.resize(arrivals.size());

  /// Residual of finished-but-unflushed batches; FIFO because the drain
  /// delay is constant, so flush order equals completion order.
  struct LedgerEntry {
    double flush_seconds;
    double bytes;
  };
  std::deque<LedgerEntry> ledger;
  double residual_now = 0.0;
  double busy_seconds = 0.0;
  size_t next_arrival = 0;

  // Observability: the lifecycle ledger. `executing` counts queries in
  // the batch currently holding the engine; the gauge-bundle identity
  // (generated == admitted + shed, admitted == queued + executing +
  // completed) is what the reconciliation tests pin down.
  Tracer* const tracer = options_.tracer;
  uint32_t track = 0;
  if (tracer != nullptr) {
    track = tracer->AddTrack(options_.trace_label, "lifecycle");
  }
  double generated = 0.0;
  double admitted = 0.0;
  double shed_total = 0.0;
  double completed = 0.0;
  double executing = 0.0;
  auto emit_ledger = [&](double ts) {
    tracer->Gauge(track, "service.generated", ts, generated);
    tracer->Gauge(track, "service.admitted", ts, admitted);
    tracer->Gauge(track, "service.shed", ts, shed_total);
    tracer->Gauge(track, "service.queued", ts,
                  static_cast<double>(queue.size()));
    tracer->Gauge(track, "service.executing", ts, executing);
    tracer->Gauge(track, "service.completed", ts, completed);
    tracer->Gauge(track, "service.residual_bytes", ts, residual_now);
  };

  auto flush_ledger = [&]() {
    bool flushed = false;
    while (!ledger.empty() &&
           ledger.front().flush_seconds <= clock.now()) {
      residual_now -= ledger.front().bytes;
      ledger.pop_front();
      flushed = true;
    }
    if (ledger.empty()) residual_now = 0.0;  // Absorb float dust.
    if (flushed && tracer != nullptr) {
      tracer->Instant(track, "flush", clock.now(),
                      {{"residual_bytes", residual_now}});
      emit_ledger(clock.now());
    }
  };
  auto deliver_arrivals = [&]() {
    while (next_arrival < arrivals.size() &&
           arrivals[next_arrival].arrival_seconds <= clock.now()) {
      const QueryArrival& query = arrivals[next_arrival];
      QueryOutcome& outcome = report.queries[query.id];
      outcome.id = query.id;
      outcome.client = query.client;
      outcome.task = query.task;
      outcome.units = query.units;
      outcome.arrival_seconds = query.arrival_seconds;
      outcome.shed = !queue.Offer(query);
      ++next_arrival;
      if (tracer != nullptr) {
        // Stamped with the delivery instant (the clock), not the
        // arrival draw: arrivals landing mid-batch surface when the
        // loop next looks, which keeps every track monotone.
        tracer->Instant(track, "arrive", clock.now(),
                        {{"id", static_cast<double>(query.id)},
                         {"client", static_cast<double>(query.client)},
                         {"units", query.units},
                         {"arrival_seconds", query.arrival_seconds}});
        tracer->Instant(track, outcome.shed ? "shed" : "admit",
                        clock.now(),
                        {{"id", static_cast<double>(query.id)}});
        generated += 1.0;
        tracer->Add("service.generated", 1.0);
        if (outcome.shed) {
          shed_total += 1.0;
          tracer->Add("service.shed", 1.0);
        } else {
          admitted += 1.0;
          tracer->Add("service.admitted", 1.0);
        }
        emit_ledger(clock.now());
      }
    }
  };

  deliver_arrivals();
  while (next_arrival < arrivals.size() || !queue.empty()) {
    flush_ledger();

    if (!queue.empty()) {
      BatcherObservation obs;
      obs.now_seconds = clock.now();
      obs.queued_queries = queue.size();
      obs.queued_units = queue.units();
      obs.oldest_wait_seconds =
          clock.now() - queue.OldestArrivalSeconds();
      obs.residual_bytes = residual_now;
      double unit_budget = policy_.NextBatchUnits(obs);
      if (unit_budget > 0.0) {
        std::vector<QueryArrival> batch = queue.PopFairUnits(unit_budget);
        if (!batch.empty()) {
          double units = 0.0;
          for (const QueryArrival& query : batch) units += query.units;
          VCMP_ASSIGN_OR_RETURN(BatchExecution exec,
                                executor_(batch, residual_now));
          const double start = clock.now();
          const double finish = start + exec.seconds;
          for (const QueryArrival& query : batch) {
            report.queries[query.id].start_seconds = start;
            report.queries[query.id].finish_seconds = finish;
          }
          ServiceBatchTrace trace;
          trace.start_seconds = start;
          trace.seconds = exec.seconds;
          trace.queries = batch.size();
          trace.units = units;
          trace.residual_at_formation_bytes = residual_now;
          trace.peak_memory_bytes = exec.peak_memory_bytes;
          trace.overloaded = exec.overloaded;
          report.batches.push_back(trace);
          busy_seconds += exec.seconds;
          if (tracer != nullptr) {
            tracer->Begin(
                track, "batch", start,
                {{"queries", static_cast<double>(batch.size())},
                 {"units", units},
                 {"residual_at_formation_bytes", residual_now},
                 {"peak_memory_bytes", exec.peak_memory_bytes}});
            executing = static_cast<double>(batch.size());
            tracer->Add("service.batches", 1.0);
            tracer->Add("service.busy_seconds", exec.seconds);
            emit_ledger(start);
          }
          // The batch's residual materialises at completion and stays
          // until results flush. No formation decision happens before
          // `finish` (the engine is serial), so it may join the ledger
          // immediately.
          ledger.push_back(
              {finish + options_.drain_delay_seconds, exec.residual_bytes});
          residual_now += exec.residual_bytes;
          if (tracer != nullptr) {
            tracer->End(track, finish,
                        {{"overloaded", exec.overloaded ? 1.0 : 0.0}});
            completed += static_cast<double>(batch.size());
            executing = 0.0;
            tracer->Add("service.completed",
                        static_cast<double>(batch.size()));
            emit_ledger(finish);
          }
          clock.AdvanceTo(finish);
          deliver_arrivals();
          continue;
        }
      }
    }

    // Nothing formed: advance to the next event that can change the
    // decision — an arrival, a residual flush, or the age-trigger
    // deadline of the oldest queued query (if it has not fired yet).
    double next_event = SimClock::Horizon();
    if (next_arrival < arrivals.size()) {
      next_event =
          std::min(next_event, arrivals[next_arrival].arrival_seconds);
    }
    if (!ledger.empty()) {
      next_event = std::min(next_event, ledger.front().flush_seconds);
    }
    if (!queue.empty()) {
      double deadline =
          queue.OldestArrivalSeconds() + policy_.MaxWaitSeconds();
      if (deadline > clock.now()) {
        next_event = std::min(next_event, deadline);
      }
    }
    if (next_event <= clock.now() ||
        next_event == SimClock::Horizon()) {
      // The age trigger already fired, no arrivals or flushes are
      // pending, and still nothing formed: the head query can never be
      // scheduled under the policy's memory bound.
      return Status::FailedPrecondition(
          "serving stalled: a queued query cannot be scheduled (its "
          "units exceed the feasible batch size even with all residual "
          "memory drained)");
    }
    clock.AdvanceTo(next_event);
    deliver_arrivals();
  }

  report.Finalize(num_clients, busy_seconds);
  return report;
}

BatchExecutor MakeRunnerExecutor(const Dataset& dataset,
                                 const RunnerOptions& runner_options) {
  // The batch counter salts each sub-job's seed so two batches of the
  // same task draw independent unit tasks, deterministically.
  auto batch_counter = std::make_shared<uint64_t>(0);
  return [&dataset, runner_options, batch_counter](
             const std::vector<QueryArrival>& batch,
             double residual_bytes) -> Result<BatchExecution> {
    BatchExecution exec;
    // Group by task type in first-appearance order; each group runs as
    // one single-batch engine job, later groups seeing the residual the
    // earlier ones just deposited.
    std::vector<std::pair<std::string, double>> groups;
    for (const QueryArrival& query : batch) {
      bool found = false;
      for (auto& group : groups) {
        if (group.first == query.task) {
          group.second += query.units;
          found = true;
          break;
        }
      }
      if (!found) groups.emplace_back(query.task, query.units);
    }
    double resident = residual_bytes;
    for (const auto& [task_name, units] : groups) {
      VCMP_ASSIGN_OR_RETURN(std::unique_ptr<MultiTask> task,
                            MakeTask(task_name));
      RunnerOptions options = runner_options;
      ++*batch_counter;
      options.seed = runner_options.seed + *batch_counter * 7919ULL;
      options.initial_residual_bytes.assign(
          options.cluster.num_machines, resident);
      MultiProcessingRunner runner(dataset, options);
      VCMP_ASSIGN_OR_RETURN(
          RunReport run,
          runner.Run(*task, BatchSchedule::FullParallelism(units)));
      exec.seconds += run.total_seconds;
      exec.peak_memory_bytes =
          std::max(exec.peak_memory_bytes, run.peak_memory_bytes);
      exec.overloaded = exec.overloaded || run.overloaded;
      if (!run.batches.empty()) {
        resident =
            std::max(resident, run.batches.back().carryover_residual_bytes);
      }
    }
    exec.residual_bytes = std::max(0.0, resident - residual_bytes);
    return exec;
  };
}

}  // namespace vcmp
