#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/experiment_spec.h"
#include "obs/run_trace.h"
#include "obs/tracer.h"
#include "service/admission.h"
#include "service/arrival.h"
#include "service/batcher.h"
#include "service/service.h"

namespace vcmp {
namespace {

/// Structural invariants every trace must satisfy, whatever produced it:
/// spans balanced and properly nested per track, timestamps monotone
/// non-decreasing per track, gauge values attached to gauge events only.
void CheckTraceWellFormed(const Tracer& tracer) {
  std::vector<std::vector<double>> span_stack(tracer.tracks().size());
  std::vector<double> last_ts(tracer.tracks().size(), 0.0);
  std::vector<bool> seen(tracer.tracks().size(), false);
  for (const TraceEvent& event : tracer.events()) {
    ASSERT_LT(event.track, tracer.tracks().size());
    if (seen[event.track]) {
      EXPECT_GE(event.ts_seconds, last_ts[event.track])
          << "timestamps must be monotone per track (track "
          << event.track << ", event '" << event.name << "')";
    }
    seen[event.track] = true;
    last_ts[event.track] = event.ts_seconds;
    switch (event.kind) {
      case TraceEvent::Kind::kBegin:
        span_stack[event.track].push_back(event.ts_seconds);
        break;
      case TraceEvent::Kind::kEnd: {
        ASSERT_FALSE(span_stack[event.track].empty())
            << "End with no open span on track " << event.track;
        // Nesting: a span must close at or after it opened.
        EXPECT_GE(event.ts_seconds, span_stack[event.track].back());
        span_stack[event.track].pop_back();
        break;
      }
      case TraceEvent::Kind::kInstant:
      case TraceEvent::Kind::kGauge:
        break;
    }
  }
  for (size_t track = 0; track < span_stack.size(); ++track) {
    EXPECT_TRUE(span_stack[track].empty())
        << "unbalanced spans on track " << track;
    EXPECT_EQ(tracer.open_spans(static_cast<uint32_t>(track)), 0u);
  }
}

// ------------------------------------------------------- batch processing

TEST(TraceInvariantTest, RandomSpecsProduceWellFormedTraces) {
  std::mt19937 rng(20260806);
  for (int trial = 0; trial < 5; ++trial) {
    ExperimentSpec spec;
    spec.name = "prop";
    spec.scale = 512;
    spec.seed = rng();
    spec.workload = 16.0 * (1 + rng() % 6);
    spec.schedule = "equal:" + std::to_string(1 + rng() % 4);
    spec.machines = 2 + rng() % 4;
    auto result = RunExperiment(spec);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    Tracer tracer;
    TraceRunReport(tracer, spec.name, result.value().report);
    ASSERT_FALSE(tracer.events().empty());
    CheckTraceWellFormed(tracer);
  }
}

TEST(TraceInvariantTest, CountersReconcileWithRunReport) {
  // The contract is bitwise equality, not approximate: the trace sums
  // the batches in the exact order RunReport::Absorb does, so the trace
  // counters ARE the report aggregates.
  std::mt19937 rng(987654321);
  for (int trial = 0; trial < 4; ++trial) {
    ExperimentSpec spec;
    spec.name = "reconcile";
    spec.scale = 512;
    spec.seed = rng();
    spec.workload = 16.0 * (1 + rng() % 5);
    spec.schedule = "equal:" + std::to_string(1 + rng() % 4);
    auto result = RunExperiment(spec);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const RunReport& report = result.value().report;
    Tracer tracer;
    TraceRunReport(tracer, spec.name, report);
    ASSERT_FALSE(report.overloaded);  // Overload clamps total_seconds.

    EXPECT_EQ(tracer.counter("engine.messages"), report.total_messages);
    EXPECT_EQ(tracer.counter("engine.rounds"),
              static_cast<double>(report.total_rounds));
    EXPECT_EQ(tracer.counter("runner.messages"), report.total_messages);
    EXPECT_EQ(tracer.counter("runner.rounds"),
              static_cast<double>(report.total_rounds));
    EXPECT_EQ(tracer.counter("runner.seconds"), report.total_seconds);
    EXPECT_EQ(tracer.counter("runner.batches"),
              static_cast<double>(report.batches.size()));
    EXPECT_EQ(tracer.counter("engine.peak_memory_bytes"),
              report.peak_memory_bytes);
    EXPECT_EQ(tracer.counter("engine.peak_residual_bytes"),
              report.peak_residual_bytes);
  }
}

// --------------------------------------------------------------- serving

/// Closed-form executor: cost proportional to units, no overload. Keeps
/// the property trials fast and the ledger arithmetic exact.
BatchExecutor SyntheticExecutor() {
  return [](const std::vector<QueryArrival>& batch,
            double residual_bytes) -> Result<BatchExecution> {
    double units = 0.0;
    for (const QueryArrival& query : batch) units += query.units;
    BatchExecution exec;
    exec.seconds = 0.25 + 0.05 * units;
    exec.peak_memory_bytes = residual_bytes + units * 1e6;
    exec.residual_bytes = units * 2e5;
    return exec;
  };
}

std::vector<ClientSpec> RandomClients(std::mt19937& rng) {
  std::vector<ClientSpec> clients(2 + rng() % 3);
  for (size_t i = 0; i < clients.size(); ++i) {
    clients[i].name = "client-" + std::to_string(i);
    clients[i].rate_per_second = 0.5 + 0.5 * (rng() % 4);
    clients[i].units_per_query = 1.0 + (rng() % 3);
  }
  return clients;
}

TEST(TraceInvariantTest, ServingLedgerBalancesAtEveryBundle) {
  // At every gauge bundle the lifecycle ledger must satisfy
  //   generated == admitted + shed
  //   admitted  == queued + executing + completed
  // i.e. no query is ever lost or double-counted, at any instant.
  std::mt19937 rng(424242);
  for (int trial = 0; trial < 4; ++trial) {
    ArrivalOptions arrival_options;
    arrival_options.seed = rng();
    arrival_options.horizon_seconds = 30.0;
    ArrivalProcess arrivals(RandomClients(rng), arrival_options);

    AdmissionOptions admission;
    admission.per_client_capacity = 2 + rng() % 3;  // Tight: forces shed.
    admission.total_capacity = 4 + rng() % 4;

    FixedBatcher policy(/*units=*/4.0 + (rng() % 8),
                        /*max_wait_seconds=*/1.0);
    ServiceOptions options;
    options.horizon_seconds = arrival_options.horizon_seconds;
    options.drain_delay_seconds = 2.0;
    Tracer tracer;
    options.tracer = &tracer;
    ServingLoop loop(arrivals, admission, policy, SyntheticExecutor(),
                     options);
    auto report = loop.Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    CheckTraceWellFormed(tracer);

    // Replay the gauge stream; "service.residual_bytes" terminates each
    // bundle, at which point the ledger identity must hold exactly.
    std::map<std::string, double> gauges;
    size_t bundles = 0;
    for (const TraceEvent& event : tracer.events()) {
      if (event.kind != TraceEvent::Kind::kGauge) continue;
      gauges[event.name] = event.value;
      if (event.name != "service.residual_bytes") continue;
      ++bundles;
      EXPECT_EQ(gauges.at("service.generated"),
                gauges.at("service.admitted") + gauges.at("service.shed"));
      EXPECT_EQ(gauges.at("service.admitted"),
                gauges.at("service.queued") +
                    gauges.at("service.executing") +
                    gauges.at("service.completed"));
    }
    ASSERT_GT(bundles, 0u);

    // Final ledger state == the report's aggregates, and every arrival
    // is accounted for.
    const ServiceReport& final_report = report.value();
    EXPECT_EQ(gauges.at("service.generated"),
              static_cast<double>(final_report.queries.size()));
    EXPECT_EQ(gauges.at("service.completed"),
              static_cast<double>(final_report.completed));
    EXPECT_EQ(gauges.at("service.shed"),
              static_cast<double>(final_report.shed));
    EXPECT_EQ(gauges.at("service.queued"), 0.0);
    EXPECT_EQ(gauges.at("service.executing"), 0.0);
  }
}

TEST(TraceInvariantTest, ServiceCountersReconcileWithReport) {
  std::mt19937 rng(7771);
  ArrivalOptions arrival_options;
  arrival_options.seed = rng();
  arrival_options.horizon_seconds = 40.0;
  ArrivalProcess arrivals(RandomClients(rng), arrival_options);

  AdmissionOptions admission;  // Roomy: nothing shed.
  FixedBatcher policy(/*units=*/6.0, /*max_wait_seconds=*/1.5);
  ServiceOptions options;
  options.horizon_seconds = arrival_options.horizon_seconds;
  Tracer tracer;
  options.tracer = &tracer;
  ServingLoop loop(arrivals, admission, policy, SyntheticExecutor(),
                   options);
  auto report = loop.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ServiceReport& r = report.value();

  EXPECT_EQ(tracer.counter("service.completed"),
            static_cast<double>(r.completed));
  EXPECT_EQ(tracer.counter("service.shed"), static_cast<double>(r.shed));
  EXPECT_EQ(tracer.counter("service.generated"),
            static_cast<double>(r.queries.size()));
  EXPECT_EQ(tracer.counter("service.batches"),
            static_cast<double>(r.batches.size()));
  // busy_seconds accumulates exec.seconds batch by batch in formation
  // order — the same order the counter Adds — so the sums are bitwise
  // equal.
  double busy = 0.0;
  for (const ServiceBatchTrace& batch : r.batches) busy += batch.seconds;
  EXPECT_EQ(tracer.counter("service.busy_seconds"), busy);
}

}  // namespace
}  // namespace vcmp
