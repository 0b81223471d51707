#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "metrics/export.h"
#include "metrics/service_report.h"
#include "service/admission.h"
#include "service/arrival.h"
#include "service/batcher.h"
#include "service/serve_spec.h"
#include "service/service.h"

namespace vcmp {
namespace {

constexpr double kGiBd = 1024.0 * 1024.0 * 1024.0;

MemoryModels LinearModels(double peak_per_unit, double residual_per_unit,
                          double peak_intercept) {
  MemoryModels models;
  models.peak.a = peak_per_unit;
  models.peak.b = 1.0;
  models.peak.c = peak_intercept;
  models.residual.a = residual_per_unit;
  models.residual.b = 1.0;
  models.residual.c = 0.0;
  return models;
}

std::vector<ClientSpec> TwoSteadyClients(double rate, double units) {
  std::vector<ClientSpec> clients(2);
  clients[0].name = "alpha";
  clients[0].rate_per_second = rate;
  clients[0].units_per_query = units;
  clients[1].name = "beta";
  clients[1].rate_per_second = rate;
  clients[1].units_per_query = units;
  return clients;
}

// ---------------------------------------------------------------- arrivals

TEST(ArrivalTest, SameSeedSameSequence) {
  ArrivalOptions options;
  options.seed = 42;
  options.horizon_seconds = 50.0;
  ArrivalProcess a(TwoSteadyClients(0.5, 2.0), options);
  ArrivalProcess b(TwoSteadyClients(0.5, 2.0), options);
  auto seq_a = a.Generate();
  auto seq_b = b.Generate();
  ASSERT_TRUE(seq_a.ok());
  ASSERT_TRUE(seq_b.ok());
  ASSERT_EQ(seq_a.value().size(), seq_b.value().size());
  ASSERT_GT(seq_a.value().size(), 10u);
  for (size_t i = 0; i < seq_a.value().size(); ++i) {
    EXPECT_DOUBLE_EQ(seq_a.value()[i].arrival_seconds,
                     seq_b.value()[i].arrival_seconds);
    EXPECT_EQ(seq_a.value()[i].client, seq_b.value()[i].client);
    EXPECT_EQ(seq_a.value()[i].id, i);  // ids are merged ranks.
  }
}

TEST(ArrivalTest, DifferentSeedDifferentTimes) {
  ArrivalOptions options;
  options.horizon_seconds = 50.0;
  options.seed = 1;
  ArrivalProcess a(TwoSteadyClients(0.5, 1.0), options);
  options.seed = 2;
  ArrivalProcess b(TwoSteadyClients(0.5, 1.0), options);
  auto seq_a = a.Generate();
  auto seq_b = b.Generate();
  ASSERT_TRUE(seq_a.ok() && seq_b.ok());
  bool any_diff = seq_a.value().size() != seq_b.value().size();
  for (size_t i = 0;
       !any_diff && i < seq_a.value().size() && i < seq_b.value().size();
       ++i) {
    any_diff = seq_a.value()[i].arrival_seconds !=
               seq_b.value()[i].arrival_seconds;
  }
  EXPECT_TRUE(any_diff);
}

TEST(ArrivalTest, ClientStreamsAreIndependent) {
  // Adding a second client must not perturb the first client's arrival
  // times (per-client forked RNG streams).
  ArrivalOptions options;
  options.seed = 9;
  options.horizon_seconds = 40.0;
  std::vector<ClientSpec> solo(1);
  solo[0].name = "alpha";
  solo[0].rate_per_second = 0.4;
  ArrivalProcess one(solo, options);
  ArrivalProcess two(TwoSteadyClients(0.4, 1.0), options);
  auto seq_one = one.Generate();
  auto seq_two = two.Generate();
  ASSERT_TRUE(seq_one.ok() && seq_two.ok());
  std::vector<double> alpha_solo;
  for (const QueryArrival& q : seq_one.value()) {
    alpha_solo.push_back(q.arrival_seconds);
  }
  std::vector<double> alpha_merged;
  for (const QueryArrival& q : seq_two.value()) {
    if (q.client == 0) alpha_merged.push_back(q.arrival_seconds);
  }
  EXPECT_EQ(alpha_solo, alpha_merged);
}

TEST(ArrivalTest, SortedAndInsideHorizon) {
  ArrivalOptions options;
  options.seed = 3;
  options.horizon_seconds = 25.0;
  ArrivalProcess process(TwoSteadyClients(1.0, 1.0), options);
  auto seq = process.Generate();
  ASSERT_TRUE(seq.ok());
  for (size_t i = 0; i < seq.value().size(); ++i) {
    EXPECT_LT(seq.value()[i].arrival_seconds, 25.0);
    EXPECT_GE(seq.value()[i].arrival_seconds, 0.0);
    if (i > 0) {
      EXPECT_GE(seq.value()[i].arrival_seconds,
                seq.value()[i - 1].arrival_seconds);
    }
  }
}

TEST(ArrivalTest, TraceModulatesRate) {
  // 10s of near-silence, a 10s burst at 50x the rate, near-silence again.
  std::vector<ClientSpec> clients(1);
  clients[0].name = "bursty";
  clients[0].trace = {{10.0, 0.1}, {10.0, 5.0}, {10.0, 0.1}};
  ArrivalOptions options;
  options.seed = 5;
  options.horizon_seconds = 30.0;
  ArrivalProcess process(clients, options);
  auto seq = process.Generate();
  ASSERT_TRUE(seq.ok());
  size_t in_burst = 0, outside = 0;
  for (const QueryArrival& q : seq.value()) {
    if (q.arrival_seconds >= 10.0 && q.arrival_seconds < 20.0) {
      ++in_burst;
    } else {
      ++outside;
    }
  }
  EXPECT_GT(in_burst, 10u * outside / 10u + 5u);
}

TEST(ArrivalTest, RejectsBadSpecs) {
  ArrivalOptions options;
  options.horizon_seconds = 0.0;
  EXPECT_FALSE(
      ArrivalProcess(TwoSteadyClients(1.0, 1.0), options).Generate().ok());
  options.horizon_seconds = 10.0;
  EXPECT_FALSE(ArrivalProcess({}, options).Generate().ok());
  auto bad_rate = TwoSteadyClients(0.0, 1.0);
  EXPECT_FALSE(ArrivalProcess(bad_rate, options).Generate().ok());
}

// --------------------------------------------------------------- admission

QueryArrival MakeQuery(uint64_t id, uint32_t client, double units) {
  QueryArrival query;
  query.id = id;
  query.client = client;
  query.units = units;
  query.arrival_seconds = static_cast<double>(id);
  return query;
}

TEST(AdmissionTest, PopFairRoundRobinsAcrossClients) {
  AdmissionQueue queue(3, AdmissionOptions{});
  uint64_t id = 0;
  for (int round = 0; round < 4; ++round) {
    for (uint32_t client = 0; client < 3; ++client) {
      ASSERT_TRUE(queue.Offer(MakeQuery(id++, client, 1.0)));
    }
  }
  std::vector<QueryArrival> batch = queue.PopFair(6);
  ASSERT_EQ(batch.size(), 6u);
  std::map<uint32_t, int> per_client;
  for (const QueryArrival& q : batch) per_client[q.client]++;
  for (uint32_t client = 0; client < 3; ++client) {
    EXPECT_EQ(per_client[client], 2) << "client " << client;
  }
  // The second batch drains the rest, still evenly.
  batch = queue.PopFair(6);
  ASSERT_EQ(batch.size(), 6u);
  per_client.clear();
  for (const QueryArrival& q : batch) per_client[q.client]++;
  for (uint32_t client = 0; client < 3; ++client) {
    EXPECT_EQ(per_client[client], 2) << "client " << client;
  }
  EXPECT_TRUE(queue.empty());
}

TEST(AdmissionTest, PopFairUnitsRespectsBudgetExactly) {
  AdmissionQueue queue(2, AdmissionOptions{});
  // Client 0 queues 3-unit queries, client 1 queues 1-unit queries.
  ASSERT_TRUE(queue.Offer(MakeQuery(0, 0, 3.0)));
  ASSERT_TRUE(queue.Offer(MakeQuery(1, 0, 3.0)));
  ASSERT_TRUE(queue.Offer(MakeQuery(2, 1, 1.0)));
  ASSERT_TRUE(queue.Offer(MakeQuery(3, 1, 1.0)));
  std::vector<QueryArrival> batch = queue.PopFairUnits(4.0);
  double units = 0.0;
  for (const QueryArrival& q : batch) units += q.units;
  EXPECT_LE(units, 4.0);
  EXPECT_EQ(batch.size(), 2u);  // 3 + 1: the second 3-unit head no longer fits.
  EXPECT_DOUBLE_EQ(queue.units(), 4.0);
}

TEST(AdmissionTest, PopFairUnitsSkipsOversizedHeads) {
  AdmissionQueue queue(2, AdmissionOptions{});
  ASSERT_TRUE(queue.Offer(MakeQuery(0, 0, 5.0)));
  ASSERT_TRUE(queue.Offer(MakeQuery(1, 1, 1.0)));
  ASSERT_TRUE(queue.Offer(MakeQuery(2, 1, 1.0)));
  // Budget 2: client 0's 5-unit head cannot fit, but client 1's queries
  // must still flow (no head-of-line blocking across tenants).
  std::vector<QueryArrival> batch = queue.PopFairUnits(2.0);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].client, 1u);
  EXPECT_EQ(batch[1].client, 1u);
  EXPECT_DOUBLE_EQ(queue.units(), 5.0);
}

TEST(AdmissionTest, ShedsPerClientAndTotal) {
  AdmissionOptions options;
  options.per_client_capacity = 2;
  options.total_capacity = 3;
  AdmissionQueue queue(2, options);
  EXPECT_TRUE(queue.Offer(MakeQuery(0, 0, 1.0)));
  EXPECT_TRUE(queue.Offer(MakeQuery(1, 0, 1.0)));
  // Client 0's private queue is full: shed, even though total has room.
  EXPECT_FALSE(queue.Offer(MakeQuery(2, 0, 1.0)));
  // Client 1 is unaffected by client 0's backpressure.
  EXPECT_TRUE(queue.Offer(MakeQuery(3, 1, 1.0)));
  // Total capacity reached: shed regardless of per-client headroom.
  EXPECT_FALSE(queue.Offer(MakeQuery(4, 1, 1.0)));
  EXPECT_EQ(queue.shed_count(), 2u);
  ASSERT_EQ(queue.per_client_shed().size(), 2u);
  EXPECT_EQ(queue.per_client_shed()[0], 1u);
  EXPECT_EQ(queue.per_client_shed()[1], 1u);
  EXPECT_EQ(queue.per_client_admitted()[0], 2u);
  EXPECT_EQ(queue.per_client_admitted()[1], 1u);
  EXPECT_EQ(queue.size(), 3u);
}

// ---------------------------------------------------------------- batchers

BatcherObservation Obs(double queued_units, double oldest_wait,
                       double residual_bytes) {
  BatcherObservation obs;
  obs.queued_queries = static_cast<size_t>(queued_units);
  obs.queued_units = queued_units;
  obs.oldest_wait_seconds = oldest_wait;
  obs.residual_bytes = residual_bytes;
  return obs;
}

TEST(FixedBatcherTest, WaitsBelowKThenFiresOnAge) {
  FixedBatcher batcher(10.0, /*max_wait_seconds=*/5.0);
  EXPECT_DOUBLE_EQ(batcher.NextBatchUnits(Obs(4.0, 1.0, 0.0)), 0.0);
  EXPECT_DOUBLE_EQ(batcher.NextBatchUnits(Obs(12.0, 1.0, 0.0)), 10.0);
  // Anti-starvation: the oldest query has waited past the deadline.
  EXPECT_DOUBLE_EQ(batcher.NextBatchUnits(Obs(4.0, 6.0, 0.0)), 4.0);
}

TEST(DynamicBatcherTest, InvertsModelsAgainstFreeMemory) {
  // peak(W) = 0.01GiB * W + 0.5GiB against a 16GiB machine, p = 0.85,
  // no safety margin: budget 13.6GiB.
  MemoryModels models =
      LinearModels(0.01 * kGiBd, 0.004 * kGiBd, 0.5 * kGiBd);
  DynamicBatcherOptions options;
  options.machine_memory_bytes = 16.0 * kGiBd;
  options.overload_fraction = 0.85;
  options.safety_fraction = 0.0;
  DynamicBatcher batcher(models, options);
  // (13.6 - 0.5) / 0.01 = 1310 with zero residual.
  EXPECT_NEAR(batcher.MaxFeasibleUnits(0.0), 1310.0, 1.0);
  // Residual eats the budget: (13.6 - 6.55 - 0.5) / 0.01 = 655.
  EXPECT_NEAR(batcher.MaxFeasibleUnits(6.55 * kGiBd), 655.0, 1.0);
  // Feasibility bound holds at the returned size.
  double feasible = batcher.MaxFeasibleUnits(6.55 * kGiBd);
  EXPECT_LE(batcher.PredictedPeakBytes(feasible) + 6.55 * kGiBd,
            13.6 * kGiBd * (1.0 + 1e-9));
  // Nothing fits: wait for the drain.
  EXPECT_DOUBLE_EQ(batcher.MaxFeasibleUnits(13.5 * kGiBd), 0.0);
}

TEST(DynamicBatcherTest, CoalescesUntilAgeTrigger) {
  MemoryModels models = LinearModels(0.01 * kGiBd, 0.0, 0.0);
  DynamicBatcherOptions options;
  options.machine_memory_bytes = 16.0 * kGiBd;
  options.max_wait_seconds = 2.0;
  DynamicBatcher batcher(models, options);
  // Deep backlog: take the largest feasible batch immediately.
  double feasible = batcher.MaxFeasibleUnits(0.0);
  EXPECT_DOUBLE_EQ(batcher.NextBatchUnits(Obs(5000.0, 0.1, 0.0)),
                   feasible);
  // Shallow queue, young queries: keep coalescing.
  EXPECT_DOUBLE_EQ(batcher.NextBatchUnits(Obs(100.0, 0.1, 0.0)), 0.0);
  // Shallow queue, but the oldest query hit the deadline: fire with what
  // is queued.
  EXPECT_DOUBLE_EQ(batcher.NextBatchUnits(Obs(100.0, 2.5, 0.0)), 100.0);
}

// ------------------------------------------------------------ serving loop

TEST(ServingLoopTest, CompletesAllQueriesAndAggregates) {
  ArrivalOptions arrival_options;
  arrival_options.seed = 11;
  arrival_options.horizon_seconds = 30.0;
  ArrivalProcess arrivals(TwoSteadyClients(0.8, 1.0), arrival_options);
  FixedBatcher policy(4.0, /*max_wait_seconds=*/2.0);
  BatchExecutor executor =
      [](const std::vector<QueryArrival>& batch,
         double /*residual*/) -> Result<BatchExecution> {
    double units = 0.0;
    for (const QueryArrival& q : batch) units += q.units;
    BatchExecution exec;
    exec.seconds = 0.5 + 0.1 * units;
    exec.peak_memory_bytes = 1e6 * units;
    exec.residual_bytes = 1e5 * units;
    return exec;
  };
  ServiceOptions options;
  options.horizon_seconds = 30.0;
  options.drain_delay_seconds = 5.0;
  ServingLoop loop(arrivals, AdmissionOptions{}, policy, executor,
                   options);
  auto report = loop.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ServiceReport& r = report.value();
  ASSERT_GT(r.completed, 10u);
  EXPECT_EQ(r.shed, 0u);
  EXPECT_EQ(r.completed + r.shed, r.queries.size());
  uint64_t per_client_sum = 0;
  for (uint64_t n : r.per_client_completed) per_client_sum += n;
  EXPECT_EQ(per_client_sum, r.completed);
  EXPECT_LE(r.p50_latency_seconds, r.p95_latency_seconds);
  EXPECT_LE(r.p95_latency_seconds, r.p99_latency_seconds);
  EXPECT_LE(r.p99_latency_seconds, r.max_latency_seconds);
  EXPECT_GT(r.utilization, 0.0);
  EXPECT_LE(r.utilization, 1.0);
  EXPECT_FALSE(r.batches.empty());
  for (const QueryOutcome& q : r.queries) {
    EXPECT_GE(q.start_seconds, q.arrival_seconds);
    EXPECT_GE(q.finish_seconds, q.start_seconds);
  }
  // Determinism: the same configuration replays identically.
  ServingLoop again(arrivals, AdmissionOptions{}, policy, executor,
                    options);
  auto replay = again.Run();
  ASSERT_TRUE(replay.ok());
  EXPECT_DOUBLE_EQ(replay.value().p99_latency_seconds,
                   r.p99_latency_seconds);
  EXPECT_EQ(replay.value().batches.size(), r.batches.size());
}

TEST(ServingLoopTest, DynamicBatchesStayFeasibleUnderResidualPressure) {
  // A hard burst against a tight 1GiB machine: the dynamic batcher must
  // shrink its batches as unflushed residual piles up, and every formed
  // batch must satisfy peak(W) + residual <= p * M at formation time.
  // ~200 one-unit queries land within half a second, so from the first
  // decision point the queue is deeper than anything feasible.
  std::vector<ClientSpec> clients(2);
  for (int i = 0; i < 2; ++i) {
    clients[i].name = i == 0 ? "alpha" : "beta";
    clients[i].trace = {{0.5, 200.0}};
    clients[i].units_per_query = 1.0;
  }
  ArrivalOptions arrival_options;
  arrival_options.seed = 13;
  arrival_options.horizon_seconds = 0.5;
  ArrivalProcess arrivals(clients, arrival_options);

  MemoryModels models = LinearModels(0.01 * kGiBd, 0.004 * kGiBd, 0.0);
  DynamicBatcherOptions batcher_options;
  batcher_options.machine_memory_bytes = 1.0 * kGiBd;
  batcher_options.overload_fraction = 0.85;
  batcher_options.safety_fraction = 0.0;
  batcher_options.max_wait_seconds = 1.0;
  DynamicBatcher policy(models, batcher_options);
  const double budget = 0.85 * kGiBd;

  BatchExecutor executor =
      [&models](const std::vector<QueryArrival>& batch,
                double residual) -> Result<BatchExecution> {
    double units = 0.0;
    for (const QueryArrival& q : batch) units += q.units;
    BatchExecution exec;
    exec.seconds = 1.0 + 0.05 * units;
    exec.peak_memory_bytes = models.peak.Eval(units) + residual;
    exec.residual_bytes = models.residual.Eval(units);
    return exec;
  };
  ServiceOptions options;
  options.horizon_seconds = 0.5;
  options.drain_delay_seconds = 600.0;  // Longer than the whole run.
  ServingLoop loop(arrivals, AdmissionOptions{}, policy, executor,
                   options);
  auto report = loop.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ServiceReport& r = report.value();
  ASSERT_GT(r.batches.size(), 2u);
  for (const ServiceBatchTrace& batch : r.batches) {
    EXPECT_LE(models.peak.Eval(batch.units) +
                  batch.residual_at_formation_bytes,
              budget * (1.0 + 1e-9))
        << "batch at t=" << batch.start_seconds;
    EXPECT_FALSE(batch.overloaded);
  }
  // The first batch fills the whole free budget; as its residual (and
  // the next ones') pile up unflushed, the batches shrink monotonically —
  // the paper's decreasing-batch pattern, produced online.
  EXPECT_NEAR(r.batches.front().units, 85.0, 1.0);  // (0.85GiB)/0.01GiB
  for (size_t i = 1; i < r.batches.size(); ++i) {
    EXPECT_LE(r.batches[i].units, r.batches[i - 1].units);
    EXPECT_GE(r.batches[i].residual_at_formation_bytes,
              r.batches[i - 1].residual_at_formation_bytes);
  }
  EXPECT_LT(r.batches.back().units, r.batches.front().units / 2.0);
  EXPECT_GT(r.peak_residual_bytes, 0.0);
}

TEST(ServingLoopTest, UnschedulableQueryFailsWithStatus) {
  std::vector<ClientSpec> clients(1);
  clients[0].name = "whale";
  clients[0].rate_per_second = 1.0;
  clients[0].units_per_query = 8.0;  // Bigger than the fixed batch.
  ArrivalOptions arrival_options;
  arrival_options.seed = 1;
  arrival_options.horizon_seconds = 4.0;
  ArrivalProcess arrivals(clients, arrival_options);
  FixedBatcher policy(2.0, /*max_wait_seconds=*/1.0);
  BatchExecutor executor =
      [](const std::vector<QueryArrival>&,
         double) -> Result<BatchExecution> {
    return BatchExecution{};
  };
  ServiceOptions options;
  options.horizon_seconds = 4.0;
  ServingLoop loop(arrivals, AdmissionOptions{}, policy, executor,
                   options);
  auto report = loop.Run();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

// ------------------------------------------------------- report + exports

TEST(ServiceReportTest, JsonCarriesSchemaVersionAndSummary) {
  ServiceReport report;
  report.policy = "dynamic";
  report.dataset = "DBLP";
  QueryOutcome q;
  q.units = 2.0;
  q.arrival_seconds = 1.0;
  q.start_seconds = 2.0;
  q.finish_seconds = 3.0;
  report.queries.push_back(q);
  ServiceBatchTrace batch;
  batch.units = 2.0;
  batch.seconds = 1.0;
  report.batches.push_back(batch);
  report.Finalize(/*num_clients=*/1, /*busy_seconds=*/1.0);
  EXPECT_EQ(report.completed, 1u);
  std::string json = ServiceReportToJson(report);
  EXPECT_NE(json.find("\"schema_version\":2"), std::string::npos);
  EXPECT_NE(json.find("\"p99_latency_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"policy\":\"dynamic\""), std::string::npos);
  // The per-query array is opt-in (it can dominate the file).
  EXPECT_EQ(json.find("\"queries\":["), std::string::npos);
  EXPECT_NE(ServiceReportToJson(report, /*include_queries=*/true)
                .find("\"queries\":["),
            std::string::npos);
}

TEST(ServiceReportTest, RunReportJsonCarriesSchemaVersion) {
  RunReport report;
  EXPECT_NE(RunReportToJson(report).find("\"schema_version\":2"),
            std::string::npos);
}

TEST(ServeSpecTest, ParsesTraceAndRejectsUnknownKeys) {
  auto trace = ParseTrace("40x1,20x12");
  ASSERT_TRUE(trace.ok());
  ASSERT_EQ(trace.value().size(), 2u);
  EXPECT_DOUBLE_EQ(trace.value()[0].duration_seconds, 40.0);
  EXPECT_DOUBLE_EQ(trace.value()[1].rate_per_second, 12.0);
  EXPECT_FALSE(ParseTrace("40x").ok());
  EXPECT_FALSE(ParseTrace("").ok());

  auto good = IniDocument::Parse("[s]\npolicy = fixed:512\nunits = 4\n");
  ASSERT_TRUE(good.ok());
  auto specs = ParseServeSpecs(good.value());
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  EXPECT_EQ(specs.value()[0].policy, "fixed:512");
  EXPECT_DOUBLE_EQ(specs.value()[0].units_per_query, 4.0);

  auto bad = IniDocument::Parse("[s]\nnot_a_key = 1\n");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(ParseServeSpecs(bad.value()).ok());
}

TEST(ServeSpecTest, RejectsCountsThatWouldWrap) {
  // Parse only: a cast would read -1 as 4294967295 machines or threads
  // and as 18446744073709551615 for either capacity.
  for (const std::string key : {"machines", "threads", "clients",
                                "queue_capacity", "per_client_capacity"}) {
    SCOPED_TRACE(key);
    auto document = IniDocument::Parse("[s]\n" + key + " = -1\n");
    ASSERT_TRUE(document.ok());
    const auto specs = ParseServeSpecs(document.value());
    ASSERT_FALSE(specs.ok());
    EXPECT_EQ(specs.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(specs.status().message().find(key + " must be in ["),
              std::string::npos)
        << specs.status().ToString();
  }
}

TEST(ServeSpecTest, RejectsOutOfDomainValuesBeforeRunning) {
  // Parse only: each value used to pass, a negative count or rate
  // silently, `40xabc` as a rate of 0, and `fixed:abc` only after the
  // dataset had been generated.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"units = -4", "units"},
      {"units = 0", "units"},
      {"rate = -2", "rate"},
      {"rate = nan", "rate"},
      {"horizon = -5", "horizon"},
      {"horizon = 0", "horizon"},
      {"horizon = inf", "horizon"},
      {"trace = 40xabc", "trace"},
      {"trace = 40x-1", "trace"},
      {"trace = 40x1,20x", "trace"},
      {"trace = abcx1", "trace"},
      {"policy = fixed:abc", "policy"},
      {"policy = fixed:0", "policy"},
      {"policy = fixed:-512", "policy"},
      {"policy = greedy", "policy"}};
  for (const auto& [line, key] : cases) {
    SCOPED_TRACE(line);
    auto document = IniDocument::Parse("[burst]\n" + line + "\n");
    ASSERT_TRUE(document.ok());
    const auto specs = ParseServeSpecs(document.value());
    ASSERT_FALSE(specs.ok());
    EXPECT_EQ(specs.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(specs.status().message().find("scenario 'burst': " + key),
              std::string::npos)
        << specs.status().ToString();
  }
  // The boundary values stay valid: no arrivals, and a trace pause.
  auto edge = IniDocument::Parse(
      "[edge]\nrate = 0\ntrace = 40x0,20x12\npolicy = fixed:0.5\n");
  ASSERT_TRUE(edge.ok());
  const auto specs = ParseServeSpecs(edge.value());
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  EXPECT_EQ(specs.value()[0].rate_per_second, 0.0);
}

}  // namespace
}  // namespace vcmp
