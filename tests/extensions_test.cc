// Tests for the extension surface beyond the core reproduction: the
// aggregator mechanism + tolerance-mode PageRank, the batch-count search,
// the source-batched BPPR semantics (paper Section 4.9), superstep
// splitting (Facebook's Giraph improvement), report export, and the ASCII
// chart renderer.

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "core/batch_search.h"
#include "core/runner.h"
#include "engine/sync_engine.h"
#include "graph/generators.h"
#include "metrics/ascii_chart.h"
#include "metrics/export.h"
#include "tasks/bppr.h"
#include "tasks/bppr_source_batch.h"
#include "tasks/pagerank.h"
#include "test_util.h"

namespace vcmp {
namespace {

using testing_util::RelaxedCluster;

Dataset TinyDataset() {
  return LoadDataset(DatasetId::kDblp, /*scale_override=*/512.0);
}

// ---------------------------------------------------------------------------
// Aggregators & tolerance-mode PageRank
// ---------------------------------------------------------------------------

TEST(AggregatorTest, ToleranceStopsPageRankEarly) {
  Dataset dataset = TinyDataset();
  Partitioning partition =
      HashPartitioner().Partition(dataset.graph, 4);
  TaskContext context{&dataset.graph, &partition, 1.0};

  EngineOptions options;
  options.cluster = RelaxedCluster(4);
  options.profile = ProfileFor(SystemKind::kPregelPlus);

  PageRankProgram::Params fixed;
  fixed.iterations = 60;
  PageRankProgram fixed_program(context, fixed);
  SyncEngine fixed_engine(dataset.graph, partition, options);
  auto fixed_result = fixed_engine.Run(fixed_program);
  ASSERT_TRUE(fixed_result.ok());
  EXPECT_EQ(fixed_result.value().num_rounds, 61u);

  PageRankProgram::Params tolerant = fixed;
  tolerant.tolerance = 1e-4;
  PageRankProgram tolerant_program(context, tolerant);
  SyncEngine tolerant_engine(dataset.graph, partition, options);
  auto tolerant_result = tolerant_engine.Run(tolerant_program);
  ASSERT_TRUE(tolerant_result.ok());
  // Convergence fires well before the cap...
  EXPECT_LT(tolerant_result.value().num_rounds, 40u);
  EXPECT_GT(tolerant_result.value().num_rounds, 5u);
  // ...without materially changing the answer.
  double l1 = 0.0;
  for (VertexId v = 0; v < dataset.graph.NumVertices(); ++v) {
    l1 += std::fabs(fixed_program.Rank(v) - tolerant_program.Rank(v));
  }
  EXPECT_LT(l1, 1e-3);
}

// ---------------------------------------------------------------------------
// Batch-count search
// ---------------------------------------------------------------------------

TEST(BatchSearchTest, FindsInteriorOptimum) {
  // DBLP at scale 64 with Galaxy-8 and W=10240: the doubling sweep in the
  // integration tests puts the optimum at 2-4 batches; the search must
  // land there and never pick the overloading 1-batch setting.
  Dataset dataset = LoadDataset(DatasetId::kDblp, 64.0);
  RunnerOptions options;
  options.cluster = ClusterSpec::Galaxy8();
  BpprTask task;
  auto search = FindOptimalBatchCount(dataset, options, task, 10240.0);
  ASSERT_TRUE(search.ok()) << search.status().ToString();
  EXPECT_GE(search.value().best_batches, 2u);
  EXPECT_LE(search.value().best_batches, 8u);
  EXPECT_GT(search.value().probes.size(), 3u);
  // The probe list records the overloaded Full-Parallelism attempt.
  bool saw_overload = false;
  for (const BatchProbe& probe : search.value().probes) {
    if (probe.batches == 1) saw_overload = probe.overloaded;
  }
  EXPECT_TRUE(saw_overload);
}

TEST(BatchSearchTest, LightWorkloadPrefersFullParallelism) {
  Dataset dataset = TinyDataset();
  RunnerOptions options;
  options.cluster = RelaxedCluster(4);
  BpprTask task;
  auto search = FindOptimalBatchCount(dataset, options, task, 64.0);
  ASSERT_TRUE(search.ok());
  EXPECT_EQ(search.value().best_batches, 1u);
}

TEST(BatchSearchTest, RejectsBadArguments) {
  Dataset dataset = TinyDataset();
  RunnerOptions options;
  options.cluster = RelaxedCluster(2);
  BpprTask task;
  EXPECT_FALSE(FindOptimalBatchCount(dataset, options, task, 0.0).ok());
  BatchSearchOptions bad;
  bad.max_batches = 0;
  EXPECT_FALSE(
      FindOptimalBatchCount(dataset, options, task, 64.0, bad).ok());
}

// ---------------------------------------------------------------------------
// Source-batched BPPR (Section 4.9 alternative workload semantics)
// ---------------------------------------------------------------------------

TEST(BpprSourceBatchTest, ConservesSimulatedWalks) {
  Dataset dataset = TinyDataset();
  Partitioning partition = HashPartitioner().Partition(dataset.graph, 4);
  TaskContext context{&dataset.graph, &partition, 1.0};
  BpprSourceBatchTask::Params params;
  params.walks_per_source = 500;
  params.max_sampled_sources = 8;
  BpprSourceBatchProgram program(context, /*num_queries=*/64, params, 9);
  EXPECT_DOUBLE_EQ(program.extrapolation(), 8.0);

  EngineOptions options;
  options.cluster = RelaxedCluster(4);
  options.profile = ProfileFor(SystemKind::kPregelPlus);
  SyncEngine engine(dataset.graph, partition, options);
  ASSERT_TRUE(engine.Run(program).ok());
  // Every physically simulated walk (8 sampled sources x 500) terminates.
  EXPECT_EQ(program.TotalStopped(), 8u * 500u);
}

TEST(BpprSourceBatchTest, WorkloadScalesMessagesLinearly) {
  Dataset dataset = TinyDataset();
  RunnerOptions options;
  options.cluster = RelaxedCluster(4);
  BpprSourceBatchTask task;
  MultiProcessingRunner runner_a(dataset, options);
  auto small =
      runner_a.Run(task, BatchSchedule::FullParallelism(64)).value();
  MultiProcessingRunner runner_b(dataset, options);
  auto large =
      runner_b.Run(task, BatchSchedule::FullParallelism(640)).value();
  EXPECT_NEAR(large.total_messages, 10.0 * small.total_messages,
              0.2 * large.total_messages);
}

TEST(BpprSourceBatchTest, RejectsBroadcastFlavor) {
  Dataset dataset = TinyDataset();
  Partitioning partition = HashPartitioner().Partition(dataset.graph, 2);
  TaskContext context{&dataset.graph, &partition, 1.0};
  BpprSourceBatchTask task;
  EXPECT_FALSE(
      task.MakeProgram(context, ProgramFlavor::kBroadcast, 8, 1).ok());
}

// ---------------------------------------------------------------------------
// Superstep splitting (Giraph sub-steps)
// ---------------------------------------------------------------------------

TEST(SuperstepSplitTest, CapsBufferMemoryAtThePriceOfBarriers) {
  Dataset dataset = LoadDataset(DatasetId::kDblp, 64.0);
  BpprTask task;
  auto run = [&](double threshold) {
    RunnerOptions options;
    options.cluster = ClusterSpec::Galaxy8();
    options.system = SystemKind::kGiraph;
    SystemProfile profile = ProfileFor(SystemKind::kGiraph);
    profile.superstep_split_threshold_bytes = threshold;
    options.profile_override = profile;
    MultiProcessingRunner runner(dataset, options);
    auto report =
        runner.Run(task, BatchSchedule::FullParallelism(2048));
    EXPECT_TRUE(report.ok());
    return report.value_or(RunReport{});
  };
  RunReport stock = run(0.0);
  ASSERT_FALSE(stock.overloaded);
  RunReport split = run(2.0 * (1ULL << 30));
  // Splitting caps the per-round buffer footprint...
  EXPECT_LT(split.peak_memory_bytes, stock.peak_memory_bytes);
  // ...while both runs move the same logical traffic.
  EXPECT_NEAR(split.total_messages, stock.total_messages,
              0.01 * stock.total_messages);
}

TEST(SuperstepSplitTest, RescuesOverloadingWorkload) {
  // A workload that overflows stock Giraph completes with sub-steps.
  Dataset dataset = LoadDataset(DatasetId::kDblp, 64.0);
  BpprTask task;
  RunnerOptions options;
  options.cluster = ClusterSpec::Galaxy8();
  options.system = SystemKind::kGiraph;
  MultiProcessingRunner stock_runner(dataset, options);
  auto stock =
      stock_runner.Run(task, BatchSchedule::FullParallelism(8192));
  ASSERT_TRUE(stock.ok());
  EXPECT_TRUE(stock.value().overloaded);

  SystemProfile profile = ProfileFor(SystemKind::kGiraph);
  profile.superstep_split_threshold_bytes = 1.5 * (1ULL << 30);
  options.profile_override = profile;
  MultiProcessingRunner split_runner(dataset, options);
  auto split =
      split_runner.Run(task, BatchSchedule::FullParallelism(8192));
  ASSERT_TRUE(split.ok());
  EXPECT_FALSE(split.value().overloaded);
}

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

TEST(ExportTest, JsonContainsKeyFields) {
  RunReport report;
  report.system = "Pregel+";
  report.dataset = "DBLP";
  report.task = "BPPR";
  report.cluster = "Galaxy-8";
  report.workload = 1024;
  BatchReport batch;
  batch.workload = 1024;
  batch.seconds = 173.3;
  batch.rounds = 90;
  report.Absorb(batch);
  std::string json = RunReportToJson(report);
  EXPECT_NE(json.find("\"system\":\"Pregel+\""), std::string::npos);
  EXPECT_NE(json.find("\"total_seconds\":"), std::string::npos);
  EXPECT_NE(json.find("\"batches\":[{"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(ExportTest, JsonEscapesSpecials) {
  using internal_export::JsonEscape;
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(ExportTest, CsvRoundTripThroughFile) {
  std::vector<RoundStats> rounds(3);
  for (size_t i = 0; i < rounds.size(); ++i) {
    rounds[i].round = i;
    rounds[i].messages = 100.0 * (i + 1);
    rounds[i].total_seconds = 1.5 * (i + 1);
  }
  std::string path = ::testing::TempDir() + "/rounds.csv";
  ASSERT_TRUE(WriteRoundStatsCsv(rounds, path).ok());
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 4);  // Header + 3 rounds.
  EXPECT_FALSE(WriteRoundStatsCsv(rounds, "/nonexistent/dir/x.csv").ok());
}

TEST(ExportTest, JsonWriterToFile) {
  RunReport report;
  report.system = "GraphD";
  std::string path = ::testing::TempDir() + "/report.json";
  ASSERT_TRUE(WriteRunReportJson(report, path).ok());
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("GraphD"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ASCII chart
// ---------------------------------------------------------------------------

TEST(AsciiChartTest, RendersBarsProportionally) {
  std::vector<ChartBar> bars = {
      {"1-batch", 100.0, false, false},
      {"2-batch", 50.0, false, true},
      {"4-batch", 0.0, false, false},
  };
  std::string chart = RenderBarChart(bars, 20);
  // Longest bar fills the width; half-value bar is half as long.
  EXPECT_NE(chart.find(std::string(20, '#')), std::string::npos);
  EXPECT_NE(chart.find(std::string(10, '#') + " "), std::string::npos);
  EXPECT_NE(chart.find("2-batch *|"), std::string::npos);
  EXPECT_NE(chart.find("100.0s"), std::string::npos);
}

TEST(AsciiChartTest, SaturatedBarsMarkOverload) {
  std::vector<ChartBar> bars = {
      {"1-batch", 6000.0, true, false},
      {"2-batch", 10.0, false, true},
  };
  std::string chart = RenderBarChart(bars, 10);
  EXPECT_NE(chart.find("> Overload"), std::string::npos);
}

TEST(AsciiChartTest, EmptyInput) {
  EXPECT_EQ(RenderBarChart({}), "");
}

}  // namespace
}  // namespace vcmp
