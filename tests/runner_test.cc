#include "core/runner.h"

#include <gtest/gtest.h>

#include "core/batch_schedule.h"
#include "tasks/bppr.h"
#include "tasks/task_registry.h"
#include "test_util.h"

namespace vcmp {
namespace {

using testing_util::RelaxedCluster;

Dataset TinyDataset() {
  // DBLP stand-in at aggressive scale: ~1.2K vertices, fast to run.
  return LoadDataset(DatasetId::kDblp, /*scale_override=*/512.0);
}

RunnerOptions RelaxedRunner(uint32_t machines) {
  RunnerOptions options;
  options.cluster = RelaxedCluster(machines);
  options.system = SystemKind::kPregelPlus;
  return options;
}

TEST(BatchScheduleTest, EqualSplitsPreserveTotal) {
  BatchSchedule schedule = BatchSchedule::Equal(100, 3);
  EXPECT_EQ(schedule.NumBatches(), 3u);
  EXPECT_DOUBLE_EQ(schedule.TotalWorkload(), 100.0);
  EXPECT_DOUBLE_EQ(schedule.workloads()[0], 34.0);
  EXPECT_DOUBLE_EQ(schedule.workloads()[2], 33.0);
}

TEST(BatchScheduleTest, FullParallelismIsOneBatch) {
  BatchSchedule schedule = BatchSchedule::FullParallelism(64);
  EXPECT_TRUE(schedule.IsFullParallelism());
  EXPECT_DOUBLE_EQ(schedule.TotalWorkload(), 64.0);
}

TEST(BatchScheduleTest, TwoBatchDelta) {
  BatchSchedule schedule = BatchSchedule::TwoBatch(100, 20);
  EXPECT_DOUBLE_EQ(schedule.workloads()[0], 60.0);
  EXPECT_DOUBLE_EQ(schedule.workloads()[1], 40.0);
  BatchSchedule negative = BatchSchedule::TwoBatch(100, -20);
  EXPECT_DOUBLE_EQ(negative.workloads()[0], 40.0);
}

TEST(BatchScheduleTest, ToStringListsWorkloads) {
  EXPECT_EQ(BatchSchedule({2747, 1388, 644}).ToString(),
            "[2747, 1388, 644]");
}

TEST(RunnerTest, RunsAllBatchesAndAggregates) {
  Dataset dataset = TinyDataset();
  MultiProcessingRunner runner(dataset, RelaxedRunner(4));
  BpprTask task;
  auto report = runner.Run(task, BatchSchedule::Equal(32, 4));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().batches.size(), 4u);
  EXPECT_FALSE(report.value().overloaded);
  EXPECT_GT(report.value().total_seconds, 0.0);
  EXPECT_GT(report.value().total_messages, 0.0);
  EXPECT_EQ(report.value().task, "BPPR");
  EXPECT_EQ(report.value().dataset, "DBLP");
}

TEST(RunnerTest, ResidualMemoryAccumulatesAcrossBatches) {
  Dataset dataset = TinyDataset();
  MultiProcessingRunner runner(dataset, RelaxedRunner(4));
  BpprTask task;
  auto report = runner.Run(task, BatchSchedule::Equal(64, 4));
  ASSERT_TRUE(report.ok());
  const auto& batches = report.value().batches;
  ASSERT_EQ(batches.size(), 4u);
  // Later batches carry the residual of earlier ones: peak residual must
  // strictly grow batch over batch.
  for (size_t i = 1; i < batches.size(); ++i) {
    EXPECT_GT(batches[i].peak_residual_bytes,
              batches[i - 1].peak_residual_bytes);
  }
  // And the memory peak of batch 4 exceeds batch 1's for equal workloads.
  EXPECT_GT(batches[3].peak_memory_bytes, batches[0].peak_memory_bytes);
}

TEST(RunnerTest, MoreBatchesLowerCongestion) {
  Dataset dataset = TinyDataset();
  BpprTask task;
  double previous = 1e100;
  for (uint32_t batches : {1u, 2u, 4u}) {
    MultiProcessingRunner runner(dataset, RelaxedRunner(4));
    auto report = runner.Run(task, BatchSchedule::Equal(256, batches));
    ASSERT_TRUE(report.ok());
    double congestion = report.value().MessagesPerRound();
    EXPECT_LT(congestion, previous);
    previous = congestion;
  }
}

TEST(RunnerTest, SkipsZeroWorkloadBatches) {
  Dataset dataset = TinyDataset();
  MultiProcessingRunner runner(dataset, RelaxedRunner(2));
  BpprTask task;
  auto report = runner.Run(task, BatchSchedule::TwoBatch(64, 64));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().batches.size(), 1u);  // Second batch was empty.
}

TEST(RunnerTest, EmptyScheduleRejected) {
  Dataset dataset = TinyDataset();
  MultiProcessingRunner runner(dataset, RelaxedRunner(2));
  BpprTask task;
  EXPECT_FALSE(runner.Run(task, BatchSchedule()).ok());
}

TEST(RunnerTest, ObserverSeesEveryBatchProgram) {
  Dataset dataset = TinyDataset();
  RunnerOptions options = RelaxedRunner(2);
  int observed = 0;
  options.batch_observer = [&](const VertexProgram&) { ++observed; };
  MultiProcessingRunner runner(dataset, options);
  BpprTask task;
  ASSERT_TRUE(runner.Run(task, BatchSchedule::Equal(16, 4)).ok());
  EXPECT_EQ(observed, 4);
}

TEST(RunnerTest, OverloadStopsExecutionAndBillsCutoff) {
  Dataset dataset = TinyDataset();
  RunnerOptions options = RelaxedRunner(2);
  options.cluster.machine.memory_bytes = 64.0 * 1024;  // 64KB machines.
  options.cluster.machine.usable_memory_bytes = 48.0 * 1024;
  MultiProcessingRunner runner(dataset, options);
  BpprTask task;
  auto report = runner.Run(task, BatchSchedule::Equal(1024, 4));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().overloaded);
  EXPECT_LT(report.value().batches.size(), 4u);
  EXPECT_GE(report.value().total_seconds,
            options.cost.overload_cutoff_seconds);
}

TEST(RunnerTest, CloudRunsBillMonetaryCost) {
  Dataset dataset = TinyDataset();
  RunnerOptions options = RelaxedRunner(4);
  options.cluster.cloud = true;
  MultiProcessingRunner runner(dataset, options);
  BpprTask task;
  auto report = runner.Run(task, BatchSchedule::Equal(16, 2));
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report.value().monetary_cost, 0.0);
}

TEST(RunnerTest, MirrorSystemUsesBroadcastFlavor) {
  Dataset dataset = TinyDataset();
  RunnerOptions options = RelaxedRunner(4);
  options.system = SystemKind::kPregelPlusMirror;
  MultiProcessingRunner runner(dataset, options);
  EXPECT_TRUE(runner.profile().mirroring);
  BpprTask task;
  auto report = runner.Run(task, BatchSchedule::Equal(8, 2));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report.value().total_messages, 0.0);
}

TEST(RunnerTest, GraphLabUsesEdgeCutPartitioner) {
  Dataset dataset = TinyDataset();
  RunnerOptions options = RelaxedRunner(4);
  options.system = SystemKind::kGraphLab;
  MultiProcessingRunner runner(dataset, options);
  EXPECT_EQ(runner.profile().partitioner, "greedy-edge-cut");
}

TEST(RunnerTest, GeometricScheduleRunsAllBatches) {
  Dataset dataset = TinyDataset();
  MultiProcessingRunner runner(dataset, RelaxedRunner(4));
  BpprTask task;
  auto report =
      runner.Run(task, BatchSchedule::GeometricDecay(64, 4, 0.5));
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report.value().batches.size(), 4u);
  // Decreasing batch workloads process decreasing message volumes.
  EXPECT_GT(report.value().batches[0].messages,
            report.value().batches[3].messages);
}

TEST(RunnerTest, ThreadCountDoesNotChangeResults) {
  Dataset dataset = TinyDataset();
  BpprTask task;
  RunnerOptions serial = RelaxedRunner(4);
  RunnerOptions threaded = RelaxedRunner(4);
  threaded.execution_threads = 4;
  MultiProcessingRunner serial_runner(dataset, serial);
  MultiProcessingRunner threaded_runner(dataset, threaded);
  auto a = serial_runner.Run(task, BatchSchedule::Equal(32, 2));
  auto b = threaded_runner.Run(task, BatchSchedule::Equal(32, 2));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a.value().total_seconds, b.value().total_seconds);
  EXPECT_DOUBLE_EQ(a.value().total_messages, b.value().total_messages);
}

TEST(RunnerTest, CheckpointingFlowsThroughToBatches) {
  Dataset dataset = TinyDataset();
  RunnerOptions options = RelaxedRunner(4);
  options.checkpoint_interval_rounds = 10;
  MultiProcessingRunner runner(dataset, options);
  BpprTask task;
  auto with = runner.Run(task, BatchSchedule::Equal(64, 2));
  ASSERT_TRUE(with.ok());
  MultiProcessingRunner plain_runner(dataset, RelaxedRunner(4));
  auto without = plain_runner.Run(task, BatchSchedule::Equal(64, 2));
  ASSERT_TRUE(without.ok());
  EXPECT_GT(with.value().total_seconds, without.value().total_seconds);
}

TEST(RunnerTest, AllSupersteppingSystemsExecuteBppr) {
  Dataset dataset = TinyDataset();
  BpprTask task;
  for (SystemKind kind :
       {SystemKind::kGiraph, SystemKind::kGiraphAsync,
        SystemKind::kPregelPlus, SystemKind::kPregelPlusMirror,
        SystemKind::kGraphD, SystemKind::kGraphLab}) {
    RunnerOptions options = RelaxedRunner(4);
    options.system = kind;
    MultiProcessingRunner runner(dataset, options);
    auto report = runner.Run(task, BatchSchedule::Equal(8, 2));
    ASSERT_TRUE(report.ok()) << SystemName(kind);
    EXPECT_GT(report.value().total_messages, 0.0) << SystemName(kind);
  }
}

TEST(RunnerTest, RejectsAnAsynchronousProfile) {
  // GraphLab(async) runs on GasEngine only (bench/table4_async_vs_sync).
  Dataset dataset = TinyDataset();
  RunnerOptions options = RelaxedRunner(4);
  options.system = SystemKind::kGraphLabAsync;
  MultiProcessingRunner runner(dataset, options);
  BpprTask task;
  auto report = runner.Run(task, BatchSchedule::Equal(8, 2));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.status().message().find("table4_async_vs_sync"),
            std::string::npos);
}

}  // namespace
}  // namespace vcmp
