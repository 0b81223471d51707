// Tests for the second extension wave: geometric-decay schedules, the
// Connected Components baseline, and the out-of-core (disk-bound) tuner.

#include <gtest/gtest.h>

#include "core/batch_schedule.h"
#include "core/runner.h"
#include "core/tuning/disk_planner.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "tasks/bppr.h"
#include "tasks/connected_components.h"
#include "tasks/task_registry.h"
#include "test_util.h"

namespace vcmp {
namespace {

using testing_util::RelaxedCluster;

// ---------------------------------------------------------------------------
// Geometric-decay schedules
// ---------------------------------------------------------------------------

TEST(GeometricDecayTest, PreservesTotalAndDecreases) {
  BatchSchedule schedule = BatchSchedule::GeometricDecay(5120, 5, 0.5);
  EXPECT_EQ(schedule.NumBatches(), 5u);
  EXPECT_DOUBLE_EQ(schedule.TotalWorkload(), 5120.0);
  const auto& w = schedule.workloads();
  for (size_t i = 1; i < w.size(); ++i) {
    EXPECT_LE(w[i], w[i - 1]);
  }
  // Ratio 0.5 over 5 batches: the first batch holds ~16/31 of the total.
  EXPECT_NEAR(w[0], 5120.0 * 16.0 / 31.0, 2.0);
}

TEST(GeometricDecayTest, RatioOneIsEqualSplit) {
  BatchSchedule geometric = BatchSchedule::GeometricDecay(100, 4, 1.0);
  BatchSchedule equal = BatchSchedule::Equal(100, 4);
  EXPECT_DOUBLE_EQ(geometric.TotalWorkload(), equal.TotalWorkload());
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(geometric.workloads()[i], equal.workloads()[i], 1.0);
  }
}

TEST(GeometricDecayTest, BeatsEqualSplitUnderResidualPressure) {
  // The paper's Section 4.10 guideline: later batches should be smaller.
  // Under heavy residual pressure a decaying split must not lose to the
  // equal one.
  Dataset dataset = LoadDataset(DatasetId::kDblp, 64.0);
  RunnerOptions options;
  options.cluster = ClusterSpec::Galaxy8();
  BpprTask task;
  auto run = [&](const BatchSchedule& schedule) {
    MultiProcessingRunner runner(dataset, options);
    auto report = runner.Run(task, schedule);
    EXPECT_TRUE(report.ok());
    return report.value_or(RunReport{}).total_seconds;
  };
  double equal = run(BatchSchedule::Equal(12800, 2));
  double decay = run(BatchSchedule::GeometricDecay(12800, 2, 0.6));
  EXPECT_LT(decay, equal);
}

// ---------------------------------------------------------------------------
// Connected Components
// ---------------------------------------------------------------------------

TEST(ConnectedComponentsTest, LabelsTwoCliques) {
  // Two disjoint triangles: components {0,1,2} and {3,4,5}.
  GraphBuilder builder(6);
  builder.AddEdges({{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  Graph graph = builder.Build({.symmetrize = true});
  Partitioning partition = HashPartitioner().Partition(graph, 2);
  TaskContext context{&graph, &partition, 1.0};
  ConnectedComponentsProgram program(context);

  EngineOptions options;
  options.cluster = RelaxedCluster(2);
  options.profile = ProfileFor(SystemKind::kPregelPlus);
  SyncEngine engine(graph, partition, options);
  ASSERT_TRUE(engine.Run(program).ok());

  EXPECT_EQ(program.NumComponents(), 2u);
  for (VertexId v : {0u, 1u, 2u}) EXPECT_EQ(program.ComponentOf(v), 0u);
  for (VertexId v : {3u, 4u, 5u}) EXPECT_EQ(program.ComponentOf(v), 3u);
}

TEST(ConnectedComponentsTest, RingIsOneComponent) {
  Graph ring = GenerateRing(257, 1);
  Partitioning partition = HashPartitioner().Partition(ring, 4);
  TaskContext context{&ring, &partition, 1.0};
  ConnectedComponentsProgram program(context);
  EngineOptions options;
  options.cluster = RelaxedCluster(4);
  options.profile = ProfileFor(SystemKind::kPregelPlus);
  SyncEngine engine(ring, partition, options);
  auto result = engine.Run(program);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(program.NumComponents(), 1u);
  // Label propagation along a ring takes O(n) rounds, not O(log n) —
  // hash-min's known worst case; the engine must still terminate.
  EXPECT_GT(result.value().num_rounds, 100u);
}

TEST(ConnectedComponentsTest, AvailableThroughRegistry) {
  auto task = MakeTask("ConnectedComponents");
  ASSERT_TRUE(task.ok());
  EXPECT_EQ(task.value()->name(), "ConnectedComponents");
}

// ---------------------------------------------------------------------------
// Disk-bound tuner
// ---------------------------------------------------------------------------

TEST(DiskTunerTest, RejectsInMemorySystems) {
  Dataset dataset = LoadDataset(DatasetId::kDblp, 512.0);
  RunnerOptions options;
  options.cluster = RelaxedCluster(4);
  options.system = SystemKind::kPregelPlus;
  DiskTuner tuner(dataset, options);
  BpprTask task;
  auto plan = tuner.Tune(task, 1024.0);
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kFailedPrecondition);
}

TEST(DiskTunerTest, PlansEqualSplitBelowSaturationEdge) {
  // Orkut at Galaxy-27 with W=4096 is Table 3's spill regime: the tuner
  // must land near the measured optimum (4-8 batches) without probing
  // heavy workloads.
  Dataset dataset = LoadDataset(DatasetId::kOrkut, 512.0);
  RunnerOptions options;
  options.cluster = ClusterSpec::Galaxy27();
  options.system = SystemKind::kGraphD;
  DiskTuner tuner(dataset, options);
  BpprTask task;
  auto plan = tuner.Tune(task, 4096.0);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_GE(plan.value().schedule.NumBatches(), 3u);
  EXPECT_LE(plan.value().schedule.NumBatches(), 12u);
  EXPECT_NEAR(plan.value().schedule.TotalWorkload(), 4096.0, 0.5);
  EXPECT_GE(plan.value().samples.size(), 3u);

  // The planned schedule must avoid saturation and beat Full-Parallelism.
  MultiProcessingRunner tuned_runner(dataset, options);
  auto tuned = tuned_runner.Run(task, plan.value().schedule);
  ASSERT_TRUE(tuned.ok());
  EXPECT_FALSE(tuned.value().disk_saturated);
  MultiProcessingRunner full_runner(dataset, options);
  auto full = full_runner.Run(task, BatchSchedule::FullParallelism(4096));
  ASSERT_TRUE(full.ok());
  EXPECT_LT(tuned.value().total_seconds,
            0.7 * full.value().total_seconds);
}

TEST(DiskTunerTest, LightWorkloadStaysFullParallelism) {
  Dataset dataset = LoadDataset(DatasetId::kOrkut, 512.0);
  RunnerOptions options;
  options.cluster = ClusterSpec::Galaxy27();
  options.system = SystemKind::kGraphD;
  DiskTuner tuner(dataset, options);
  BpprTask task;
  auto plan = tuner.Tune(task, 64.0);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan.value().schedule.IsFullParallelism());
}

}  // namespace
}  // namespace vcmp
