// Tests for the Pregel-style fault-tolerance model: checkpoint overhead,
// failure recovery with and without checkpoints, and the checkpoint
// interval tradeoff.

#include <gtest/gtest.h>

#include "engine/sync_engine.h"
#include "graph/datasets.h"
#include "graph/partition.h"
#include "tasks/bppr.h"
#include "test_util.h"

namespace vcmp {
namespace {

using testing_util::RelaxedCluster;

class FaultToleranceTest : public ::testing::Test {
 protected:
  FaultToleranceTest()
      : dataset_(LoadDataset(DatasetId::kDblp, 512.0)),
        partition_(HashPartitioner().Partition(dataset_.graph, 4)),
        context_{&dataset_.graph, &partition_, 1.0} {}

  EngineResult Run(uint64_t checkpoint_interval, uint64_t failure_round) {
    EngineOptions options;
    options.cluster = RelaxedCluster(4);
    options.profile = ProfileFor(SystemKind::kPregelPlus);
    options.checkpoint_interval_rounds = checkpoint_interval;
    options.inject_failure_at_round = failure_round;
    BpprCountingProgram program(context_, /*walks=*/64, {}, /*seed=*/3);
    SyncEngine engine(dataset_.graph, partition_, options);
    auto result = engine.Run(program);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.value_or(EngineResult{});
  }

  Dataset dataset_;
  Partitioning partition_;
  TaskContext context_;
};

TEST_F(FaultToleranceTest, NoCheckpointNoOverhead) {
  EngineResult result = Run(0, EngineOptions::kNoFailure);
  EXPECT_EQ(result.checkpoints_taken, 0u);
  EXPECT_DOUBLE_EQ(result.checkpoint_seconds, 0.0);
  EXPECT_DOUBLE_EQ(result.recovery_seconds, 0.0);
  EXPECT_FALSE(result.failure_recovered);
}

TEST_F(FaultToleranceTest, CheckpointsAddBoundedOverhead) {
  EngineResult baseline = Run(0, EngineOptions::kNoFailure);
  EngineResult checkpointed = Run(10, EngineOptions::kNoFailure);
  EXPECT_GT(checkpointed.checkpoints_taken, 0u);
  EXPECT_GT(checkpointed.checkpoint_seconds, 0.0);
  EXPECT_NEAR(checkpointed.seconds,
              baseline.seconds + checkpointed.checkpoint_seconds,
              1e-9 * checkpointed.seconds);
}

TEST_F(FaultToleranceTest, FailureWithoutCheckpointReplaysFromScratch) {
  EngineResult baseline = Run(0, EngineOptions::kNoFailure);
  EngineResult failed = Run(0, /*failure_round=*/20);
  EXPECT_TRUE(failed.failure_recovered);
  // The replay re-runs everything executed before the failure.
  EXPECT_GT(failed.recovery_seconds, 0.0);
  EXPECT_NEAR(failed.seconds, baseline.seconds + failed.recovery_seconds,
              1e-9 * failed.seconds);
}

TEST_F(FaultToleranceTest, CheckpointsShrinkRecoveryCost) {
  EngineResult uncheckpointed = Run(0, /*failure_round=*/20);
  EngineResult checkpointed = Run(5, /*failure_round=*/20);
  EXPECT_TRUE(checkpointed.failure_recovered);
  // Replaying from the round-20 checkpoint neighbourhood is far cheaper
  // than replaying 20 rounds from scratch.
  EXPECT_LT(checkpointed.recovery_seconds,
            0.7 * uncheckpointed.recovery_seconds);
}

TEST_F(FaultToleranceTest, IntervalTradeoffIsUnimodalish) {
  // Frequent checkpoints pay overhead, sparse ones pay replay: with a
  // failure injected, some intermediate interval beats both extremes.
  double tight = Run(2, 30).seconds;
  double medium = Run(10, 30).seconds;
  double none = Run(0, 30).seconds;
  EXPECT_LT(medium, none);
  EXPECT_LE(medium, tight);
}

TEST_F(FaultToleranceTest, DeterministicAccounting) {
  EngineResult a = Run(5, 20);
  EngineResult b = Run(5, 20);
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
  EXPECT_DOUBLE_EQ(a.recovery_seconds, b.recovery_seconds);
  EXPECT_EQ(a.checkpoints_taken, b.checkpoints_taken);
}

}  // namespace
}  // namespace vcmp
