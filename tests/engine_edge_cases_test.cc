// Edge-case coverage for the superstep engine: overload continuation,
// empty-graph handling, per-round statistics plumbing.

#include <gtest/gtest.h>

#include "engine/sync_engine.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/partition.h"
#include "tasks/bppr.h"
#include "tasks/pagerank.h"
#include "test_util.h"

namespace vcmp {
namespace {

using testing_util::RelaxedCluster;

TEST(EngineEdgeCaseTest, OverloadWithoutEarlyStopRunsToQuiescence) {
  Graph ring = GenerateRing(64, 2);
  Partitioning part = HashPartitioner().Partition(ring, 2);
  TaskContext context{&ring, &part, 1.0, false};

  EngineOptions options;
  options.cluster = RelaxedCluster(2);
  options.cluster.machine.memory_bytes = 16.0 * 1024;
  options.cluster.machine.usable_memory_bytes = 12.0 * 1024;
  options.profile = ProfileFor(SystemKind::kPregelPlus);
  options.stop_early_on_overload = false;

  BpprCountingProgram program(context, /*walks=*/64, {}, /*seed=*/2);
  SyncEngine engine(ring, part, options);
  auto result = engine.Run(program);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().overloaded);
  // Without the early stop, every walk still terminates.
  EXPECT_EQ(program.TotalStopped(), 64u * ring.NumVertices());
  EXPECT_GT(result.value().num_rounds, 2u);
}

TEST(EngineEdgeCaseTest, RoundStatsTraceIsComplete) {
  Graph ring = GenerateRing(32, 1);
  Partitioning part = HashPartitioner().Partition(ring, 2);
  TaskContext context{&ring, &part, 1.0, false};
  EngineOptions options;
  options.cluster = RelaxedCluster(2);
  options.profile = ProfileFor(SystemKind::kPregelPlus);
  PageRankProgram::Params params;
  params.iterations = 5;
  PageRankProgram program(context, params);
  SyncEngine engine(ring, part, options);
  auto result = engine.Run(program);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rounds.size(), result.value().num_rounds);
  double total = 0.0;
  double messages = 0.0;
  for (const RoundStats& stats : result.value().rounds) {
    total += stats.total_seconds;
    messages += stats.messages;
    EXPECT_GE(stats.total_seconds, stats.barrier_seconds);
  }
  EXPECT_DOUBLE_EQ(total, result.value().seconds);
  EXPECT_DOUBLE_EQ(messages, result.value().total_messages);
  EXPECT_DOUBLE_EQ(result.value().MessagesPerRound(),
                   messages / result.value().num_rounds);
}

TEST(EngineEdgeCaseTest, RejectsAnAsynchronousProfile) {
  // GasEngine models asynchronous scheduling; the superstep engine would
  // run GraphLab(async) as barrier-free rounds without its lock costs.
  Graph ring = GenerateRing(32, 1);
  Partitioning part = HashPartitioner().Partition(ring, 2);
  TaskContext context{&ring, &part, 1.0, false};
  EngineOptions options;
  options.cluster = RelaxedCluster(2);
  options.profile = ProfileFor(SystemKind::kGraphLabAsync);
  PageRankProgram program(context, PageRankProgram::Params{});
  SyncEngine engine(ring, part, options);
  auto result = engine.Run(program);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("GasEngine"), std::string::npos);
}

TEST(EngineEdgeCaseTest, IsolatedVerticesQuiesceImmediately) {
  // A graph with no edges: the seed round runs, nothing is sent, the
  // engine stops after one round.
  GraphBuilder builder(16);
  Graph empty = builder.Build({});
  Partitioning part = HashPartitioner().Partition(empty, 2);
  TaskContext context{&empty, &part, 1.0, false};
  EngineOptions options;
  options.cluster = RelaxedCluster(2);
  options.profile = ProfileFor(SystemKind::kPregelPlus);
  BpprCountingProgram program(context, 4, {}, 1);
  SyncEngine engine(empty, part, options);
  auto result = engine.Run(program);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_rounds, 1u);
  // All walks end at their dangling start vertices.
  EXPECT_EQ(program.TotalStopped(), 4u * empty.NumVertices());
}

}  // namespace
}  // namespace vcmp
