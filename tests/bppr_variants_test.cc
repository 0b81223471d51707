// Tests for the BPPR program variants beyond the pooled counting mode:
// the fractional-push program's per-source bookkeeping.

#include <gtest/gtest.h>

#include "engine/sync_engine.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "tasks/bppr.h"
#include "test_util.h"

namespace vcmp {
namespace {

using testing_util::RelaxedCluster;

struct Fx {
  Graph graph;
  Partitioning partition;
  TaskContext context;

  explicit Fx(Graph g, uint32_t machines = 4) : graph(std::move(g)) {
    partition = HashPartitioner().Partition(graph, machines);
    context = TaskContext{&graph, &partition, 1.0};
  }
};

Graph SmallGraph() {
  ErdosRenyiParams params;
  params.num_vertices = 120;
  params.num_edges = 600;
  params.seed = 77;
  return GenerateErdosRenyi(params);
}

TEST(BpprPushTest, TracksDistinctResultPairs) {
  Fx fx(SmallGraph(), 2);
  BpprPushProgram program(fx.context, /*walks=*/50, {});
  EngineOptions options;
  options.cluster = RelaxedCluster(2);
  options.profile = ProfileFor(SystemKind::kPregelPlusMirror);
  SyncEngine engine(fx.graph, fx.partition, options);
  ASSERT_TRUE(engine.Run(program).ok());
  // At least one record per vertex (its own source settles locally), at
  // most the full quadratic table.
  EXPECT_GE(program.ResultPairs(), fx.graph.NumVertices());
  EXPECT_LE(program.ResultPairs(),
            static_cast<uint64_t>(fx.graph.NumVertices()) *
                fx.graph.NumVertices());
  // State accounting follows the pair count.
  EXPECT_GT(program.StateBytes(0), 0.0);
}

TEST(BpprPushTest, DeeperDiffusionWithHigherWorkload) {
  // Larger W keeps per-source mass above the prune threshold longer, so
  // more (source, target) pairs are produced — the mechanism that limits
  // Pregel+(mirror) to small workloads in the paper.
  Fx fx(SmallGraph(), 2);
  EngineOptions options;
  options.cluster = RelaxedCluster(2);
  options.profile = ProfileFor(SystemKind::kPregelPlusMirror);

  BpprPushProgram light(fx.context, 2, {});
  {
    SyncEngine engine(fx.graph, fx.partition, options);
    ASSERT_TRUE(engine.Run(light).ok());
  }
  BpprPushProgram heavy(fx.context, 64, {});
  {
    SyncEngine engine(fx.graph, fx.partition, options);
    ASSERT_TRUE(engine.Run(heavy).ok());
  }
  EXPECT_GT(heavy.ResultPairs(), 2 * light.ResultPairs());
}

TEST(BpprCountingTest, IsCombinable) {
  Fx fx(SmallGraph(), 2);
  EXPECT_EQ(BpprCountingProgram(fx.context, 8, {}, 1).fold(),
            MessageFold::kSum);
}

}  // namespace
}  // namespace vcmp
