// Tests for the BPPR program variants beyond the pooled counting mode:
// the per-source program (combining systems) and the fractional-push
// program's per-source bookkeeping.

#include <cmath>

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
    context = TaskContext{&graph, &partition, 1.0, /*combining=*/true};
  }

  EngineResult Run(VertexProgram& program, SystemKind kind) const {
    EngineOptions options;
    options.cluster = RelaxedCluster(partition.num_machines);
    options.profile = ProfileFor(kind);
    SyncEngine engine(graph, partition, options);
    auto result = engine.Run(program);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.value_or(EngineResult{});
  }
};

Graph SmallGraph() {
  ErdosRenyiParams params;
  params.num_vertices = 120;
  params.num_edges = 600;
  params.seed = 77;
  return GenerateErdosRenyi(params);
}

TEST(BpprPerSourceTest, ConservesWalks) {
  Fx fx(SmallGraph());
  BpprPerSourceProgram program(fx.context, /*walks=*/40, {}, /*seed=*/3);
  fx.Run(program, SystemKind::kGraphLab);
  EXPECT_EQ(program.TotalStopped(), 40u * fx.graph.NumVertices());
}

TEST(BpprPerSourceTest, CombiningDispatchedByTask) {
  Fx fx(SmallGraph());
  BpprTask task;
  auto program = task.MakeProgram(fx.context, ProgramFlavor::kPointToPoint,
                                  16, 5);
  ASSERT_TRUE(program.ok());
  // Default params: the pooled counting program even on combining systems.
  EXPECT_NE(dynamic_cast<BpprCountingProgram*>(program.value().get()),
            nullptr);
  // The per_source_traffic knob switches to per-source granularity.
  BpprTask::Params params;
  params.per_source_traffic = true;
  BpprTask per_source_task(params);
  auto ps = per_source_task.MakeProgram(
      fx.context, ProgramFlavor::kPointToPoint, 16, 5);
  ASSERT_TRUE(ps.ok());
  auto* typed = dynamic_cast<BpprPerSourceProgram*>(ps.value().get());
  EXPECT_NE(typed, nullptr);
}

TEST(BpprPerSourceTest, AggregateMatchesPooledCounting) {
  Fx fx(SmallGraph());
  const uint64_t walks = 20000;
  BpprPerSourceProgram per_source(fx.context, walks, {}, 3);
  fx.Run(per_source, SystemKind::kGraphLab);

  TaskContext pooled_context = fx.context;
  pooled_context.combining_system = false;
  BpprCountingProgram pooled(pooled_context, walks, {}, 3);
  fx.Run(pooled, SystemKind::kPregelPlus);

  // Same Monte-Carlo process, different traffic granularity: per-vertex
  // terminal distributions agree within sampling noise.
  double total = static_cast<double>(walks) * fx.graph.NumVertices();
  double l1 = 0.0;
  for (VertexId u = 0; u < fx.graph.NumVertices(); ++u) {
    l1 += std::fabs(static_cast<double>(per_source.StoppedAt(u)) -
                    static_cast<double>(pooled.StoppedAt(u))) /
          total;
  }
  EXPECT_LT(l1, 0.03);
}

TEST(BpprPerSourceTest, MoreWireTrafficThanPooledUnderCombining) {
  // Under a combining engine, pooled counting over-merges across sources;
  // the per-source program keeps (source, target) wire granularity, so it
  // must move more cross-machine bytes.
  Fx fx(SmallGraph(), 4);
  const uint64_t walks = 2000;

  auto cross_bytes = [&](VertexProgram& program) {
    EngineResult result = fx.Run(program, SystemKind::kGraphLab);
    double bytes = 0.0;
    for (const RoundStats& stats : result.rounds) {
      bytes += stats.cross_machine_bytes;
    }
    return bytes;
  };
  BpprPerSourceProgram per_source(fx.context, walks, {}, 3);
  TaskContext pooled_context = fx.context;
  BpprCountingProgram pooled(pooled_context, walks, {}, 3);
  EXPECT_GT(cross_bytes(per_source), 1.5 * cross_bytes(pooled));
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
  EXPECT_TRUE(BpprCountingProgram(fx.context, 8, {}, 1).combinable());
}

}  // namespace
}  // namespace vcmp
