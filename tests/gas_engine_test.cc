#include "engine/gas_engine.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/batch_schedule.h"
#include "core/runner.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "graph/vertex_cut.h"
#include "tasks/bppr.h"
#include "tasks/gas_tasks.h"
#include "test_util.h"

namespace vcmp {
namespace {

using testing_util::RelaxedCluster;
using testing_util::ReferencePageRank;

struct GasFixture {
  Graph graph;
  Partitioning partition;

  explicit GasFixture(Graph g, uint32_t machines) : graph(std::move(g)) {
    partition =
        GreedyEdgeCutPartitioner().Partition(graph, machines);
  }

  GasOptions Options(bool synchronous, uint32_t machines) const {
    GasOptions options;
    options.cluster = RelaxedCluster(machines);
    options.profile = ProfileFor(synchronous ? SystemKind::kGraphLab
                                             : SystemKind::kGraphLabAsync);
    return options;
  }
};

Graph GasGraph() {
  ErdosRenyiParams params;
  params.num_vertices = 400;
  params.num_edges = 2400;
  params.seed = 51;
  return GenerateErdosRenyi(params);
}

TEST(GasEngineTest, SyncPageRankMatchesReference) {
  GasFixture fx(GasGraph(), 4);
  GasPageRank::Params params;
  params.tolerance_fraction = 1e-7;  // Converge tightly.
  GasPageRank program(fx.graph, fx.partition, params);
  GasEngine engine(fx.graph, fx.partition, fx.Options(true, 4));
  auto result = engine.Run(program);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().overloaded);

  std::vector<double> reference =
      ReferencePageRank(fx.graph, params.damping, 100);
  double l1 = 0.0;
  for (VertexId v = 0; v < fx.graph.NumVertices(); ++v) {
    l1 += std::fabs(program.Rank(v) - reference[v]);
  }
  EXPECT_LT(l1, 1e-3);
}

TEST(GasEngineTest, AsyncPageRankConvergesToo) {
  GasFixture fx(GasGraph(), 4);
  GasPageRank::Params params;
  params.tolerance_fraction = 1e-7;
  GasPageRank program(fx.graph, fx.partition, params);
  GasEngine engine(fx.graph, fx.partition, fx.Options(false, 4));
  auto result = engine.Run(program);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(program.TotalRank(), 1.0, 1e-2);
  EXPECT_GT(result.value().lock_seconds, 0.0);
  EXPECT_DOUBLE_EQ(result.value().barrier_seconds, 0.0);
}

TEST(GasEngineTest, BpprWalksConserve) {
  GasFixture fx(GasGraph(), 4);
  GasBpprWalks::Params params;
  GasBpprWalks program(fx.graph, fx.partition, /*walks_per_vertex=*/32,
                       params, /*seed=*/3);
  GasEngine engine(fx.graph, fx.partition, fx.Options(true, 4));
  auto result = engine.Run(program);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(program.TotalStopped(), 32u * fx.graph.NumVertices());
}

TEST(GasEngineTest, QueryContextNamespacesWalkStreams) {
  // The QueryContext's query id enters every per-vertex reseed: query 0
  // reproduces the historical (no-context) run bit for bit, while query
  // 1 draws a different walk stream from the same engine seed. Each
  // program is fresh — GAS programs accumulate into member state.
  GasFixture fx(GasGraph(), 4);
  GasBpprWalks::Params params;
  GasEngine engine(fx.graph, fx.partition, fx.Options(true, 4));

  GasBpprWalks historical(fx.graph, fx.partition, 32, params, /*seed=*/3);
  auto base = engine.Run(historical);
  ASSERT_TRUE(base.ok());

  QueryContext q0(/*query_id=*/0);
  GasBpprWalks same(fx.graph, fx.partition, 32, params, /*seed=*/3);
  auto as_q0 = engine.Run(same, q0);
  ASSERT_TRUE(as_q0.ok());
  EXPECT_EQ(as_q0.value().messages, base.value().messages);
  EXPECT_EQ(as_q0.value().passes, base.value().passes);

  QueryContext q1(/*query_id=*/1);
  GasBpprWalks other(fx.graph, fx.partition, 32, params, /*seed=*/3);
  auto as_q1 = engine.Run(other, q1);
  ASSERT_TRUE(as_q1.ok());
  EXPECT_EQ(other.TotalStopped(), 32u * fx.graph.NumVertices());
  EXPECT_NE(as_q1.value().messages, base.value().messages)
      << "query 1 must draw a different walk stream than query 0";
}

TEST(GasEngineTest, SyncCombinesWireTraffic) {
  // Same walk workload: sync (combining) must move fewer bytes per
  // machine than async (no combining, plus inflation) — Table 4's
  // high-load contrast.
  GasFixture fx(GasGraph(), 8);
  auto run = [&](bool synchronous) {
    GasBpprWalks program(fx.graph, fx.partition, /*walks_per_vertex=*/64,
                         {}, /*seed=*/3);
    GasEngine engine(fx.graph, fx.partition,
                     fx.Options(synchronous, 8));
    auto result = engine.Run(program);
    EXPECT_TRUE(result.ok());
    return result.value_or(GasResult{});
  };
  GasResult sync = run(true);
  GasResult async = run(false);
  EXPECT_LT(sync.network_bytes_per_machine,
            0.5 * async.network_bytes_per_machine);
}

TEST(GasEngineTest, AsyncPageRankSendsFewerBytesThanSync) {
  // The light-workload side of Table 4: delta-scheduled async PageRank
  // needs fewer updates than the bulk sweeps of the sync engine.
  GasFixture fx(GasGraph(), 8);
  auto run = [&](bool synchronous) {
    GasPageRank::Params params;
    params.tolerance_fraction = 1e-4;
    GasPageRank program(fx.graph, fx.partition, params);
    GasEngine engine(fx.graph, fx.partition,
                     fx.Options(synchronous, 8));
    auto result = engine.Run(program);
    EXPECT_TRUE(result.ok());
    return result.value_or(GasResult{});
  };
  GasResult sync = run(true);
  GasResult async = run(false);
  // Async inflation applies, yet delta scheduling should still win or tie
  // within a small factor for the classic task.
  EXPECT_LT(async.messages, sync.messages * 1.5);
}

TEST(GasEngineTest, LockOverheadGrowsWithMachines) {
  GasFixture fx2(GasGraph(), 2);
  GasFixture fx16(GasGraph(), 16);
  auto run = [&](GasFixture& fx, uint32_t machines) {
    GasBpprWalks program(fx.graph, fx.partition, 32, {}, 3);
    GasEngine engine(fx.graph, fx.partition, fx.Options(false, machines));
    auto result = engine.Run(program);
    EXPECT_TRUE(result.ok());
    return result.value_or(GasResult{});
  };
  GasResult small = run(fx2, 2);
  GasResult large = run(fx16, 16);
  EXPECT_GT(large.lock_seconds, 1.5 * small.lock_seconds);
}

TEST(GasEngineTest, PriorityShedulingIsDeterministicAndConverges) {
  GasFixture fx(GasGraph(), 4);
  auto run = [&](bool priority) {
    GasPageRank::Params params;
    params.tolerance_fraction = 1e-5;
    GasPageRank program(fx.graph, fx.partition, params);
    GasOptions options = fx.Options(false, 4);
    options.priority_scheduling = priority;
    GasEngine engine(fx.graph, fx.partition, options);
    auto result = engine.Run(program);
    EXPECT_TRUE(result.ok());
    EXPECT_NEAR(program.TotalRank(), 1.0, 1e-2);
    return result.value_or(GasResult{});
  };
  GasResult fifo = run(false);
  GasResult prioritized = run(true);
  // Both orders converge and process comparable work; priority runs are
  // deterministic (two invocations agree exactly).
  EXPECT_GT(prioritized.activations, 0.0);
  EXPECT_LT(prioritized.activations, 2.0 * fifo.activations);
  GasResult again = run(true);
  EXPECT_DOUBLE_EQ(prioritized.activations, again.activations);
  EXPECT_DOUBLE_EQ(prioritized.seconds, again.seconds);
}

TEST(GasEngineTest, VertexCutBoundsHubTraffic) {
  // On a skewed graph, the vertex-cut deployment's replica-sync traffic
  // (bounded by the replication factor) undercuts the edge-cut
  // deployment's per-edge cross traffic.
  RmatParams params;
  params.num_vertices = 2000;
  params.num_edges = 16000;
  params.seed = 23;
  Graph graph = GenerateRmat(params);
  // Hash ownership for both deployments (PowerGraph also hash-places
  // masters); the locality-optimised LDG edge cut with sender combining
  // is already competitive, so the fair baseline is the default random
  // placement.
  Partitioning partition = HashPartitioner().Partition(graph, 8);
  VertexCut cut = GreedyVertexCut(graph, 8);

  auto run = [&](const VertexCut* vertex_cut) {
    GasBpprWalks program(graph, partition, /*walks=*/32, {}, /*seed=*/3);
    GasOptions options;
    options.cluster = RelaxedCluster(8);
    // Async: no sender-side combining window, so per-edge traffic is at
    // its worst — the regime where replica synchronisation pays off.
    // (Under the combining sync engine, merged per-target messages are
    // already cheap and the vertex cut does NOT win; that nuance is
    // exactly PowerGraph's delta-caching motivation.)
    options.profile = ProfileFor(SystemKind::kGraphLabAsync);
    options.vertex_cut = vertex_cut;
    GasEngine engine(graph, partition, options);
    auto result = engine.Run(program);
    EXPECT_TRUE(result.ok());
    // The algorithm's answer is unaffected by the deployment model.
    EXPECT_EQ(program.TotalStopped(), 32u * graph.NumVertices());
    return result.value_or(GasResult{});
  };
  GasResult edge_cut = run(nullptr);
  GasResult vertex_cut_result = run(&cut);
  EXPECT_GT(vertex_cut_result.network_bytes_per_machine, 0.0);
  EXPECT_LT(vertex_cut_result.network_bytes_per_machine,
            edge_cut.network_bytes_per_machine);
}

TEST(GasEngineTest, RejectsMismatchedCluster) {
  GasFixture fx(GasGraph(), 4);
  GasPageRank program(fx.graph, fx.partition, {});
  GasEngine engine(fx.graph, fx.partition, fx.Options(true, 8));
  EXPECT_FALSE(engine.Run(program).ok());
}

TEST(GraphLabSyncModelsTest, BpprSecondsAgreeWithinABand) {
  // GraphLab sync is modelled twice (DESIGN.md §2): the SyncEngine
  // profile every runner caller uses, and GasEngine's synchronous
  // scheduler behind Table 4. On the bench-scale DBLP stand-in both send
  // the same logical BPPR messages, and once messages dominate the
  // runner's seconds stay 1.20-1.32x GasEngine's on 1 to 16 machines.
  const Dataset dataset = LoadDataset(DatasetId::kDblp, 64.0);
  for (double workload : {128.0, 512.0}) {
    for (uint32_t machines : {1u, 16u}) {
      SCOPED_TRACE(::testing::Message()
                   << "W=" << workload << " m=" << machines);
      const ClusterSpec cluster =
          ClusterSpec::Galaxy8().WithMachines(machines);
      const Partitioning partition =
          GreedyEdgeCutPartitioner().Partition(dataset.graph, machines);
      GasOptions gas_options;
      gas_options.cluster = cluster;
      gas_options.profile = ProfileFor(SystemKind::kGraphLab);
      gas_options.stat_scale = dataset.scale;
      GasBpprWalks walks(dataset.graph, partition, workload, {}, 7);
      auto gas = GasEngine(dataset.graph, partition, gas_options).Run(walks);
      ASSERT_TRUE(gas.ok()) << gas.status().ToString();

      RunnerOptions runner_options;
      runner_options.cluster = cluster;
      runner_options.system = SystemKind::kGraphLab;
      MultiProcessingRunner runner(dataset, runner_options);
      auto report =
          runner.Run(BpprTask(), BatchSchedule::FullParallelism(workload));
      ASSERT_TRUE(report.ok()) << report.status().ToString();

      const double ratio =
          report.value().total_seconds / gas.value().seconds;
      EXPECT_GE(ratio, 1.15);
      EXPECT_LE(ratio, 1.35);
    }
  }
}

}  // namespace
}  // namespace vcmp
