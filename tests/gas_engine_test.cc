#include "engine/gas_engine.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/batch_schedule.h"
#include "core/runner.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/partition.h"
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

TEST(GasEngineTest, RejectsMismatchedCluster) {
  GasFixture fx(GasGraph(), 4);
  GasPageRank program(fx.graph, fx.partition, {});
  GasEngine engine(fx.graph, fx.partition, fx.Options(true, 8));
  EXPECT_FALSE(engine.Run(program).ok());
}

// --- Recorded numbers per (program, mode, machines) ------------------

/// One run's numbers, as hex floats: every GasResult field and the
/// program's answer (TotalRank, or TotalStopped as a double).
struct GasRecordedRun {
  const char* name;
  bool pagerank;
  bool synchronous;
  uint32_t machines;
  double seconds;
  uint64_t passes;
  double activations;
  double messages;
  double network_bytes_per_machine;
  double peak_memory_bytes;
  double barrier_seconds;
  double lock_seconds;
  std::vector<double> residual_bytes_per_machine;
  double answer;
};

void PrintTo(const GasRecordedRun& run, std::ostream* os) { *os << run.name; }

/// Table 4's setup in miniature: an R-MAT graph under the greedy edge
/// cut on a Galaxy cluster of `machines`, at a stat scale above one.
std::pair<GasResult, double> RunGasRecorded(bool pagerank, bool synchronous,
                                            uint32_t machines) {
  static const Graph& graph = *new Graph(
      GenerateRmat({.num_vertices = 2000, .num_edges = 12000, .seed = 77}));
  const Partitioning partition =
      GreedyEdgeCutPartitioner().Partition(graph, machines);
  GasOptions options;
  options.cluster = ClusterSpec::Galaxy8().WithMachines(machines);
  options.profile = ProfileFor(synchronous ? SystemKind::kGraphLab
                                           : SystemKind::kGraphLabAsync);
  options.stat_scale = 8.0;
  GasEngine engine(graph, partition, options);
  if (pagerank) {
    GasPageRank program(graph, partition, {});
    auto result = engine.Run(program);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return {result.value_or(GasResult{}), program.TotalRank()};
  }
  GasBpprWalks program(graph, partition, /*walks_per_vertex=*/16, {},
                       /*seed=*/7);
  auto result = engine.Run(program);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return {result.value_or(GasResult{}),
          static_cast<double>(program.TotalStopped())};
}

/// Numbers recorded while synchronous passes still ran Process over 16
/// frontier shards into event logs replayed in shard order. The serial
/// pass reproduces them; any change in signal, RNG or fold order would
/// move these.
const std::vector<GasRecordedRun>& GasRecordedRuns() {
  static const auto& runs = *new std::vector<GasRecordedRun>{
      {"PageRankSync1", true, true, 1,
       0x1.367baaa50c80bp+0, 32, 0x1.61a6p+18, 0x1.0b89ap+22, 0x0p+0,
       0x1.53d999999999ap+20, 0x1.b089a02752542p-2, 0x0p+0,
       {0x0p+0},
       0x1.7e143fd30b198p-1},
      {"PageRankSync4", true, true, 4,
       0x1.87a326a68401fp-1, 32, 0x1.61a6p+18, 0x1.0b89ap+22, 0x1.b9b7p+21,
       0x1.046cp+19, 0x1.13404ea4a8c14p-1, 0x0p+0,
       {0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0},
       0x1.7e143fd30b198p-1},
      {"PageRankAsync1", true, false, 1,
       0x1.23a6e14b89937p-2, 36, 0x1.a654p+17, 0x1.0447d0a3d70a4p+21, 0x0p+0,
       0x1.7cee666666666p+22, 0x0p+0, 0x1.39707d4afa65dp-17,
       {0x0p+0},
       0x1.813f413fb2755p-1},
      {"PageRankAsync4", true, false, 4,
       0x1.141376540362p-3, 36, 0x1.a654p+17, 0x1.0447d0a3d70a4p+21,
       0x1.042ee851eb852p+23, 0x1.96c1333333333p+20, 0x0p+0,
       0x1.6be452c8835c4p-16,
       {0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0},
       0x1.813f413fb2755p-1},
      {"BpprWalksSync1", false, true, 1,
       0x1.6f3593e86c2b1p-1, 44, 0x1.09b8p+17, 0x1.69f4p+19, 0x0p+0,
       0x1.7cc1333333333p+21, 0x1.295e9e1b0899dp-1, 0x0p+0,
       {0x1.f4p+17},
       0x1.f4p+14},
      {"BpprWalksSync4", false, true, 4,
       0x1.8ee9b34bb935fp-1, 44, 0x1.09b8p+17, 0x1.69f4p+19, 0x1.b9d2p+19,
       0x1.fedp+19, 0x1.7a786c22680ap-1, 0x0p+0,
       {0x1.548p+15, 0x1.d67p+15, 0x1.d6cp+15, 0x1.6728p+16},
       0x1.f4p+14},
      {"BpprWalksAsync1", false, false, 1,
       0x1.1510a7c428265p-3, 32, 0x1.5b28p+16, 0x1.e9a6333333334p+19, 0x0p+0,
       0x1.fb8ecccccccccp+22, 0x0p+0, 0x1.ad6a45a5818ep-18,
       {0x1.f4p+17},
       0x1.f4p+14},
      {"BpprWalksAsync4", false, false, 4,
       0x1.fdc94df5344p-5, 32, 0x1.5b28p+16, 0x1.e9a6333333334p+19,
       0x1.d0cdp+21, 0x1.6596ccccccccdp+21, 0x0p+0, 0x1.f28917f516949p-17,
       {0x1.55dp+15, 0x1.d94p+15, 0x1.dacp+15, 0x1.6318p+16},
       0x1.f4p+14},
  };
  return runs;
}

class GasRecordedRunTest : public ::testing::TestWithParam<GasRecordedRun> {};

TEST_P(GasRecordedRunTest, ReproducesRecordedNumbers) {
  const GasRecordedRun& want = GetParam();
  const auto [result, answer] =
      RunGasRecorded(want.pagerank, want.synchronous, want.machines);
  EXPECT_FALSE(result.overloaded);
  EXPECT_EQ(result.seconds, want.seconds);
  EXPECT_EQ(result.passes, want.passes);
  EXPECT_EQ(result.activations, want.activations);
  EXPECT_EQ(result.messages, want.messages);
  EXPECT_EQ(result.network_bytes_per_machine, want.network_bytes_per_machine);
  EXPECT_EQ(result.peak_memory_bytes, want.peak_memory_bytes);
  EXPECT_EQ(result.barrier_seconds, want.barrier_seconds);
  EXPECT_EQ(result.lock_seconds, want.lock_seconds);
  EXPECT_EQ(result.residual_bytes_per_machine,
            want.residual_bytes_per_machine);
  EXPECT_EQ(answer, want.answer);
}

INSTANTIATE_TEST_SUITE_P(
    ProgramsModesMachines, GasRecordedRunTest,
    ::testing::ValuesIn(GasRecordedRuns()),
    [](const ::testing::TestParamInfo<GasRecordedRun>& info) {
      return std::string(info.param.name);
    });

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
