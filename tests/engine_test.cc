#include <gtest/gtest.h>

#include "engine/mirror_engine.h"
#include "engine/sync_engine.h"
#include "engine/worker.h"
#include "tasks/bppr.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/partition.h"
#include "test_util.h"

namespace vcmp {
namespace {

using testing_util::RelaxedCluster;

TEST(WorkerTest, GroupInboxSortsByTargetThenTag) {
  Worker worker;
  worker.Reset();
  worker.inbox().PushBack(3, 1, 10.0, 1.0);
  worker.inbox().PushBack(1, 2, 20.0, 1.0);
  worker.inbox().PushBack(3, 0, 30.0, 1.0);
  worker.inbox().PushBack(1, 1, 40.0, 1.0);
  worker.GroupInbox();
  const std::span<const MessageRun> runs = worker.runs();
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_EQ(runs[0].target, 1u);
  EXPECT_EQ(runs[0].tag, 1u);
  EXPECT_EQ(runs[1].target, 1u);
  EXPECT_EQ(runs[1].tag, 2u);
  EXPECT_EQ(runs[2].target, 3u);
  EXPECT_EQ(runs[2].tag, 0u);
  EXPECT_EQ(runs[3].target, 3u);
  EXPECT_EQ(runs[3].tag, 1u);
  // Payload columns follow the permutation.
  EXPECT_DOUBLE_EQ(worker.grouped_values()[runs[0].begin], 40.0);
  EXPECT_DOUBLE_EQ(worker.grouped_values()[runs[1].begin], 20.0);
  EXPECT_DOUBLE_EQ(worker.grouped_values()[runs[2].begin], 30.0);
  EXPECT_DOUBLE_EQ(worker.grouped_values()[runs[3].begin], 10.0);
  // The AoS fallback view materializes the same grouped order.
  const std::span<const Message> aos = worker.MaterializedInbox();
  ASSERT_EQ(aos.size(), 4u);
  EXPECT_EQ(aos[0].target, 1u);
  EXPECT_EQ(aos[0].tag, 1u);
  EXPECT_DOUBLE_EQ(aos[0].value, 40.0);
  EXPECT_EQ(aos[2].target, 3u);
  EXPECT_DOUBLE_EQ(aos[2].value, 30.0);
}

TEST(SyncEngineTest, LocalNumberingAscendsWithVertexIdForEveryPartitioner) {
  // The grouper keys on local positions; grouped order equals global
  // (target, tag) order only because every machine numbers its vertices
  // in ascending id order. Pin that for every partitioner.
  RmatParams params;
  params.num_vertices = 3000;
  params.num_edges = 20000;
  params.seed = 5;
  const Graph graph = GenerateRmat(params);
  for (const char* name : {"hash", "block", "greedy-edge-cut"}) {
    SCOPED_TRACE(name);
    const Partitioning part = MakePartitioner(name)->Partition(graph, 8);
    EngineOptions options;
    options.cluster = RelaxedCluster(8);
    SyncEngine engine(graph, part, options);
    size_t covered = 0;
    for (uint32_t machine = 0; machine < 8; ++machine) {
      const std::span<const VertexId> locals = engine.local_vertices(machine);
      for (size_t i = 0; i < locals.size(); ++i) {
        if (i > 0) {
          ASSERT_LT(locals[i - 1], locals[i]);
        }
        ASSERT_EQ(part.MachineOf(locals[i]), machine);
        ASSERT_EQ(engine.local_index(locals[i]), i);
      }
      covered += locals.size();
    }
    EXPECT_EQ(covered, graph.NumVertices());
  }
}

TEST(MirrorPlanTest, StarGraphHub) {
  // Hub 0 connected to 40 leaves, spread over 4 machines by block ranges.
  GraphBuilder builder(41);
  for (VertexId leaf = 1; leaf <= 40; ++leaf) builder.AddEdge(0, leaf);
  Graph star = builder.Build({.symmetrize = true});
  Partitioning part = BlockPartitioner().Partition(star, 4);

  MirrorPlan plan(star, part, /*degree_threshold=*/8);
  EXPECT_TRUE(plan.IsMirrored(0));
  EXPECT_FALSE(plan.IsMirrored(1));  // Leaves have degree 1.
  // The hub lives on machine 0 and has neighbours on the other 3.
  EXPECT_EQ(plan.RemoteMirrorMachines(0), 3u);
  EXPECT_EQ(plan.TotalMirrors(), 3u);
  EXPECT_GT(plan.MirrorStateBytesPerMachine(), 0.0);
}

TEST(MirrorPlanTest, ThresholdControlsSelection) {
  Graph ring = GenerateRing(100, 2);  // Degree 4 everywhere.
  Partitioning part = HashPartitioner().Partition(ring, 4);
  MirrorPlan none(ring, part, /*degree_threshold=*/10);
  EXPECT_EQ(none.TotalMirrors(), 0u);
  MirrorPlan all(ring, part, /*degree_threshold=*/3);
  EXPECT_GT(all.TotalMirrors(), 0u);
}

/// Toy program: round 0, vertex 0 sends its id+1 to each neighbour; later
/// rounds forward value+1 until a hop budget is exhausted. Used to verify
/// message delivery, inbox grouping and termination.
class HopProgram : public VertexProgram {
 public:
  HopProgram(const Graph& graph, uint32_t hops)
      : graph_(graph), hops_(hops), received_(graph.NumVertices(), 0) {}

  void Compute(VertexId v, std::span<const Message> inbox,
               MessageSink& sink) override {
    if (sink.round() == 0) {
      if (v == 0) {
        for (VertexId u : graph_.Neighbors(v)) {
          sink.Send(u, 0, 1.0, 1.0);
        }
      }
      return;
    }
    for (const Message& message : inbox) {
      received_[v] += 1;
      if (static_cast<uint32_t>(message.value) < hops_) {
        for (VertexId u : graph_.Neighbors(v)) {
          sink.Send(u, 0, message.value + 1.0, 1.0);
        }
      }
    }
  }

  uint64_t TotalReceived() const {
    uint64_t total = 0;
    for (uint64_t r : received_) total += r;
    return total;
  }

 private:
  const Graph& graph_;
  uint32_t hops_;
  std::vector<uint64_t> received_;
};

EngineOptions RelaxedOptions(uint32_t machines) {
  EngineOptions options;
  options.cluster = RelaxedCluster(machines);
  options.profile = ProfileFor(SystemKind::kPregelPlus);
  return options;
}

TEST(SyncEngineTest, DeliversAndTerminates) {
  Graph ring = GenerateRing(10, 1);
  Partitioning part = HashPartitioner().Partition(ring, 2);
  EngineOptions options = RelaxedOptions(2);
  SyncEngine engine(ring, part, options);
  HopProgram program(ring, /*hops=*/3);
  auto result = engine.Run(program);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Rounds: seed + 3 hop rounds (the last one absorbs without sending).
  EXPECT_EQ(result.value().num_rounds, 4u);
  EXPECT_FALSE(result.value().overloaded);
  // Hop 1: 2 deliveries; hop 2: 4; hop 3: 8 (ring degree 2).
  EXPECT_EQ(program.TotalReceived(), 14u);
  EXPECT_DOUBLE_EQ(result.value().total_messages, 14.0);
}

TEST(SyncEngineTest, RejectsMismatchedCluster) {
  Graph ring = GenerateRing(10, 1);
  Partitioning part = HashPartitioner().Partition(ring, 2);
  EngineOptions options = RelaxedOptions(4);  // 4 != 2.
  SyncEngine engine(ring, part, options);
  HopProgram program(ring, 1);
  EXPECT_FALSE(engine.Run(program).ok());
}

TEST(SyncEngineTest, StatScaleMultipliesStatistics) {
  Graph ring = GenerateRing(10, 1);
  Partitioning part = HashPartitioner().Partition(ring, 2);
  EngineOptions options = RelaxedOptions(2);
  options.stat_scale = 100.0;
  SyncEngine engine(ring, part, options);
  HopProgram program(ring, 3);
  auto result = engine.Run(program);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().total_messages, 1400.0);
}

TEST(SyncEngineTest, MaxRoundsCapsExecution) {
  // An infinite ping-pong program would never quiesce; the cap stops it.
  class PingPong : public VertexProgram {
   public:
    void Compute(VertexId v, std::span<const Message>,
                 MessageSink& sink) override {
      sink.Send(v == 0 ? 1 : 0, 0, 1.0, 1.0);
    }
  };
  Graph ring = GenerateRing(4, 1);
  Partitioning part = HashPartitioner().Partition(ring, 1);
  EngineOptions options = RelaxedOptions(1);
  options.max_rounds = 10;
  SyncEngine engine(ring, part, options);
  PingPong program;
  auto result = engine.Run(program);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result.value().num_rounds, 11u);
}

TEST(SyncEngineTest, TinyMemoryOverloads) {
  Graph ring = GenerateRing(64, 2);
  Partitioning part = HashPartitioner().Partition(ring, 2);
  EngineOptions options = RelaxedOptions(2);
  options.cluster.machine.memory_bytes = 4096;  // 4KB machines.
  options.cluster.machine.usable_memory_bytes = 3072;
  SyncEngine engine(ring, part, options);
  HopProgram program(ring, 8);
  auto result = engine.Run(program);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().overloaded);
  EXPECT_GE(result.value().seconds,
            options.cost.overload_cutoff_seconds);
}

TEST(SyncEngineTest, MirrorProfileForbidsPointToPoint) {
  Graph ring = GenerateRing(10, 1);
  Partitioning part = HashPartitioner().Partition(ring, 2);
  EngineOptions options = RelaxedOptions(2);
  options.profile = ProfileFor(SystemKind::kPregelPlusMirror);
  SyncEngine engine(ring, part, options);
  HopProgram program(ring, 1);  // Uses Send -> must die.
  EXPECT_DEATH((void)engine.Run(program), "broadcast");
}

/// Broadcast program: every vertex pushes 1.0 to all neighbours once.
class BroadcastOnce : public VertexProgram {
 public:
  explicit BroadcastOnce(const Graph& graph)
      : received_(graph.NumVertices(), 0.0) {}
  void Compute(VertexId v, std::span<const Message> inbox,
               MessageSink& sink) override {
    if (sink.round() == 0) {
      sink.Broadcast(v, 0, 1.0, 1.0);
      return;
    }
    for (const Message& message : inbox) received_[v] += message.value;
  }
  double ReceivedAt(VertexId v) const { return received_[v]; }

 private:
  std::vector<double> received_;
};

TEST(SyncEngineTest, BroadcastDeliversToEveryNeighbor) {
  Graph ring = GenerateRing(12, 2);  // Degree 4.
  Partitioning part = HashPartitioner().Partition(ring, 3);
  EngineOptions options = RelaxedOptions(3);
  options.profile = ProfileFor(SystemKind::kPregelPlusMirror);
  options.profile.mirror_degree_threshold = 2;  // Mirror everything.
  SyncEngine engine(ring, part, options);
  BroadcastOnce program(ring);
  auto result = engine.Run(program);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (VertexId v = 0; v < 12; ++v) {
    EXPECT_DOUBLE_EQ(program.ReceivedAt(v), 4.0);  // One per neighbour.
  }
  // Logical congestion counts the per-neighbour deliveries.
  EXPECT_DOUBLE_EQ(result.value().total_messages, 48.0);
}

TEST(SyncEngineTest, ThreadedExecutionIsBitIdenticalToSerial) {
  // Machines own disjoint state and per-machine random streams, so the
  // compute phase parallelises without changing a single statistic.
  RmatParams params;
  params.num_vertices = 3000;
  params.num_edges = 20000;
  params.seed = 13;
  Graph graph = GenerateRmat(params);
  Partitioning part = HashPartitioner().Partition(graph, 8);
  auto run = [&](uint32_t threads) {
    EngineOptions options = RelaxedOptions(8);
    options.execution_threads = threads;
    SyncEngine engine(graph, part, options);
    // A stochastic program is the hard case: walk splits must come from
    // per-machine streams.
    TaskContext context{&graph, &part, 1.0, false};
    BpprCountingProgram program(context, /*walks=*/64, {}, /*seed=*/3);
    auto result = engine.Run(program);
    EXPECT_TRUE(result.ok());
    return std::make_pair(result.value_or(EngineResult{}),
                          program.TotalStopped());
  };
  auto [serial, serial_stopped] = run(1);
  auto [threaded, threaded_stopped] = run(4);
  EXPECT_EQ(serial_stopped, threaded_stopped);
  EXPECT_DOUBLE_EQ(serial.seconds, threaded.seconds);
  EXPECT_DOUBLE_EQ(serial.total_messages, threaded.total_messages);
  EXPECT_DOUBLE_EQ(serial.peak_memory_bytes, threaded.peak_memory_bytes);
  EXPECT_EQ(serial.num_rounds, threaded.num_rounds);
}

TEST(SyncEngineTest, MirroringReducesCrossBytes) {
  // Skewed graph: hubs broadcast; mirrors should cut cross-machine bytes
  // versus the same broadcast without mirrors.
  RmatParams params;
  params.num_vertices = 2000;
  params.num_edges = 16000;
  params.seed = 21;
  Graph graph = GenerateRmat(params);
  Partitioning part = HashPartitioner().Partition(graph, 8);

  auto run = [&](uint64_t threshold) {
    EngineOptions options = RelaxedOptions(8);
    options.profile = ProfileFor(SystemKind::kPregelPlusMirror);
    options.profile.mirror_degree_threshold = threshold;
    SyncEngine engine(graph, part, options);
    BroadcastOnce program(graph);
    auto result = engine.Run(program);
    EXPECT_TRUE(result.ok());
    double cross = 0.0;
    for (const RoundStats& stats : result.value().rounds) {
      cross += stats.cross_machine_bytes;
    }
    return cross;
  };
  double with_mirrors = run(8);
  double without_mirrors = run(1u << 30);
  EXPECT_LT(with_mirrors, 0.8 * without_mirrors);
}

}  // namespace
}  // namespace vcmp
