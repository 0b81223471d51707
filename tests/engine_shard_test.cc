// Tests of the vertex-sharded compute phase: the work-stealing parallel
// loop, the single thread-resolution policy both engines share, and the
// regression at the heart of the shard design — results are bit-identical
// across thread counts AND shard counts AND stealing on/off, even when
// one machine owns almost all of the inbox (the skew that motivates
// stealing in the first place).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/gas_engine.h"
#include "engine/sync_engine.h"
#include "graph/graph_builder.h"
#include "graph/partition.h"
#include "tasks/gas_tasks.h"
#include "tasks/task_registry.h"
#include "test_util.h"

namespace vcmp {
namespace {

using testing_util::RelaxedCluster;

// --- ParallelForStealable --------------------------------------------

TEST(ParallelForStealableTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelForStealable(1000,
                            [&hits](uint32_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ParallelForStealableTest, ZeroWorkersExecutesInline) {
  ThreadPool pool(0);
  std::vector<int> hits(64, 0);  // Not atomic: single participant.
  pool.ParallelForStealable(64, [&hits](uint32_t i) { ++hits[i]; });
  for (int hit : hits) EXPECT_EQ(hit, 1);
}

TEST(ParallelForStealableTest, MoreParticipantsThanIndices) {
  ThreadPool pool(7);
  std::vector<std::atomic<int>> hits(3);
  pool.ParallelForStealable(3, [&hits](uint32_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ParallelForStealableTest, SkewedIndexCostsStillCoverEverything) {
  // One pathologically heavy index: the owners of the light indices drain
  // their own work and steal the rest; every index must still run once.
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(256);
  pool.ParallelForStealable(256, [&hits](uint32_t i) {
    if (i == 0) {
      // vcmp:lint-allow(C2, local busy-loop sink defeating the optimizer, not synchronization)
      volatile double sink = 0.0;
      for (int k = 0; k < 200000; ++k) sink = sink + k;
    }
    hits[i].fetch_add(1);
  });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ParallelForStealableTest, ReusableAcrossManyBarriers) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.ParallelForStealable(7, [&total](uint32_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 200 * 7);
}

// --- Thread resolution policy ----------------------------------------

// Both engines turn (execution_threads, clamp_threads_to_hardware) into a
// worker count through this single policy point, so the clamp cannot
// behave differently between SyncEngine and GasEngine.
TEST(ResolveThreadsTest, ZeroMeansHardwareConcurrency) {
  EXPECT_EQ(ThreadPool::ResolveThreads(0, false), ThreadPool::HardwareThreads());
  EXPECT_EQ(ThreadPool::ResolveThreads(0, true), ThreadPool::HardwareThreads());
}

TEST(ResolveThreadsTest, ClampCapsAtHardwareOnlyWhenAsked) {
  const uint32_t hw = ThreadPool::HardwareThreads();
  EXPECT_EQ(ThreadPool::ResolveThreads(hw + 64, true), hw);
  EXPECT_EQ(ThreadPool::ResolveThreads(hw + 64, false), hw + 64);
  EXPECT_EQ(ThreadPool::ResolveThreads(1, true), 1u);
  EXPECT_EQ(ThreadPool::ResolveThreads(1, false), 1u);
}

// --- Skewed-inbox fixture --------------------------------------------

constexpr VertexId kSkewVertices = 2048;
constexpr uint32_t kSkewMachines = 8;
constexpr VertexId kSkewHubs = 64;  // All on machine 0.

// Power-law-ish directed graph where nearly every edge points at one of
// the 64 hub vertices, and a block partition puts every hub on machine 0:
// machine 0 then receives the overwhelming majority of each round's
// messages while the other seven machines stay nearly idle. This is the
// skew that makes a static shard-per-thread split pathological and is
// exactly the case work stealing exists for.
Graph BuildSkewedGraph() {
  GraphBuilder builder(kSkewVertices);
  Rng rng(97);
  for (VertexId v = 0; v < kSkewVertices; ++v) {
    for (int e = 0; e < 6; ++e) {
      builder.AddEdge(v, static_cast<VertexId>(rng.NextBounded(kSkewHubs)));
    }
    builder.AddEdge(v, static_cast<VertexId>(rng.NextBounded(kSkewVertices)));
  }
  GraphBuildOptions options;
  options.symmetrize = false;  // Keep the skew directed at the hubs.
  return builder.Build(options);
}

Partitioning BuildSkewedPartition() {
  Partitioning partition;
  partition.num_machines = kSkewMachines;
  partition.assignment.resize(kSkewVertices);
  const VertexId per_machine = kSkewVertices / kSkewMachines;
  for (VertexId v = 0; v < kSkewVertices; ++v) {
    partition.assignment[v] = static_cast<uint32_t>(v / per_machine);
  }
  return partition;
}

struct SkewedFixture {
  Graph graph;
  Partitioning partition;
  SkewedFixture() : graph(BuildSkewedGraph()), partition(BuildSkewedPartition()) {}

  static const SkewedFixture& Get() {
    static const SkewedFixture* fixture = new SkewedFixture();
    return *fixture;
  }

  /// Fraction of directed edges whose target lives on machine 0. Walks
  /// split uniformly over out-neighbours, so this is also the expected
  /// fraction of messages machine 0 receives each round.
  double FractionTargetingMachine0() const {
    uint64_t to_zero = 0;
    uint64_t total = 0;
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      for (VertexId u : graph.Neighbors(v)) {
        total += 1;
        if (partition.MachineOf(u) == 0) to_zero += 1;
      }
    }
    return total == 0 ? 0.0 : static_cast<double>(to_zero) /
                                  static_cast<double>(total);
  }
};

TEST(ShardSkewFixtureTest, MachineZeroReceivesOverEightyPercent) {
  EXPECT_GT(SkewedFixture::Get().FractionTargetingMachine0(), 0.8);
}

// --- Sync engine: bit-identical across threads × shards × stealing ---

EngineResult RunSkewedBatch(SystemKind system, uint32_t threads,
                            uint32_t shards, bool stealing) {
  const SkewedFixture& fx = SkewedFixture::Get();
  EngineOptions options;
  options.cluster = RelaxedCluster(kSkewMachines);
  options.profile = ProfileFor(system);
  options.execution_threads = threads;
  options.clamp_threads_to_hardware = false;  // Exercise the exact count.
  options.compute_shards_per_machine = shards;
  options.enable_work_stealing = stealing;
  SyncEngine engine(fx.graph, fx.partition, options);

  TaskContext context{&fx.graph, &fx.partition, 1.0,
                      options.profile.combines_messages};
  auto task = MakeTask("BPPR");
  EXPECT_TRUE(task.ok());
  const double workload = options.profile.mirroring ? 8.0 : 256.0;
  auto program = task.value()->MakeProgram(
      context,
      options.profile.mirroring ? ProgramFlavor::kBroadcast
                                : ProgramFlavor::kPointToPoint,
      workload, /*seed=*/23);
  EXPECT_TRUE(program.ok());
  auto result = engine.Run(*program.value());
  EXPECT_TRUE(result.ok());
  return result.value_or(EngineResult{});
}

void ExpectBitIdentical(const EngineResult& a, const EngineResult& b) {
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.num_rounds, b.num_rounds);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes);
  EXPECT_EQ(a.peak_residual_bytes, b.peak_residual_bytes);
  EXPECT_EQ(a.peak_buffered_bytes, b.peak_buffered_bytes);
  ASSERT_EQ(a.residual_bytes_per_machine.size(),
            b.residual_bytes_per_machine.size());
  for (size_t m = 0; m < a.residual_bytes_per_machine.size(); ++m) {
    EXPECT_EQ(a.residual_bytes_per_machine[m], b.residual_bytes_per_machine[m])
        << "machine " << m;
  }
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].messages, b.rounds[i].messages) << "round " << i;
    EXPECT_EQ(a.rounds[i].cross_machine_bytes, b.rounds[i].cross_machine_bytes)
        << "round " << i;
  }
}

TEST(ShardDeterminismTest, SkewedInboxIdenticalAcrossThreadsShardsStealing) {
  // The full matrix from the determinism contract: every thread count in
  // {1, 2, 4, 8} × every shard count in {1, 4, 64} × stealing on/off must
  // reproduce the single-thread single-shard run bit for bit — for the
  // plain profile and for GraphLab, whose wire count comes from the
  // per-(sender, destination) key tally.
  for (SystemKind system : {SystemKind::kPregelPlus, SystemKind::kGraphLab}) {
    const EngineResult baseline = RunSkewedBatch(system, 1, 1, false);
    EXPECT_GT(baseline.num_rounds, 1u);
    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
      for (uint32_t shards : {1u, 4u, 64u}) {
        for (bool stealing : {false, true}) {
          if (threads == 1 && shards == 1 && !stealing) continue;
          SCOPED_TRACE(testing::Message()
                       << ProfileFor(system).name << " threads=" << threads
                       << " shards=" << shards << " stealing=" << stealing);
          ExpectBitIdentical(
              baseline, RunSkewedBatch(system, threads, shards, stealing));
        }
      }
    }
  }
}

TEST(ShardDeterminismTest, MirrorProfileIdenticalOnSkewedInbox) {
  // Broadcast + mirror delivery exercises the mirror merge path.
  const EngineResult baseline =
      RunSkewedBatch(SystemKind::kPregelPlusMirror, 1, 1, false);
  EXPECT_GT(baseline.num_rounds, 1u);
  for (uint32_t threads : {1u, 4u}) {
    for (uint32_t shards : {4u, 64u}) {
      for (bool stealing : {false, true}) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads
                                        << " shards=" << shards
                                        << " stealing=" << stealing);
        ExpectBitIdentical(baseline,
                           RunSkewedBatch(SystemKind::kPregelPlusMirror,
                                          threads, shards, stealing));
      }
    }
  }
}

TEST(ShardDeterminismTest, OutOfCoreProfileIdenticalOnSkewedInbox) {
  // GraphD's plain (no combiner, no mirrors) merge path.
  const EngineResult baseline =
      RunSkewedBatch(SystemKind::kGraphD, 1, 1, false);
  EXPECT_GT(baseline.num_rounds, 1u);
  for (uint32_t shards : {4u, 64u}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    ExpectBitIdentical(baseline,
                       RunSkewedBatch(SystemKind::kGraphD, 8, shards, true));
  }
}

// --- GAS engine: sharded sync Process loop ---------------------------

GasResult RunGasSkewed(uint32_t threads, uint32_t shards, bool stealing,
                       uint64_t* total_stopped) {
  const SkewedFixture& fx = SkewedFixture::Get();
  GasOptions options;
  options.cluster = RelaxedCluster(kSkewMachines);
  options.profile = ProfileFor(SystemKind::kGraphLab);
  options.execution_threads = threads;
  options.clamp_threads_to_hardware = false;
  options.compute_shards = shards;
  options.enable_work_stealing = stealing;
  GasBpprWalks program(fx.graph, fx.partition, /*walks_per_vertex=*/32,
                       GasBpprWalks::Params{}, /*seed=*/13);
  GasEngine engine(fx.graph, fx.partition, options);
  auto result = engine.Run(program);
  EXPECT_TRUE(result.ok());
  if (total_stopped != nullptr) *total_stopped = program.TotalStopped();
  return result.value_or(GasResult{});
}

void ExpectGasIdentical(const GasResult& a, const GasResult& b) {
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.passes, b.passes);
  EXPECT_EQ(a.activations, b.activations);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.network_bytes_per_machine, b.network_bytes_per_machine);
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes);
  ASSERT_EQ(a.residual_bytes_per_machine.size(),
            b.residual_bytes_per_machine.size());
  for (size_t m = 0; m < a.residual_bytes_per_machine.size(); ++m) {
    EXPECT_EQ(a.residual_bytes_per_machine[m], b.residual_bytes_per_machine[m])
        << "machine " << m;
  }
}

TEST(ShardDeterminismTest, GasSyncIdenticalAcrossThreadsShardsStealing) {
  uint64_t baseline_stopped = 0;
  const GasResult baseline = RunGasSkewed(1, 1, false, &baseline_stopped);
  EXPECT_GT(baseline.passes, 1u);
  EXPECT_GT(baseline_stopped, 0u);
  for (uint32_t threads : {1u, 8u}) {
    for (uint32_t shards : {1u, 4u, 64u}) {
      for (bool stealing : {false, true}) {
        if (threads == 1 && shards == 1 && !stealing) continue;
        SCOPED_TRACE(testing::Message() << "threads=" << threads
                                        << " shards=" << shards
                                        << " stealing=" << stealing);
        uint64_t stopped = 0;
        ExpectGasIdentical(baseline,
                           RunGasSkewed(threads, shards, stealing, &stopped));
        EXPECT_EQ(stopped, baseline_stopped);
      }
    }
  }
}

// --- Clamp unification (both engines, same policy) --------------------

TEST(ThreadClampTest, SyncEngineClampedRequestMatchesHardwareRun) {
  // An absurd thread request with the clamp on must behave exactly like
  // asking for the hardware concurrency outright — both engines resolve
  // through ThreadPool::ResolveThreads, so this guards against the two
  // drifting apart again.
  const uint32_t hw = ThreadPool::HardwareThreads();
  EngineResult clamped = [&] {
    const SkewedFixture& fx = SkewedFixture::Get();
    EngineOptions options;
    options.cluster = RelaxedCluster(kSkewMachines);
    options.profile = ProfileFor(SystemKind::kPregelPlus);
    options.execution_threads = hw + 1000;
    options.clamp_threads_to_hardware = true;
    SyncEngine engine(fx.graph, fx.partition, options);
    TaskContext context{&fx.graph, &fx.partition, 1.0,
                        options.profile.combines_messages};
    auto task = MakeTask("BPPR");
    EXPECT_TRUE(task.ok());
    auto program = task.value()->MakeProgram(
        context, ProgramFlavor::kPointToPoint, 256.0, /*seed=*/23);
    EXPECT_TRUE(program.ok());
    auto result = engine.Run(*program.value());
    EXPECT_TRUE(result.ok());
    return result.value_or(EngineResult{});
  }();
  ExpectBitIdentical(clamped,
                     RunSkewedBatch(SystemKind::kPregelPlus, hw, 0, true));
}

TEST(ThreadClampTest, GasEngineClampedRequestMatchesHardwareRun) {
  const uint32_t hw = ThreadPool::HardwareThreads();
  const SkewedFixture& fx = SkewedFixture::Get();
  GasOptions options;
  options.cluster = RelaxedCluster(kSkewMachines);
  options.profile = ProfileFor(SystemKind::kGraphLab);
  options.execution_threads = hw + 1000;
  options.clamp_threads_to_hardware = true;
  GasBpprWalks clamped_program(fx.graph, fx.partition, 32,
                               GasBpprWalks::Params{}, /*seed=*/13);
  GasEngine engine(fx.graph, fx.partition, options);
  auto clamped = engine.Run(clamped_program);
  ASSERT_TRUE(clamped.ok());
  uint64_t stopped = 0;
  const GasResult reference = RunGasSkewed(hw, 0, true, &stopped);
  ExpectGasIdentical(clamped.value(), reference);
  EXPECT_EQ(clamped_program.TotalStopped(), stopped);
}

}  // namespace
}  // namespace vcmp
