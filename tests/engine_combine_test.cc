// Tests of sender-side combining (DESIGN.md §16): the Sum/Min combiner
// fold semantics the unified combine path relies on, and the contract
// that enabling combining changes wire traffic but never task results.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "engine/message.h"
#include "engine/sync_engine.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "tasks/bppr.h"
#include "tasks/mssp.h"
#include "test_util.h"

namespace vcmp {
namespace {

using testing_util::RelaxedCluster;

// --- Combiner fold semantics -----------------------------------------

TEST(SumCombinerTest, MergeAddsValueAndMultiplicity) {
  SumCombiner combiner;
  Message into{7, 3, 1.5, 2.0};
  const Message from{7, 3, 2.25, 3.0};
  combiner.Merge(into, from);
  EXPECT_EQ(into.value, 3.75);
  EXPECT_EQ(into.multiplicity, 5.0);
  EXPECT_EQ(into.target, 7u);
  EXPECT_EQ(into.tag, 3u);
  EXPECT_EQ(combiner.kind(), CombinerKind::kSum);
}

TEST(SumCombinerTest, ExactFoldOnlyWhenPromised) {
  EXPECT_FALSE(SumCombiner().exact_fold());
  EXPECT_FALSE(SumCombiner(false).exact_fold());
  EXPECT_TRUE(SumCombiner(true).exact_fold());
}

TEST(SumCombinerTest, FoldOrderPinsFloatingPointResult) {
  // The engine's determinism contract is that a combined run folds in
  // exactly the left-to-right order a receiver-side fold over the stable
  // grouped inbox would use. These inputs make the order observable:
  // (0.1 + 0.2) + 0.3 and 0.1 + (0.2 + 0.3) round differently.
  const double a = 0.1, b = 0.2, c = 0.3;
  ASSERT_NE((a + b) + c, a + (b + c));

  SumCombiner combiner;
  Message into{0, 0, a, 1.0};
  combiner.Merge(into, Message{0, 0, b, 1.0});
  combiner.Merge(into, Message{0, 0, c, 1.0});
  EXPECT_EQ(into.value, (a + b) + c);

  // Seeding the fold at the additive identity (how the unified combine
  // table opens a fresh slot) must be a bitwise no-op for the sequence.
  Message seeded{0, 0, 0.0, 0.0};
  combiner.Merge(seeded, Message{0, 0, a, 1.0});
  combiner.Merge(seeded, Message{0, 0, b, 1.0});
  combiner.Merge(seeded, Message{0, 0, c, 1.0});
  EXPECT_EQ(seeded.value, into.value);
  EXPECT_EQ(seeded.multiplicity, into.multiplicity);
}

TEST(SumCombinerTest, ExactIntegerFoldIsSegmentationInvariant) {
  // exact_fold()'s promise: folding any contiguous segmentation, then the
  // segment results in order, is bit-identical to one left-to-right fold.
  // This is what lets each compute shard pre-combine independently.
  const std::vector<double> counts = {3, 17, 1, 64, 2, 9, 5, 40};
  SumCombiner combiner(/*exact=*/true);
  ASSERT_TRUE(combiner.exact_fold());

  Message flat{0, 0, counts[0], 1.0};
  for (size_t i = 1; i < counts.size(); ++i) {
    combiner.Merge(flat, Message{0, 0, counts[i], 1.0});
  }
  for (size_t split = 1; split < counts.size(); ++split) {
    Message left{0, 0, counts[0], 1.0};
    for (size_t i = 1; i < split; ++i) {
      combiner.Merge(left, Message{0, 0, counts[i], 1.0});
    }
    Message right{0, 0, counts[split], 1.0};
    for (size_t i = split + 1; i < counts.size(); ++i) {
      combiner.Merge(right, Message{0, 0, counts[i], 1.0});
    }
    combiner.Merge(left, right);
    EXPECT_EQ(left.value, flat.value) << "split at " << split;
    EXPECT_EQ(left.multiplicity, flat.multiplicity);
  }
}

TEST(MinCombinerTest, KeepsMinimumAndSumsMultiplicity) {
  MinCombiner combiner;
  Message into{4, 1, 9.0, 2.0};
  combiner.Merge(into, Message{4, 1, 3.0, 5.0});
  EXPECT_EQ(into.value, 3.0);
  EXPECT_EQ(into.multiplicity, 7.0);
  combiner.Merge(into, Message{4, 1, 8.0, 1.0});
  EXPECT_EQ(into.value, 3.0);  // Larger value never wins.
  EXPECT_EQ(into.multiplicity, 8.0);
  EXPECT_EQ(combiner.kind(), CombinerKind::kMin);
}

TEST(MinCombinerTest, StrictLessKeepsEarlierMessageOnTies) {
  // The strict `<` makes the value fold associative: ties — including
  // the ±0.0 pair, which compare equal — keep the earlier operand, so
  // any fold tree picks the same representative.
  MinCombiner combiner;
  Message neg_zero_first{0, 0, -0.0, 1.0};
  combiner.Merge(neg_zero_first, Message{0, 0, +0.0, 1.0});
  EXPECT_TRUE(std::signbit(neg_zero_first.value));

  Message pos_zero_first{0, 0, +0.0, 1.0};
  combiner.Merge(pos_zero_first, Message{0, 0, -0.0, 1.0});
  EXPECT_FALSE(std::signbit(pos_zero_first.value));

  // Seeding a fresh fold slot at +inf (the min identity) is a no-op.
  Message seeded{0, 0, std::numeric_limits<double>::infinity(), 0.0};
  combiner.Merge(seeded, Message{0, 0, 5.0, 2.0});
  EXPECT_EQ(seeded.value, 5.0);
  EXPECT_EQ(seeded.multiplicity, 2.0);
}

TEST(MinCombinerTest, ExactFoldOnlyWhenPromised) {
  EXPECT_FALSE(MinCombiner().exact_fold());
  EXPECT_TRUE(MinCombiner(true).exact_fold());
}

// --- Engine-level combining on/off -----------------------------------

/// Full bit-identity including wire traffic — for runs that must be
/// indistinguishable (same combining setting, different thread counts or
/// internal toggles).
void ExpectRunsBitIdentical(const EngineResult& a, const EngineResult& b) {
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.num_rounds, b.num_rounds);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.total_wire_messages, b.total_wire_messages);
  EXPECT_EQ(a.total_logical_sent, b.total_logical_sent);
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].messages, b.rounds[i].messages) << "round " << i;
    EXPECT_EQ(a.rounds[i].cross_machine_bytes,
              b.rounds[i].cross_machine_bytes)
        << "round " << i;
  }
}

struct CombineRunOptions {
  bool combining = false;
  uint32_t threads = 1;
  bool shard_precombine = true;
};

EngineOptions MakeOptions(const CombineRunOptions& opts, uint32_t machines) {
  EngineOptions options;
  options.cluster = RelaxedCluster(machines);
  options.profile = ProfileFor(SystemKind::kPregelPlus);
  options.execution_threads = opts.threads;
  options.clamp_threads_to_hardware = false;
  options.sender_combining = opts.combining;
  options.shard_precombine = opts.shard_precombine;
  return options;
}

/// One MSSP batch (8 sampled sources -> tag universe 8, MinCombiner) on
/// a fixed R-MAT graph. Returns the engine stats plus every per-sample
/// distance, so result identity is checked at task-output granularity.
std::pair<EngineResult, std::vector<uint32_t>> RunMssp(
    const CombineRunOptions& opts) {
  RmatParams rmat;
  rmat.num_vertices = 2000;
  rmat.num_edges = 12000;
  rmat.seed = 77;
  static const Graph& graph = *new Graph(GenerateRmat(rmat));
  static const Partitioning& part =
      *new Partitioning(HashPartitioner().Partition(graph, 4));
  SyncEngine engine(graph, part, MakeOptions(opts, 4));
  TaskContext context{&graph, &part, 1.0, opts.combining};
  MsspProgram program(context, ProgramFlavor::kPointToPoint,
                      /*workload=*/8.0, MsspTask::Params{}, /*seed=*/5);
  auto result = engine.Run(program);
  EXPECT_TRUE(result.ok());
  std::vector<uint32_t> distances;
  distances.reserve(static_cast<size_t>(program.num_samples()) *
                    graph.NumVertices());
  for (uint32_t sample = 0; sample < program.num_samples(); ++sample) {
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      distances.push_back(program.Distance(sample, v));
    }
  }
  return {result.value_or(EngineResult{}), std::move(distances)};
}

/// One stochastic BPPR counting batch (SumCombiner over walk counts).
/// Random-walk forwarding is the hardest determinism case: any change in
/// fold order that leaked into values would move TotalStopped().
std::pair<EngineResult, uint64_t> RunBpprCounting(
    const CombineRunOptions& opts) {
  RmatParams rmat;
  rmat.num_vertices = 2000;
  rmat.num_edges = 12000;
  rmat.seed = 41;
  static const Graph& graph = *new Graph(GenerateRmat(rmat));
  static const Partitioning& part =
      *new Partitioning(HashPartitioner().Partition(graph, 4));
  SyncEngine engine(graph, part, MakeOptions(opts, 4));
  TaskContext context{&graph, &part, 1.0, opts.combining};
  BpprCountingProgram program(context, /*walks=*/64, {}, /*seed=*/3);
  auto result = engine.Run(program);
  EXPECT_TRUE(result.ok());
  return {result.value_or(EngineResult{}), program.TotalStopped()};
}

TEST(SenderCombiningTest, MsspResultsIdenticalWithAndWithoutCombining) {
  auto [off, off_dist] = RunMssp({.combining = false});
  auto [on, on_dist] = RunMssp({.combining = true});
  // Combining changes the wire, never the task result or message flow.
  EXPECT_EQ(off_dist, on_dist);
  EXPECT_EQ(off.num_rounds, on.num_rounds);
  EXPECT_EQ(off.total_messages, on.total_messages);
  EXPECT_EQ(off.total_logical_sent, on.total_logical_sent);
  // The off run sends one wire message per logical unit; the on run
  // must actually merge some (a 2000-vertex R-MAT has many vertices
  // reached from several frontier neighbours in the same round).
  EXPECT_EQ(off.CombinedRatio(), 1.0);
  EXPECT_GT(on.CombinedRatio(), 1.0);
  EXPECT_LT(on.total_wire_messages, off.total_wire_messages);
}

TEST(SenderCombiningTest, MsspCombinedRunBitIdenticalAcrossThreads) {
  auto [serial, serial_dist] = RunMssp({.combining = true, .threads = 1});
  for (uint32_t threads : {2u, 8u}) {
    auto [threaded, threaded_dist] =
        RunMssp({.combining = true, .threads = threads});
    ExpectRunsBitIdentical(serial, threaded);
    EXPECT_EQ(serial_dist, threaded_dist);
  }
}

TEST(SenderCombiningTest, MsspInvariantToShardPrecombine) {
  // shard_precombine moves folding earlier (into the compute shards); it
  // is a pure performance toggle — every statistic must be bit-identical.
  auto [base, base_dist] = RunMssp({.combining = true, .threads = 8});
  for (bool precombine : {false, true}) {
    auto [run, dist] = RunMssp(
        {.combining = true, .threads = 8, .shard_precombine = precombine});
    ExpectRunsBitIdentical(base, run);
    EXPECT_EQ(base_dist, dist);
  }
}

TEST(SenderCombiningTest, StochasticWalkCountsSurviveCombining) {
  auto [off, off_stopped] = RunBpprCounting({.combining = false});
  EXPECT_GT(off_stopped, 0u);
  for (uint32_t threads : {1u, 8u}) {
    auto [on, on_stopped] =
        RunBpprCounting({.combining = true, .threads = threads});
    EXPECT_EQ(on_stopped, off_stopped);
    EXPECT_EQ(on.num_rounds, off.num_rounds);
    EXPECT_EQ(on.total_logical_sent, off.total_logical_sent);
    EXPECT_GT(on.CombinedRatio(), 1.0);
  }
}

}  // namespace
}  // namespace vcmp
