// Tests of the engine's parallel-execution machinery: the thread pool,
// the inbox grouper (against a stable-sort oracle), the flat wire-key
// set, and the regression that engine results are bit-identical for
// every thread count (the determinism contract every perf change must
// preserve).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/sync_engine.h"
#include "engine/worker.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "tasks/bppr.h"
#include "tasks/mssp.h"
#include "tasks/pagerank.h"
#include "tasks/task_registry.h"
#include "test_util.h"

namespace vcmp {
namespace {

using testing_util::RelaxedCluster;

TEST(ThreadPoolTest, SubmitAndWaitRunsEveryTask) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_workers(), 3u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ZeroWorkersExecutesInline) {
  ThreadPool pool(0);
  int count = 0;  // Not atomic: inline execution is single-threaded.
  pool.Submit([&count] { ++count; });
  EXPECT_EQ(count, 1);  // Already ran, before Wait.
  pool.Wait();
  EXPECT_EQ(count, 1);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&hits](uint32_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossManyBarriers) {
  // The engine reuses one pool for every superstep; the pool must survive
  // many Submit/Wait and ParallelFor cycles without deadlock or loss.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.ParallelFor(7, [&total](uint32_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 200 * 7);
}

TEST(ThreadPoolTest, ParallelSortMatchesSerialSort) {
  Rng rng(17);
  std::vector<uint64_t> values(100000);
  for (uint64_t& v : values) v = rng.NextUint64();
  std::vector<uint64_t> expected = values;
  std::sort(expected.begin(), expected.end());
  ThreadPool pool(3);
  ParallelSort(pool, values.begin(), values.end(), std::less<uint64_t>());
  EXPECT_EQ(values, expected);
}

TEST(ThreadPoolTest, ParallelSortSmallInputFallsBackToSerial) {
  ThreadPool pool(3);
  std::vector<int> values = {5, 3, 1, 4, 2};
  ParallelSort(pool, values.begin(), values.end(), std::less<int>());
  EXPECT_EQ(values, (std::vector<int>{1, 2, 3, 4, 5}));
}

// --- Inbox grouping oracle ------------------------------------------

/// A dense vertex numbering for one machine: `locals` ascending, and
/// local_index[v] = v's position in `locals` (zero for vertices the
/// machine does not own).
struct Numbering {
  std::vector<VertexId> locals;
  std::vector<uint32_t> local_index;
};

/// `count` owned vertices spread over a universe about twice as large,
/// so local positions differ from vertex ids.
Numbering MakeNumbering(uint32_t count, Rng& rng) {
  Numbering numbering;
  for (VertexId v = 0; numbering.locals.size() < count; ++v) {
    if (rng.NextBernoulli(0.5)) {
      numbering.locals.push_back(v);
      numbering.local_index.resize(v + 1, 0);
      numbering.local_index[v] =
          static_cast<uint32_t>(numbering.locals.size() - 1);
    }
  }
  return numbering;
}

/// Groups `inbox` — split into `segments` consecutive pieces at random
/// cut points, every third one repeated so some pieces are empty (the
/// shape of quiet shards) — and checks the result against
/// std::stable_sort on (target, tag). Runs must tile [0, n) with strictly
/// ascending keys. The payload encodes the arrival position, so
/// stability is observable.
void ExpectGroupingMatchesStableSort(const std::vector<Message>& inbox,
                                     const Numbering* numbering = nullptr,
                                     uint32_t segments = 1,
                                     uint64_t seed = 1) {
  std::vector<Message> expected = inbox;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Message& a, const Message& b) {
                     if (a.target != b.target) return a.target < b.target;
                     return a.tag < b.tag;
                   });
  Rng rng(seed);
  std::vector<size_t> cuts = {0, inbox.size()};
  for (uint32_t s = 1; s < segments; ++s) {
    cuts.push_back(s % 3 == 0 ? cuts.back()
                              : rng.NextBounded(inbox.size() + 1));
  }
  std::sort(cuts.begin(), cuts.end());
  std::vector<MessageBlock> blocks(cuts.size() - 1);
  std::vector<const MessageBlock*> pieces;
  for (size_t b = 0; b < blocks.size(); ++b) {
    for (size_t i = cuts[b]; i < cuts[b + 1]; ++i) {
      blocks[b].PushBack(inbox[i]);
    }
    pieces.push_back(&blocks[b]);
  }

  Worker worker;
  worker.Reset();
  if (numbering != nullptr) {
    worker.SetLocalNumbering(numbering->local_index.data(),
                             numbering->locals);
  }
  worker.GroupInbox(pieces);
  ASSERT_EQ(worker.grouped_size(), expected.size());
  const double* values = worker.grouped_values();
  const double* mults = worker.grouped_multiplicities();
  size_t pos = 0;
  for (const MessageRun& run : worker.runs()) {
    ASSERT_EQ(static_cast<size_t>(run.begin), pos);
    ASSERT_LT(run.begin, run.end);
    if (pos > 0) {
      const Message& last = expected[pos - 1];
      ASSERT_TRUE(last.target < run.target ||
                  (last.target == run.target && last.tag < run.tag))
          << "runs out of order at " << pos;
    }
    for (uint32_t i = run.begin; i < run.end; ++i) {
      ASSERT_EQ(run.target, expected[i].target) << "at " << i;
      ASSERT_EQ(run.tag, expected[i].tag) << "at " << i;
    }
    pos = run.end;
  }
  ASSERT_EQ(pos, expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(values[i], expected[i].value) << "at " << i;
    ASSERT_EQ(mults[i], expected[i].multiplicity) << "at " << i;
  }
}

std::vector<Message> RandomInbox(size_t size, uint32_t num_targets,
                                 uint32_t num_tags, uint64_t seed) {
  Rng rng(seed);
  std::vector<Message> inbox;
  inbox.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    inbox.push_back(
        Message{static_cast<VertexId>(rng.NextBounded(num_targets)),
                static_cast<uint32_t>(rng.NextBounded(num_tags)),
                static_cast<double>(i), 1.0 + 0.5 * static_cast<double>(i)});
  }
  return inbox;
}

TEST(GroupingOracleTest, RandomizedShapesMatchStableSort) {
  // Local spaces of 1, ~9.6K (one machine's share of the benchmark
  // graph) and 2^20 vertices, plus raw vertex ids spanning 32 bits; tag
  // widths 0..32 bits, so keys run from one bucket to wider than 32 bits;
  // random, presorted, reversed and heavy-duplicate arrival orders; one
  // segment or 8 senders x 16 shards.
  const std::vector<size_t> sizes = {0,   1,    2,     63,    64,
                                     65,  127,  1000,  20000, 200000};
  const uint32_t spaces[] = {0, 1, 9600, 1u << 20};  // 0: raw ids.
  const int tag_widths[] = {0, 1, 3, 8, 16, 32};
  Rng rng(2024);
  std::vector<Numbering> numberings;
  for (uint32_t space : spaces) {
    numberings.push_back(space > 0 ? MakeNumbering(space, rng) : Numbering{});
  }
  for (int draw = 0; draw < 64; ++draw) {
    const size_t n = sizes[draw < 20 ? draw % sizes.size()
                                     : rng.NextBounded(sizes.size())];
    const uint32_t space_index = draw % 4;
    const Numbering* numbering =
        spaces[space_index] > 0 ? &numberings[space_index] : nullptr;
    const int tag_width = tag_widths[rng.NextBounded(6)];
    const int order = (draw / 4) % 4;
    const uint32_t segments = (draw / 16) % 2 == 0 ? 1 : 8 * 16;
    // Heavy duplicates: a handful of distinct (target, tag) keys.
    const uint64_t distinct = order == 3 ? 1 + rng.NextBounded(4) : 0;
    const auto draw_target = [&]() -> VertexId {
      if (numbering == nullptr) return static_cast<VertexId>(rng.NextUint64());
      return numbering->locals[rng.NextBounded(numbering->locals.size())];
    };
    std::vector<Message> inbox;
    inbox.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Message message;
      if (distinct > 0 && i >= distinct) {
        message = inbox[rng.NextBounded(distinct)];
      } else {
        message.target = draw_target();
        message.tag = tag_width == 0
                          ? 0
                          : static_cast<uint32_t>(rng.NextUint64() >>
                                                  (64 - tag_width));
      }
      message.value = static_cast<double>(i);
      message.multiplicity = 1.0 + 0.25 * static_cast<double>(i);
      inbox.push_back(message);
    }
    if (order == 1 || order == 2) {
      std::stable_sort(inbox.begin(), inbox.end(),
                       [order](const Message& a, const Message& b) {
                         const bool less = a.target != b.target
                                               ? a.target < b.target
                                               : a.tag < b.tag;
                         const bool greater = a.target != b.target
                                                  ? a.target > b.target
                                                  : a.tag > b.tag;
                         return order == 1 ? less : greater;
                       });
      for (size_t i = 0; i < n; ++i) inbox[i].value = static_cast<double>(i);
    }
    SCOPED_TRACE(::testing::Message()
                 << "draw " << draw << ": n=" << n << " space="
                 << spaces[space_index] << " tag_bits=" << tag_width
                 << " order=" << order << " segments=" << segments);
    ExpectGroupingMatchesStableSort(inbox, numbering, segments, draw + 1);
  }
}

TEST(RadixGroupingTest, MatchesStableSortAcrossSizes) {
  // Straddles the digit-width breakpoints (small inboxes plan 8-bit
  // digits, large ones up to 16) from both sides.
  for (size_t size : {0u, 1u, 2u, 63u, 64u, 65u, 127u, 1000u, 20000u}) {
    ExpectGroupingMatchesStableSort(
        RandomInbox(size, /*num_targets=*/977, /*num_tags=*/5,
                    /*seed=*/size + 1));
  }
}

TEST(RadixGroupingTest, StableOnHeavilyDuplicatedKeys) {
  // Few distinct (target, tag) keys: nearly every message ties, so any
  // instability in the sort would reorder payloads.
  ExpectGroupingMatchesStableSort(
      RandomInbox(5000, /*num_targets=*/3, /*num_tags=*/2, /*seed=*/7));
}

TEST(RadixGroupingTest, HandlesWideTargetRange) {
  // Raw targets spanning the full 32-bit range plus two tag bits make a
  // 34-bit key: the second 32-bit window must be sorted too.
  Rng rng(23);
  std::vector<Message> inbox;
  for (size_t i = 0; i < 4096; ++i) {
    inbox.push_back(Message{static_cast<VertexId>(rng.NextUint64()),
                            static_cast<uint32_t>(rng.NextBounded(3)),
                            static_cast<double>(i), 1.0});
  }
  ExpectGroupingMatchesStableSort(inbox);
}

TEST(RadixGroupingTest, SingleTargetIsIdentity) {
  // A zero-bit key: one bucket, one run, payload in arrival order.
  ExpectGroupingMatchesStableSort(
      RandomInbox(300, /*num_targets=*/1, /*num_tags=*/1, /*seed=*/9));
}

TEST(RadixGroupingTest, DenseCountingPathMatchesStableSort) {
  // A numbered machine with one tag: the key fits one digit, so the
  // single counting pass builds the runs and scatters the payload.
  Rng rng(11);
  const Numbering numbering = MakeNumbering(64, rng);
  std::vector<Message> inbox = RandomInbox(5000, 64, 1, 11);
  for (Message& message : inbox) {
    message.target = numbering.locals[message.target];
  }
  ExpectGroupingMatchesStableSort(inbox, &numbering, /*segments=*/128);
}

// --- Flat wire-key set ----------------------------------------------

TEST(CombineIndexTest, MatchesUnorderedMapOracle) {
  CombineIndex index;
  std::unordered_map<uint64_t, size_t> seen;  // Key -> occurrences.
  Rng rng(31);
  for (size_t i = 0; i < 20000; ++i) {
    // Small key space forces plenty of repeats.
    const uint64_t key = rng.NextBounded(4096);
    EXPECT_EQ(index.Insert(key), seen[key]++ == 0);
  }
  EXPECT_EQ(index.size(), seen.size());
}

TEST(CombineIndexTest, CollidingKeysStayDistinct) {
  // Keys equal modulo any power-of-two table size differ only in high
  // bits; the multiplicative hash must still separate them, and linear
  // probing must keep each key.
  CombineIndex index;
  for (uint64_t i = 0; i < 200; ++i) EXPECT_TRUE(index.Insert(i << 32));
  for (uint64_t i = 0; i < 200; ++i) EXPECT_FALSE(index.Insert(i << 32));
  EXPECT_EQ(index.size(), 200u);
}

TEST(CombineIndexTest, ClearForgetsEntriesButKeepsCapacity) {
  CombineIndex index;
  for (uint64_t key = 0; key < 1000; ++key) index.Insert(key);
  size_t capacity = index.capacity();
  EXPECT_GE(capacity, 1000u);
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.capacity(), capacity);  // Epoch clear, no deallocation.
  // Stale slots must not resurrect: the same keys re-insert fresh.
  for (uint64_t key = 0; key < 1000; ++key) EXPECT_TRUE(index.Insert(key));
}

TEST(CombineIndexTest, ManyClearCyclesBehaveLikeFreshTables) {
  CombineIndex index;
  for (int cycle = 0; cycle < 50; ++cycle) {
    for (uint64_t key = 0; key < 64; ++key) {
      EXPECT_TRUE(index.Insert(100 * cycle + key));
      EXPECT_FALSE(index.Insert(100 * cycle + key));
    }
    EXPECT_EQ(index.size(), 64u);
    index.Clear();
  }
}

// --- Buffer reuse -----------------------------------------------------

TEST(WorkerTest, ResetRetainsInboxCapacity) {
  Worker worker;
  worker.Reset();
  worker.inbox().Reserve(10000);
  size_t capacity = worker.inbox().capacity();
  EXPECT_GE(capacity, 10000u);
  worker.Reset();
  EXPECT_TRUE(worker.inbox().empty());
  EXPECT_GE(worker.inbox().capacity(), capacity);
}

// --- Engine determinism across thread counts -------------------------

/// Runs one BPPR batch on `system` with the requested thread count and
/// returns the full EngineResult. clamp_threads_to_hardware is disabled
/// so the requested shard count is exercised exactly, even on machines
/// with fewer cores.
EngineResult RunBpprBatch(SystemKind system, uint32_t threads) {
  RmatParams params;
  params.num_vertices = 4000;
  params.num_edges = 30000;
  params.seed = 41;
  static const Graph& graph = *new Graph(GenerateRmat(params));
  static const Partitioning& part =
      *new Partitioning(HashPartitioner().Partition(graph, 8));

  EngineOptions options;
  options.cluster = RelaxedCluster(8);
  options.profile = ProfileFor(system);
  options.execution_threads = threads;
  options.clamp_threads_to_hardware = false;
  SyncEngine engine(graph, part, options);

  TaskContext context{&graph, &part, 1.0,
                      options.profile.combines_messages};
  auto task = MakeTask("BPPR");
  EXPECT_TRUE(task.ok());
  // Broadcast-flavoured walks fan out to every neighbour, so the mirror
  // profile gets a much smaller workload to keep the test fast.
  const double workload = options.profile.mirroring ? 16.0 : 512.0;
  auto program = task.value()->MakeProgram(
      context,
      options.profile.mirroring ? ProgramFlavor::kBroadcast
                                : ProgramFlavor::kPointToPoint,
      workload, /*seed=*/29);
  EXPECT_TRUE(program.ok());
  auto result = engine.Run(*program.value());
  EXPECT_TRUE(result.ok());
  return result.value_or(EngineResult{});
}

void ExpectBitIdentical(const EngineResult& a, const EngineResult& b) {
  // Exact equality on every monitored statistic — not near-equality:
  // the determinism contract is that thread count changes nothing.
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.num_rounds, b.num_rounds);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes);
  EXPECT_EQ(a.peak_residual_bytes, b.peak_residual_bytes);
  EXPECT_EQ(a.peak_buffered_bytes, b.peak_buffered_bytes);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].messages, b.rounds[i].messages) << "round " << i;
    EXPECT_EQ(a.rounds[i].cross_machine_bytes,
              b.rounds[i].cross_machine_bytes)
        << "round " << i;
  }
}

class EngineDeterminismTest
    : public ::testing::TestWithParam<SystemKind> {};

TEST_P(EngineDeterminismTest, ResultsIdenticalForAnyThreadCount) {
  EngineResult serial = RunBpprBatch(GetParam(), 1);
  EXPECT_GT(serial.num_rounds, 1u);
  ExpectBitIdentical(serial, RunBpprBatch(GetParam(), 2));
  ExpectBitIdentical(serial, RunBpprBatch(GetParam(), 8));
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, EngineDeterminismTest,
    ::testing::Values(SystemKind::kPregelPlus,        // Plain.
                      SystemKind::kPregelPlusMirror,  // Broadcast+mirrors.
                      SystemKind::kGraphD,            // Out-of-core.
                      SystemKind::kGraphLab),         // Combining.
    [](const ::testing::TestParamInfo<SystemKind>& info) {
      switch (info.param) {
        case SystemKind::kPregelPlus:
          return std::string("PregelPlus");
        case SystemKind::kGraphLab:
          return std::string("GraphLab");
        case SystemKind::kPregelPlusMirror:
          return std::string("PregelPlusMirror");
        case SystemKind::kGraphD:
          return std::string("GraphD");
        default:
          return std::string("Other");
      }
    });

// --- Golden behaviours of the SoA compute path -----------------------

EngineOptions GoldenOptions(uint32_t machines, uint32_t threads) {
  EngineOptions options;
  options.cluster = RelaxedCluster(machines);
  options.profile = ProfileFor(SystemKind::kPregelPlus);
  options.execution_threads = threads;
  options.clamp_threads_to_hardware = false;
  return options;
}

TEST(EngineGoldenTest, EmptyInboxRoundTerminatesCleanly) {
  // A program that never sends: round 0 runs with empty inboxes, then the
  // engine must quiesce without touching the grouping machinery.
  class Silent : public VertexProgram {
   public:
    void Compute(VertexId, std::span<const Message>,
                 MessageSink&) override {}
  };
  Graph ring = GenerateRing(16, 1);
  Partitioning part = HashPartitioner().Partition(ring, 2);
  SyncEngine engine(ring, part, GoldenOptions(2, 2));
  Silent program;
  auto result = engine.Run(program);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().num_rounds, 1u);
  EXPECT_DOUBLE_EQ(result.value().total_messages, 0.0);
}

TEST(EngineGoldenTest, SingleMachineClusterUsesSwapDelivery) {
  // One machine means every round's inbox has exactly one sender, and
  // every message stays local. PageRank must still conserve rank mass,
  // identically for any thread count.
  Graph ring = GenerateRing(128, 2);
  Partitioning part = HashPartitioner().Partition(ring, 1);
  auto run = [&](uint32_t threads) {
    SyncEngine engine(ring, part, GoldenOptions(1, threads));
    PageRankProgram::Params params;
    params.iterations = 20;
    TaskContext context{&ring, &part, 1.0, true};
    PageRankProgram program(context, params);
    auto result = engine.Run(program);
    EXPECT_TRUE(result.ok());
    return std::make_pair(result.value_or(EngineResult{}),
                          program.TotalRank());
  };
  auto [serial, serial_rank] = run(1);
  EXPECT_NEAR(serial_rank, 1.0, 1e-9);  // Ring: no dangling mass leaks.
  EXPECT_GT(serial.num_rounds, 20u);
  auto [threaded, threaded_rank] = run(8);
  EXPECT_EQ(serial_rank, threaded_rank);
  ExpectBitIdentical(serial, threaded);
}

TEST(EngineGoldenTest, AllVerticesActiveBitIdenticalAcrossThreads) {
  // PageRank keeps every vertex active every round: the grouper sees a
  // single tag with n >= V, i.e. the dense counting-sort strategy. Final
  // per-vertex ranks must be bitwise equal for any thread count.
  auto run = [](uint32_t threads) {
    RmatParams rmat;
    rmat.num_vertices = 2000;
    rmat.num_edges = 12000;
    rmat.seed = 77;
    static const Graph& graph = *new Graph(GenerateRmat(rmat));
    static const Partitioning& part =
        *new Partitioning(HashPartitioner().Partition(graph, 4));
    SyncEngine engine(graph, part, GoldenOptions(4, threads));
    PageRankProgram::Params params;
    params.iterations = 15;
    TaskContext context{&graph, &part, 1.0, true};
    PageRankProgram program(context, params);
    auto result = engine.Run(program);
    EXPECT_TRUE(result.ok());
    std::vector<double> ranks(graph.NumVertices());
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      ranks[v] = program.Rank(v);
    }
    return std::make_pair(result.value_or(EngineResult{}),
                          std::move(ranks));
  };
  auto [serial, serial_ranks] = run(1);
  for (uint32_t threads : {2u, 8u}) {
    auto [threaded, threaded_ranks] = run(threads);
    ExpectBitIdentical(serial, threaded);
    EXPECT_EQ(serial_ranks, threaded_ranks);  // Bitwise double equality.
  }
}

TEST(EngineGoldenTest, SparseActivityBitIdenticalAcrossThreads) {
  // MSSP from two sources on a long ring: each round only the wavefront
  // (a handful of vertices) receives messages, so the grouper sees
  // n << V — the sparse pair-sort strategy. Distances must be identical
  // for any thread count.
  auto run = [](uint32_t threads) {
    static const Graph& graph = *new Graph(GenerateRing(512, 1));
    static const Partitioning& part =
        *new Partitioning(HashPartitioner().Partition(graph, 4));
    SyncEngine engine(graph, part, GoldenOptions(4, threads));
    TaskContext context{&graph, &part, 1.0, true};
    MsspProgram program(context, ProgramFlavor::kPointToPoint,
                        /*workload=*/2.0, MsspTask::Params{}, /*seed=*/5);
    auto result = engine.Run(program);
    EXPECT_TRUE(result.ok());
    std::vector<uint32_t> distances;
    for (uint32_t sample = 0; sample < program.num_samples(); ++sample) {
      for (VertexId v = 0; v < graph.NumVertices(); ++v) {
        distances.push_back(program.Distance(sample, v));
      }
    }
    return std::make_pair(result.value_or(EngineResult{}),
                          std::move(distances));
  };
  auto [serial, serial_dist] = run(1);
  EXPECT_EQ(serial_dist.size(), 2u * 512u);
  // Every ring vertex is reachable within n/2 hops.
  for (uint32_t d : serial_dist) EXPECT_LE(d, 256u);
  for (uint32_t threads : {2u, 8u}) {
    auto [threaded, threaded_dist] = run(threads);
    ExpectBitIdentical(serial, threaded);
    EXPECT_EQ(serial_dist, threaded_dist);
  }
}

/// Delegates to a wrapped program but reports UsesComputeRun() == false,
/// forcing the engine down the materialized AoS fallback path. Running
/// the same program both ways must give bitwise-identical results.
class ForceFallback : public VertexProgram {
 public:
  explicit ForceFallback(VertexProgram& inner) : inner_(inner) {}
  void Compute(VertexId v, std::span<const Message> inbox,
               MessageSink& sink) override {
    inner_.Compute(v, inbox, sink);
  }
  bool UsesComputeRun() const override { return false; }
  bool ShouldTerminate(uint64_t rounds_completed) const override {
    return inner_.ShouldTerminate(rounds_completed);
  }
  bool TerminateOnAggregate(double aggregate_sum) const override {
    return inner_.TerminateOnAggregate(aggregate_sum);
  }
  double StateBytes(uint32_t machine) const override {
    return inner_.StateBytes(machine);
  }
  double ResidualBytes(uint32_t machine) const override {
    return inner_.ResidualBytes(machine);
  }
  bool combinable() const override { return inner_.combinable(); }

 private:
  VertexProgram& inner_;
};

std::pair<EngineResult, uint64_t> RunCountingBppr(bool force_fallback,
                                                  uint32_t threads) {
  RmatParams rmat;
  rmat.num_vertices = 3000;
  rmat.num_edges = 20000;
  rmat.seed = 51;
  static const Graph& graph = *new Graph(GenerateRmat(rmat));
  static const Partitioning& part =
      *new Partitioning(HashPartitioner().Partition(graph, 4));
  SyncEngine engine(graph, part, GoldenOptions(4, threads));
  TaskContext context{&graph, &part, 1.0, true};
  BpprCountingProgram program(context, /*walks=*/64, {}, /*seed=*/3);
  Result<EngineResult> result = [&] {
    if (force_fallback) {
      ForceFallback wrapped(program);
      return engine.Run(wrapped);
    }
    return engine.Run(program);
  }();
  EXPECT_TRUE(result.ok());
  return {result.value_or(EngineResult{}), program.TotalStopped()};
}

TEST(EngineGoldenTest, FallbackPathBitIdenticalToComputeRun) {
  // The stochastic program is the hard case: any divergence in fold
  // order between ComputeRun and the materialized fallback would shift
  // RNG draws and change every later round. Both paths, at every thread
  // count, must match the serial ComputeRun run exactly.
  auto [golden, golden_stopped] = RunCountingBppr(false, 1);
  EXPECT_GT(golden.num_rounds, 1u);
  EXPECT_GT(golden_stopped, 0u);
  for (uint32_t threads : {1u, 2u, 8u}) {
    for (bool fallback : {false, true}) {
      auto [result, stopped] = RunCountingBppr(fallback, threads);
      ExpectBitIdentical(golden, result);
      EXPECT_EQ(golden_stopped, stopped)
          << "threads=" << threads << " fallback=" << fallback;
    }
  }
}

}  // namespace
}  // namespace vcmp
