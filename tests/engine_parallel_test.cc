// Tests of the engine's parallel-execution machinery: the thread pool,
// the inbox grouper and fold (against a stable-sort oracle), the flat
// wire-key set, the regression that engine results are bit-identical for
// every thread count (the determinism contract every perf change must
// preserve), every program's numbers pinned as recorded, and folded
// runs against grouped ones.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/sync_engine.h"
#include "engine/worker.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "tasks/bkhs.h"
#include "tasks/bppr.h"
#include "tasks/bppr_source_batch.h"
#include "tasks/connected_components.h"
#include "tasks/mssp.h"
#include "tasks/pagerank.h"
#include "tasks/task_registry.h"
#include "test_util.h"

namespace vcmp {
namespace {

using testing_util::RelaxedCluster;

TEST(ThreadPoolTest, ZeroWorkersExecutesInline) {
  // No worker or lender could pick up an offer, so each loop must run
  // every index on the calling thread before it returns.
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0u);
  std::vector<int> hits(5, 0);  // Not atomic: inline runs on the caller.
  pool.ParallelFor(5, [&hits](uint32_t i) { ++hits[i]; });
  pool.ParallelFor(5, [&hits](uint32_t i) { ++hits[i]; });
  EXPECT_EQ(hits, std::vector<int>(5, 2));
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&hits](uint32_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossManyBarriers) {
  // The engine reuses one pool for every superstep; the pool must survive
  // many ParallelFor cycles without deadlock or loss.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.ParallelFor(7, [&total](uint32_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 200 * 7);
}

// --- Receive oracles: grouping and folding ---------------------------

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

bool KeyLess(const Message& a, const Message& b) {
  if (a.target != b.target) return a.target < b.target;
  return a.tag < b.tag;
}

bool SameKey(const Message& a, const Message& b) {
  return a.target == b.target && a.tag == b.tag;
}

/// `inbox` split into `segments` consecutive blocks at random cut points,
/// every third one repeated so some blocks are empty (the shape of quiet
/// shards).
std::vector<MessageBlock> SplitInbox(const std::vector<Message>& inbox,
                                     uint32_t segments, uint64_t seed) {
  Rng rng(seed);
  std::vector<size_t> cuts = {0, inbox.size()};
  for (uint32_t s = 1; s < segments; ++s) {
    cuts.push_back(s % 3 == 0 ? cuts.back()
                              : rng.NextBounded(inbox.size() + 1));
  }
  std::sort(cuts.begin(), cuts.end());
  std::vector<MessageBlock> blocks(cuts.size() - 1);
  for (size_t b = 0; b < blocks.size(); ++b) {
    for (size_t i = cuts[b]; i < cuts[b + 1]; ++i) {
      blocks[b].PushBack(inbox[i]);
    }
  }
  return blocks;
}

std::vector<const MessageBlock*> Segments(
    const std::vector<MessageBlock>& blocks) {
  std::vector<const MessageBlock*> segments;
  for (const MessageBlock& block : blocks) segments.push_back(&block);
  return segments;
}

/// The inbox's multiplicities summed in arrival order.
double ArrivalMultiplicity(const std::vector<Message>& inbox) {
  double sum = 0.0;
  for (const Message& message : inbox) sum += message.multiplicity;
  return sum;
}

/// Groups `inbox`, split into `segments` pieces, and checks the result
/// against std::stable_sort on (target, tag). Runs must tile [0, n) with
/// strictly ascending keys. The values encode the arrival position, so
/// stability is observable.
void ExpectGroupingMatchesStableSort(const std::vector<Message>& inbox,
                                     const Numbering& numbering,
                                     uint32_t segments = 1,
                                     uint64_t seed = 1) {
  std::vector<Message> expected = inbox;
  std::stable_sort(expected.begin(), expected.end(), KeyLess);
  const std::vector<MessageBlock> blocks = SplitInbox(inbox, segments, seed);

  Worker worker;
  worker.Reset();
  worker.SetLocalNumbering(numbering.local_index.data(), numbering.locals);
  worker.FoldInbox(Segments(blocks), MessageFold::kNone);
  ASSERT_EQ(worker.grouped_size(), expected.size());
  EXPECT_EQ(worker.received_multiplicity(), ArrivalMultiplicity(inbox));
  const double* values = worker.grouped_values();
  size_t pos = 0;
  for (const MessageRun& run : worker.runs()) {
    ASSERT_EQ(static_cast<size_t>(run.begin), pos);
    ASSERT_LT(run.begin, run.end);
    if (pos > 0) {
      ASSERT_TRUE(KeyLess(expected[pos - 1], expected[run.begin]))
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
  }
}

/// `size` messages over the numbering's first `num_targets` vertices and
/// `num_tags` tags; values are arrival positions.
std::vector<Message> RandomInbox(size_t size, const Numbering& numbering,
                                 uint32_t num_targets, uint32_t num_tags,
                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<Message> inbox;
  inbox.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    inbox.push_back(
        Message{numbering.locals[rng.NextBounded(num_targets)],
                static_cast<uint32_t>(rng.NextBounded(num_tags)),
                static_cast<double>(i), 1.0 + 0.5 * static_cast<double>(i)});
  }
  return inbox;
}

/// One randomized receive shape.
struct InboxShape {
  std::vector<Message> inbox;
  const Numbering* numbering = nullptr;
  uint32_t segments = 1;
  std::string label;
};

/// Receive shapes: local spaces of 1, ~9.6K (one machine's share of the
/// benchmark graph) and 2^20 vertices; tag widths 0..32 bits, so keys run
/// from one bucket to wider than 32 bits; sizes 0 to 200K; random,
/// presorted, reversed and heavy-duplicate arrival orders; one segment or
/// 8 senders x 16 shards. Values are arrival positions.
class InboxShapes {
 public:
  static constexpr int kDraws = 64;

  InboxShapes() : rng_(2024) {
    for (uint32_t space : {1u, 9600u, 1u << 20}) {
      numberings_.push_back(MakeNumbering(space, rng_));
    }
  }

  InboxShape Draw(int draw) {
    static constexpr size_t kSizes[] = {0,  1,   2,    63,    64,
                                        65, 127, 1000, 20000, 200000};
    static constexpr int kTagWidths[] = {0, 1, 3, 8, 16, 32};
    const size_t n = kSizes[draw < 20 ? draw % 10 : rng_.NextBounded(10)];
    InboxShape shape;
    shape.numbering = &numberings_[draw % 3];
    const int tag_width = kTagWidths[rng_.NextBounded(6)];
    const int order = (draw / 4) % 4;
    shape.segments = (draw / 16) % 2 == 0 ? 1 : 8 * 16;
    // Heavy duplicates: a handful of distinct (target, tag) keys.
    const uint64_t distinct = order == 3 ? 1 + rng_.NextBounded(4) : 0;
    const std::vector<VertexId>& locals = shape.numbering->locals;
    std::vector<Message>& inbox = shape.inbox;
    inbox.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Message message;
      if (distinct > 0 && i >= distinct) {
        message = inbox[rng_.NextBounded(distinct)];
      } else {
        message.target = locals[rng_.NextBounded(locals.size())];
        message.tag = tag_width == 0
                          ? 0
                          : static_cast<uint32_t>(rng_.NextUint64() >>
                                                  (64 - tag_width));
      }
      message.multiplicity = 1.0 + 0.25 * static_cast<double>(i);
      inbox.push_back(message);
    }
    if (order == 1) std::stable_sort(inbox.begin(), inbox.end(), KeyLess);
    if (order == 2) {
      std::stable_sort(inbox.begin(), inbox.end(),
                       [](const Message& a, const Message& b) {
                         return KeyLess(b, a);
                       });
    }
    for (size_t i = 0; i < n; ++i) inbox[i].value = static_cast<double>(i);
    shape.label = (::testing::Message()
                   << "draw " << draw << ": n=" << n
                   << " space=" << locals.size() << " tag_bits=" << tag_width
                   << " order=" << order << " segments=" << shape.segments)
                      .GetString();
    return shape;
  }

  Rng& rng() { return rng_; }

 private:
  Rng rng_;
  std::vector<Numbering> numberings_;
};

TEST(GroupingOracleTest, RandomizedShapesMatchStableSort) {
  InboxShapes shapes;
  for (int draw = 0; draw < InboxShapes::kDraws; ++draw) {
    const InboxShape shape = shapes.Draw(draw);
    SCOPED_TRACE(shape.label);
    ExpectGroupingMatchesStableSort(shape.inbox, *shape.numbering,
                                    shape.segments, draw + 1);
  }
}

/// Left-to-right fold as the programs perform it: the sum from +0.0, or
/// the minimum keeping the first of equal values.
double FoldLeft(MessageFold fold, const double* values, size_t count) {
  if (fold == MessageFold::kSum) {
    double sum = 0.0;
    for (size_t i = 0; i < count; ++i) sum += values[i];
    return sum;
  }
  double min = values[0];
  for (size_t i = 1; i < count; ++i) {
    if (values[i] < min) min = values[i];
  }
  return min;
}

/// Values that expose reassociation and tie-breaking: magnitudes from
/// 2^-60 to 2^60 of either sign, and +-0.0 and +-1.0 often enough that
/// runs hold ties.
double MixedValue(Rng& rng) {
  switch (rng.NextBounded(8)) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return rng.NextBernoulli(0.5) ? 1.0 : -1.0;
    default: {
      const double magnitude = std::ldexp(
          1.0 + rng.NextDouble(), static_cast<int>(rng.NextBounded(121)) - 60);
      return rng.NextBernoulli(0.5) ? magnitude : -magnitude;
    }
  }
}

/// Whether the inbox's key space (local count << tag bits) fits
/// Worker::kMaxFoldKeys, so a declared fold folds it.
bool KeySpaceFits(const std::vector<Message>& inbox,
                  const Numbering& numbering) {
  uint32_t tag_or = 0;
  for (const Message& message : inbox) tag_or |= message.tag;
  return (uint64_t{numbering.locals.size()} << std::bit_width(tag_or)) <=
         Worker::kMaxFoldKeys;
}

/// Receives `inbox` (split into `segments` pieces) through `worker` with
/// `fold`, twice, and checks each result against std::stable_sort on
/// (target, tag) followed by FoldLeft over every run. An inbox whose key
/// space fits must come back folded, one value per run bit-equal to the
/// fold; a wider one must take the grouper and keep every message. The
/// second receive shows any accumulator slot the first one left dirty.
void ExpectFoldMatchesStableSortFold(Worker& worker,
                                     const std::vector<Message>& inbox,
                                     const Numbering& numbering,
                                     MessageFold fold, uint32_t segments,
                                     uint64_t seed) {
  std::vector<Message> sorted = inbox;
  std::stable_sort(sorted.begin(), sorted.end(), KeyLess);
  std::vector<Message> expected;  // One per run: its key and fold.
  std::vector<double> run_values;
  for (size_t i = 0; i < sorted.size();) {
    run_values.clear();
    size_t j = i;
    while (j < sorted.size() && SameKey(sorted[i], sorted[j])) {
      run_values.push_back(sorted[j++].value);
    }
    expected.push_back(
        Message{sorted[i].target, sorted[i].tag,
                FoldLeft(fold, run_values.data(), run_values.size()), 0.0});
    i = j;
  }
  const bool folds = KeySpaceFits(inbox, numbering);

  const std::vector<MessageBlock> blocks = SplitInbox(inbox, segments, seed);
  worker.SetLocalNumbering(numbering.local_index.data(), numbering.locals);
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass);
    worker.FoldInbox(Segments(blocks), fold);
    EXPECT_EQ(worker.received_multiplicity(), ArrivalMultiplicity(inbox));
    const std::span<const MessageRun> runs = worker.runs();
    ASSERT_EQ(runs.size(), expected.size());
    ASSERT_EQ(worker.grouped_size(), folds ? expected.size() : inbox.size());
    const double* values = worker.grouped_values();
    uint32_t pos = 0;
    for (size_t r = 0; r < runs.size(); ++r) {
      const MessageRun& run = runs[r];
      ASSERT_EQ(run.begin, pos) << "run " << r;
      ASSERT_EQ(run.target, expected[r].target) << "run " << r;
      ASSERT_EQ(run.tag, expected[r].tag) << "run " << r;
      if (folds) {
        ASSERT_EQ(run.size(), 1u) << "run " << r;
      }
      const double got = folds
                             ? values[run.begin]
                             : FoldLeft(fold, values + run.begin, run.size());
      ASSERT_EQ(std::bit_cast<uint64_t>(got),
                std::bit_cast<uint64_t>(expected[r].value))
          << "run " << r << ": " << got << " vs " << expected[r].value;
      pos = run.end;
    }
    ASSERT_EQ(pos, worker.grouped_size());
  }
}

TEST(FoldingOracleTest, RandomizedShapesMatchStableSortThenFold) {
  // The grouping oracle's shapes with mixed-magnitude values, received
  // by one worker that alternates sums and mins, so every receive starts
  // from the slots the last one returned to rest.
  InboxShapes shapes;
  Worker worker;
  worker.Reset();
  int folded = 0;
  int grouped = 0;
  for (int draw = 0; draw < InboxShapes::kDraws; ++draw) {
    InboxShape shape = shapes.Draw(draw);
    for (Message& message : shape.inbox) {
      message.value = MixedValue(shapes.rng());
    }
    for (MessageFold fold : {MessageFold::kSum, MessageFold::kMin}) {
      SCOPED_TRACE(::testing::Message()
                   << shape.label << " fold="
                   << (fold == MessageFold::kSum ? "sum" : "min"));
      ExpectFoldMatchesStableSortFold(worker, shape.inbox, *shape.numbering,
                                      fold, shape.segments, draw + 1);
    }
    if (shape.inbox.empty()) continue;
    if (KeySpaceFits(shape.inbox, *shape.numbering)) {
      ++folded;
    } else {
      ++grouped;
    }
  }
  // Both paths ran: the 2^20-vertex space with any tag bit, or 9.6K
  // vertices with 7 or more, is above the cap.
  EXPECT_GT(folded, 0);
  EXPECT_GT(grouped, 0);
}

TEST(RadixGroupingTest, MatchesStableSortAcrossSizes) {
  // Straddles the digit-width breakpoints (small inboxes plan 8-bit
  // digits, large ones up to 16) from both sides.
  Rng rng(3);
  const Numbering numbering = MakeNumbering(977, rng);
  for (size_t size : {0u, 1u, 2u, 63u, 64u, 65u, 127u, 1000u, 20000u}) {
    ExpectGroupingMatchesStableSort(
        RandomInbox(size, numbering, /*num_targets=*/977, /*num_tags=*/5,
                    /*seed=*/size + 1),
        numbering);
  }
}

TEST(RadixGroupingTest, StableOnHeavilyDuplicatedKeys) {
  // Few distinct (target, tag) keys: nearly every message ties, so any
  // instability in the sort would reorder payloads.
  Rng rng(5);
  const Numbering numbering = MakeNumbering(3, rng);
  ExpectGroupingMatchesStableSort(
      RandomInbox(5000, numbering, /*num_targets=*/3, /*num_tags=*/2,
                  /*seed=*/7),
      numbering);
}

TEST(RadixGroupingTest, HandlesWideTargetRange) {
  // 2^20 local vertices plus 32-bit tags make a 52-bit key: the second
  // 32-bit window must be sorted too.
  Rng rng(23);
  const Numbering numbering = MakeNumbering(1u << 20, rng);
  std::vector<Message> inbox;
  for (size_t i = 0; i < 4096; ++i) {
    inbox.push_back(
        Message{numbering.locals[rng.NextBounded(numbering.locals.size())],
                static_cast<uint32_t>(rng.NextUint64() >> 32),
                static_cast<double>(i), 1.0});
  }
  ExpectGroupingMatchesStableSort(inbox, numbering);
}

TEST(RadixGroupingTest, SingleTargetIsIdentity) {
  // A zero-bit key: one bucket, one run, payload in arrival order.
  Rng rng(9);
  const Numbering numbering = MakeNumbering(1, rng);
  ExpectGroupingMatchesStableSort(
      RandomInbox(300, numbering, /*num_targets=*/1, /*num_tags=*/1,
                  /*seed=*/9),
      numbering);
}

TEST(RadixGroupingTest, DenseCountingPathMatchesStableSort) {
  // A numbered machine with one tag: the key fits one digit, so the
  // single counting pass builds the runs and scatters the payload.
  Rng rng(11);
  const Numbering numbering = MakeNumbering(64, rng);
  ExpectGroupingMatchesStableSort(
      RandomInbox(5000, numbering, /*num_targets=*/64, /*num_tags=*/1,
                  /*seed=*/11),
      numbering, /*segments=*/128);
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

// --- Engine determinism across thread counts -------------------------

/// Runs one BPPR batch on `system` with the requested thread count and
/// returns the full EngineResult. The engine runs exactly that many
/// threads, even on machines with fewer cores.
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
  SyncEngine engine(graph, part, options);

  TaskContext context{&graph, &part, 1.0};
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

// --- Recorded numbers per (program, profile) -------------------------

enum class Program {
  kBkhs,
  kBpprSourceBatch,
  kBpprExact,
  kBpprCounting,
  kBpprPush,
  kMssp,
  kPageRank,
  kConnectedComponents,
};

/// One run's numbers, as hex floats. `answers` is an FNV-1a digest of the
/// task output; every other field is an EngineResult field.
struct RecordedRun {
  const char* name;
  Program program;
  SystemKind system;
  double seconds;
  uint64_t num_rounds;
  double total_messages;
  double peak_memory_bytes;
  std::vector<double> residual_bytes_per_machine;
  std::vector<double> cross_machine_bytes;  // Per round.
  uint64_t answers;
};

void PrintTo(const RecordedRun& run, std::ostream* os) { *os << run.name; }

const Graph& RecordedGraph() {
  static const Graph& graph = *new Graph(
      GenerateRmat({.num_vertices = 2000, .num_edges = 12000, .seed = 77}));
  return graph;
}

const Partitioning& RecordedPartition() {
  static const Partitioning& part =
      *new Partitioning(HashPartitioner().Partition(RecordedGraph(), 4));
  return part;
}

/// FNV-1a over 64-bit words.
struct AnswerDigest {
  uint64_t hash = 1469598103934665603ULL;
  void Add(uint64_t word) { hash = (hash ^ word) * 1099511628211ULL; }
  void Add(double value) { Add(std::bit_cast<uint64_t>(value)); }
};

std::unique_ptr<VertexProgram> MakeRecordedProgram(Program program,
                                                   const TaskContext& context,
                                                   ProgramFlavor flavor) {
  switch (program) {
    case Program::kBkhs:
      return std::make_unique<BkhsProgram>(context, flavor, 8.0,
                                           BkhsTask::Params{}, 5);
    case Program::kBpprSourceBatch:
      return std::make_unique<BpprSourceBatchProgram>(
          context, 8.0, BpprSourceBatchTask::Params{.walks_per_source = 500},
          5);
    case Program::kBpprExact:
      return std::make_unique<BpprExactProgram>(context, 4.0, 0.2, 3);
    case Program::kBpprCounting:
      return std::make_unique<BpprCountingProgram>(context, 16.0,
                                                   BpprTask::Params{}, 3);
    case Program::kBpprPush:
      return std::make_unique<BpprPushProgram>(context, 16.0,
                                               BpprTask::Params{});
    case Program::kMssp:
      return std::make_unique<MsspProgram>(context, flavor, 8.0,
                                           MsspTask::Params{}, 5);
    case Program::kPageRank:
      return std::make_unique<PageRankProgram>(
          context, PageRankProgram::Params{.iterations = 10});
    case Program::kConnectedComponents:
      return std::make_unique<ConnectedComponentsProgram>(context);
  }
  return nullptr;
}

/// Digest of the task output: sampled sources with their k-hop counts or
/// total stops, the PPR matrix, per-vertex stops, settled mass, ranks or
/// labels, or per-(sample, vertex) distances.
uint64_t DigestAnswers(Program program, const VertexProgram& base) {
  const VertexId n = RecordedGraph().NumVertices();
  AnswerDigest digest;
  switch (program) {
    case Program::kBkhs: {
      const auto& p = static_cast<const BkhsProgram&>(base);
      for (uint32_t s = 0; s < p.num_samples(); ++s) {
        digest.Add(uint64_t{p.SourceOf(s)});
        digest.Add(p.KHopCount(s));
      }
      break;
    }
    case Program::kBpprSourceBatch: {
      const auto& p = static_cast<const BpprSourceBatchProgram&>(base);
      for (uint32_t s = 0; s < p.num_samples(); ++s) {
        digest.Add(uint64_t{p.SourceOf(s)});
      }
      digest.Add(p.TotalStopped());
      break;
    }
    case Program::kBpprExact: {
      const auto& p = static_cast<const BpprExactProgram&>(base);
      for (VertexId s = 0; s < n; ++s) {
        for (VertexId u = 0; u < n; ++u) digest.Add(p.Ppr(s, u));
      }
      break;
    }
    case Program::kBpprCounting: {
      const auto& p = static_cast<const BpprCountingProgram&>(base);
      for (VertexId u = 0; u < n; ++u) digest.Add(p.StoppedAt(u));
      break;
    }
    case Program::kBpprPush: {
      const auto& p = static_cast<const BpprPushProgram&>(base);
      for (VertexId u = 0; u < n; ++u) digest.Add(p.StoppedMassAt(u));
      digest.Add(p.ResultPairs());
      break;
    }
    case Program::kMssp: {
      const auto& p = static_cast<const MsspProgram&>(base);
      for (uint32_t s = 0; s < p.num_samples(); ++s) {
        for (VertexId v = 0; v < n; ++v) digest.Add(uint64_t{p.Distance(s, v)});
      }
      break;
    }
    case Program::kPageRank: {
      const auto& p = static_cast<const PageRankProgram&>(base);
      for (VertexId v = 0; v < n; ++v) digest.Add(p.Rank(v));
      break;
    }
    case Program::kConnectedComponents: {
      const auto& p = static_cast<const ConnectedComponentsProgram&>(base);
      for (VertexId v = 0; v < n; ++v) digest.Add(uint64_t{p.ComponentOf(v)});
      break;
    }
  }
  return digest.hash;
}

/// Forwards every call to `inner` but declares no fold, so the engine
/// groups its inboxes and hands ComputeRun every message of every run.
class GroupedProgram : public VertexProgram {
 public:
  explicit GroupedProgram(VertexProgram& inner) : inner_(inner) {}

  void Seed(VertexId v, MessageSink& sink) override { inner_.Seed(v, sink); }
  void ComputeRun(VertexId v, const MessageRunView& run,
                  MessageSink& sink) override {
    inner_.ComputeRun(v, run, sink);
  }
  bool ShouldTerminate(uint64_t rounds_completed) const override {
    return inner_.ShouldTerminate(rounds_completed);
  }
  bool TerminateOnAggregate(double aggregate_sum) const override {
    return inner_.TerminateOnAggregate(aggregate_sum);
  }
  double StateBytes(uint32_t machine) const override {
    return inner_.StateBytes(machine);
  }

 private:
  VertexProgram& inner_;
};

/// Four relaxed machines on `system`'s profile, at exactly `threads`
/// threads.
EngineOptions RecordedOptions(SystemKind system, uint32_t threads) {
  EngineOptions options;
  options.cluster = RelaxedCluster(4);
  options.profile = ProfileFor(system);
  options.execution_threads = threads;
  return options;
}

/// Runs `program` under `options` (broadcast flavour under mirroring),
/// through GroupedProgram when `grouped`, and returns the result and
/// DigestAnswers.
std::pair<EngineResult, uint64_t> RunRecorded(Program program,
                                              const EngineOptions& options,
                                              bool grouped = false) {
  const Graph& graph = RecordedGraph();
  const Partitioning& part = RecordedPartition();
  const TaskContext context{&graph, &part, 1.0};
  std::unique_ptr<VertexProgram> vertex_program = MakeRecordedProgram(
      program, context,
      options.profile.mirroring ? ProgramFlavor::kBroadcast
                                : ProgramFlavor::kPointToPoint);
  GroupedProgram wrapper(*vertex_program);
  VertexProgram& run =
      grouped ? static_cast<VertexProgram&>(wrapper) : *vertex_program;
  auto result = SyncEngine(graph, part, options).Run(run);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return {result.value_or(EngineResult{}),
          DigestAnswers(program, *vertex_program)};
}

std::vector<double> CrossBytesPerRound(const EngineResult& result) {
  std::vector<double> cross;
  for (const RoundStats& round : result.rounds) {
    cross.push_back(round.cross_machine_bytes);
  }
  return cross;
}

/// Numbers recorded before BKHS, source-batched BPPR and exact BPPR
/// moved from a per-vertex span fold onto ComputeRun, and before every
/// program's round-0 branch became Seed. The runs reach every program
/// through the single Seed/ComputeRun path; any change in fold order or
/// RNG stream would move these.
const std::vector<RecordedRun>& RecordedRuns() {
  static const auto& runs = *new std::vector<RecordedRun>{
      {"BkhsPregelPlus", Program::kBkhs, SystemKind::kPregelPlus,
       0x1.a2d470cf52d07p-5, 3, 0x1.528p+11, 0x1.703p+15,
       {0x1.b8p+10, 0x1.13p+11, 0x1.b5p+10, 0x1.ecp+10},
       {0x1.68p+8, 0x1.3bp+15, 0x0p+0},
       0x566f66fd026088cULL},
      {"BkhsMirror", Program::kBkhs, SystemKind::kPregelPlusMirror,
       0x1.a2d5c09924443p-5, 3, 0x1.528p+11, 0x1.ae0cp+15,
       {0x1.b8p+10, 0x1.13p+11, 0x1.b5p+10, 0x1.ecp+10},
       {0x1.68p+8, 0x1.d88p+11, 0x0p+0},
       0x566f66fd026088cULL},
      {"BpprSourceBatch", Program::kBpprSourceBatch, SystemKind::kPregelPlus,
       0x1.36d842ff707e5p-1, 36, 0x1.8158p+13, 0x1.d0c8p+15,
       {0x1.7cp+12, 0x1.4fp+13, 0x1.ecp+11, 0x1.6p+13},
       {0x1.4258p+15, 0x1.d42p+14, 0x1.702p+14, 0x1.36ap+14, 0x1.d74p+13,
        0x1.806p+13, 0x1.2b6p+13, 0x1.cd4p+12, 0x1.72p+12, 0x1.2acp+12,
        0x1.d38p+11, 0x1.4ap+11, 0x1.298p+11, 0x1.eap+10, 0x1.95p+10,
        0x1.45p+10, 0x1.31p+10, 0x1.b8p+9, 0x1.68p+9, 0x1.18p+9, 0x1.a4p+8,
        0x1.68p+8, 0x1.2cp+8, 0x1.2cp+8, 0x1.ep+7, 0x1.18p+7, 0x1.b8p+7,
        0x1.68p+7, 0x1.4p+6, 0x1.ep+5, 0x1.4p+4, 0x1.4p+5, 0x1.4p+4, 0x1.4p+4,
        0x1.4p+4, 0x0p+0},
       0x3741ec85f2205563ULL},
      {"BpprExact", Program::kBpprExact, SystemKind::kPregelPlus,
       0x1.c9d8c7f12696dp-1, 53, 0x1.648cp+14, 0x1.12p+16,
       {0x1.cfcp+13, 0x1.186p+14, 0x1.c7cp+13, 0x1.03ep+14},
       {0x1.061cp+16, 0x1.a86p+15, 0x1.4c3p+15, 0x1.086p+15, 0x1.98cp+14,
        0x1.4b9p+14, 0x1.135p+14, 0x1.b4ep+13, 0x1.748p+13, 0x1.23ep+13,
        0x1.c5cp+12, 0x1.72p+12, 0x1.068p+12, 0x1.e78p+11, 0x1.9ap+11,
        0x1.428p+11, 0x1.018p+11, 0x1.a4p+10, 0x1.54p+10, 0x1.0ep+10,
        0x1.9ap+9, 0x1.5ep+9, 0x1.04p+9, 0x1.2cp+9, 0x1.a4p+8, 0x1.7cp+8,
        0x1.a4p+8, 0x1.68p+8, 0x1.68p+7, 0x1.9p+7, 0x1.4p+4, 0x1.ep+6,
        0x1.ep+6, 0x1.ep+6, 0x1.ep+6, 0x1.9p+6, 0x1.4p+6, 0x1.4p+6, 0x1.ep+5,
        0x1.ep+5, 0x1.4p+5, 0x1.4p+5, 0x1.4p+5, 0x1.4p+5, 0x1.4p+4, 0x0p+0,
        0x1.4p+4, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.4p+4, 0x1.4p+4, 0x0p+0},
       0x7389f71eb4ba6f83ULL},
      {"BpprCounting", Program::kBpprCounting, SystemKind::kPregelPlus,
       0x1.a4a2393cd2eb3p-1, 48, 0x1.6845p+16, 0x1.910cp+17,
       {0x1.d25p+15, 0x1.16d8p+16, 0x1.caep+15, 0x1.029p+16},
       {0x1.0c2ap+18, 0x1.aaccp+17, 0x1.58d8p+17, 0x1.124cp+17, 0x1.b6e8p+16,
        0x1.638cp+16, 0x1.1dp+16, 0x1.c52p+15, 0x1.6aa8p+15, 0x1.257p+15,
        0x1.d2ep+14, 0x1.748p+14, 0x1.2bbp+14, 0x1.e1ep+13, 0x1.69ep+13,
        0x1.266p+13, 0x1.ep+12, 0x1.838p+12, 0x1.3bp+12, 0x1.e78p+11,
        0x1.9ap+11, 0x1.31p+11, 0x1.09p+11, 0x1.a4p+10, 0x1.59p+10, 0x1.2cp+10,
        0x1.fep+9, 0x1.7cp+9, 0x1.22p+9, 0x1.9p+8, 0x1.18p+8, 0x1.9p+7,
        0x1.9p+7, 0x1.4p+7, 0x1.4p+6, 0x1.9p+6, 0x1.18p+7, 0x1.4p+6, 0x1.4p+6,
        0x1.ep+5, 0x1.4p+5, 0x1.ep+5, 0x1.4p+4, 0x1.4p+5, 0x1.4p+4, 0x1.4p+5,
        0x0p+0, 0x0p+0},
       0x266a6dc659bda87fULL},
      {"BpprPushMirror", Program::kBpprPush, SystemKind::kPregelPlusMirror,
       0x1.5f129aea131f3p-1, 19, 0x1.517e3p+20, 0x1.40bb86p+24,
       {0x1.36878p+20, 0x1.63b98p+20, 0x1.2a42p+20, 0x1.560cp+20},
       {0x1.595ap+17, 0x1.0abf8p+21, 0x1.40758p+19, 0x1.8cb8p+15, 0x1.4c8p+12,
        0x1.d6p+9, 0x1.18p+8, 0x1.9p+6, 0x1.4p+5, 0x1.4p+5, 0x1.4p+5, 0x1.4p+5,
        0x1.4p+5, 0x1.4p+5, 0x1.4p+5, 0x1.4p+5, 0x1.4p+5, 0x1.4p+5, 0x0p+0},
       0x9733e8c3bd0cac6aULL},
      {"Mssp", Program::kMssp, SystemKind::kPregelPlus,
       0x1.25c9c77a23a6cp-3, 7, 0x1.c848p+16, 0x1.04c18p+19,
       {0x1.08p+13, 0x1.1dep+13, 0x1.f38p+12, 0x1.0fap+13},
       {0x1.68p+8, 0x1.3bp+15, 0x1.f095p+19, 0x1.48a48p+19, 0x1.e8cp+13,
        0x1.9p+6, 0x0p+0},
       0x686a2ea5b2259b5fULL},
      {"PageRank", Program::kPageRank, SystemKind::kPregelPlus,
       0x1.b5caad726d669p-3, 11, 0x1.7c5p+17, 0x1.3d48p+17,
       {0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0},
       {0x1.1c4cp+18, 0x1.1c4cp+18, 0x1.1c4cp+18, 0x1.1c4cp+18, 0x1.1c4cp+18,
        0x1.1c4cp+18, 0x1.1c4cp+18, 0x1.1c4cp+18, 0x1.1c4cp+18, 0x1.1c4cp+18,
        0x0p+0},
       0x40a28bb726b2551bULL},
      {"ConnectedComponents", Program::kConnectedComponents,
       SystemKind::kPregelPlus,
       0x1.7abe1834cd4fcp-4, 5, 0x1.52a2p+15, 0x1.396p+17,
       {0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0},
       {0x1.1c4cp+18, 0x1.139bp+18, 0x1.20cp+16, 0x1.18p+10, 0x0p+0},
       0xb478affc44abae66ULL},
  };
  return runs;
}

class RecordedRunTest : public ::testing::TestWithParam<RecordedRun> {};

TEST_P(RecordedRunTest, ReproducesRecordedNumbersAtOneAndEightThreads) {
  const RecordedRun& want = GetParam();
  for (uint32_t threads : {1u, 8u}) {
    SCOPED_TRACE(threads);
    const auto [result, answers] =
        RunRecorded(want.program, RecordedOptions(want.system, threads));
    EXPECT_EQ(result.seconds, want.seconds);
    EXPECT_EQ(result.num_rounds, want.num_rounds);
    EXPECT_EQ(result.total_messages, want.total_messages);
    EXPECT_EQ(result.peak_memory_bytes, want.peak_memory_bytes);
    EXPECT_EQ(result.residual_bytes_per_machine,
              want.residual_bytes_per_machine);
    EXPECT_EQ(CrossBytesPerRound(result), want.cross_machine_bytes);
    EXPECT_EQ(answers, want.answers);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProgramsAndProfiles, RecordedRunTest, ::testing::ValuesIn(RecordedRuns()),
    [](const ::testing::TestParamInfo<RecordedRun>& info) {
      return std::string(info.param.name);
    });

// --- Folded runs against grouped ones --------------------------------

/// Per-machine budget under which every folding program's GraphD run on
/// the recorded graph spills messages to disk.
constexpr uint64_t kSpillingBudget = 8'000;

class FoldedRunTest
    : public ::testing::TestWithParam<std::tuple<Program, bool>> {};

std::string FoldCaseName(
    const ::testing::TestParamInfo<std::tuple<Program, bool>>& info) {
  static constexpr const char* kNames[] = {
      "Bkhs",     "BpprSourceBatch", "BpprExact", "BpprCounting",
      "BpprPush", "Mssp",            "PageRank",  "ConnectedComponents"};
  return std::string(kNames[static_cast<int>(std::get<0>(info.param))]) +
         (std::get<1>(info.param) ? "CappedGraphD" : "PregelPlus");
}

TEST_P(FoldedRunTest, MatchesTheGroupedRunAtOneAndEightThreads) {
  const auto [program, capped] = GetParam();
  for (uint32_t threads : {1u, 8u}) {
    SCOPED_TRACE(threads);
    EngineOptions options = RecordedOptions(
        capped ? SystemKind::kGraphD : SystemKind::kPregelPlus, threads);
    if (capped) {
      options.ooc.enabled = true;
      options.ooc.memory_budget_bytes = kSpillingBudget;
      options.ooc.spill_page_messages = 64;
    }
    const auto [grouped, grouped_answers] =
        RunRecorded(program, options, /*grouped=*/true);
    const auto [folded, folded_answers] =
        RunRecorded(program, options, /*grouped=*/false);
    EXPECT_GT(folded.num_rounds, 2u);
    EXPECT_EQ(folded.seconds, grouped.seconds);
    EXPECT_EQ(folded.num_rounds, grouped.num_rounds);
    EXPECT_EQ(folded.total_messages, grouped.total_messages);
    EXPECT_EQ(folded.peak_memory_bytes, grouped.peak_memory_bytes);
    EXPECT_EQ(folded.residual_bytes_per_machine,
              grouped.residual_bytes_per_machine);
    EXPECT_EQ(CrossBytesPerRound(folded), CrossBytesPerRound(grouped));
    EXPECT_EQ(folded_answers, grouped_answers);
    if (capped) {
      EXPECT_GT(folded.ooc.spill_bytes_written, 0.0);
      EXPECT_EQ(folded.ooc.spill_bytes_written,
                grouped.ooc.spill_bytes_written);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FoldingPrograms, FoldedRunTest,
    ::testing::Combine(
        ::testing::Values(Program::kBkhs, Program::kBpprSourceBatch,
                          Program::kBpprCounting, Program::kMssp,
                          Program::kPageRank,
                          Program::kConnectedComponents),
        ::testing::Bool()),
    FoldCaseName);

// --- Golden behaviours of the SoA compute path -----------------------

EngineOptions GoldenOptions(uint32_t machines, uint32_t threads) {
  EngineOptions options;
  options.cluster = RelaxedCluster(machines);
  options.profile = ProfileFor(SystemKind::kPregelPlus);
  options.execution_threads = threads;
  return options;
}

TEST(EngineGoldenTest, EmptyInboxRoundTerminatesCleanly) {
  // A program that never sends: round 0 runs with empty inboxes, then the
  // engine must quiesce without touching the grouping machinery.
  class Silent : public VertexProgram {
   public:
    void Seed(VertexId, MessageSink&) override {}
    void ComputeRun(VertexId, const MessageRunView&, MessageSink&) override {}
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
  // One machine means every round's inbox has exactly one sender (its
  // own shard arenas), and every message stays local. PageRank must still
  // conserve rank mass, identically for any thread count.
  Graph ring = GenerateRing(128, 2);
  Partitioning part = HashPartitioner().Partition(ring, 1);
  auto run = [&](uint32_t threads) {
    SyncEngine engine(ring, part, GoldenOptions(1, threads));
    PageRankProgram::Params params;
    params.iterations = 20;
    TaskContext context{&ring, &part, 1.0};
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
  // single tag with n >= V, so every local vertex has a run. Final
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
    TaskContext context{&graph, &part, 1.0};
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
  // n << V and most shards are empty. Distances must be identical for
  // any thread count.
  auto run = [](uint32_t threads) {
    static const Graph& graph = *new Graph(GenerateRing(512, 1));
    static const Partitioning& part =
        *new Partitioning(HashPartitioner().Partition(graph, 4));
    SyncEngine engine(graph, part, GoldenOptions(4, threads));
    TaskContext context{&graph, &part, 1.0};
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

std::pair<EngineResult, uint64_t> RunCountingBppr(uint32_t threads) {
  RmatParams rmat;
  rmat.num_vertices = 3000;
  rmat.num_edges = 20000;
  rmat.seed = 51;
  static const Graph& graph = *new Graph(GenerateRmat(rmat));
  static const Partitioning& part =
      *new Partitioning(HashPartitioner().Partition(graph, 4));
  SyncEngine engine(graph, part, GoldenOptions(4, threads));
  TaskContext context{&graph, &part, 1.0};
  BpprCountingProgram program(context, /*walks=*/64, {}, /*seed=*/3);
  auto result = engine.Run(program);
  EXPECT_TRUE(result.ok());
  return {result.value_or(EngineResult{}), program.TotalStopped()};
}

TEST(EngineGoldenTest, StochasticWalksBitIdenticalAcrossThreads) {
  // The stochastic program is the hard case: any divergence in fold or
  // vertex order across shards would shift RNG draws and change every
  // later round. Every thread count must match the serial run exactly.
  auto [golden, golden_stopped] = RunCountingBppr(1);
  EXPECT_GT(golden.num_rounds, 1u);
  EXPECT_GT(golden_stopped, 0u);
  for (uint32_t threads : {1u, 2u, 8u}) {
    auto [result, stopped] = RunCountingBppr(threads);
    ExpectBitIdentical(golden, result);
    EXPECT_EQ(golden_stopped, stopped) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace vcmp
