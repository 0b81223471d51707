// Engine-level tests of real out-of-core execution: a run under a hard
// memory budget, from the feasibility floor up to one that spills
// nothing, must produce bit-identical task results to the uncapped run
// at every thread count, with RoundStats carrying measured (not modeled)
// spilled bytes, and the thread count must change nothing at all — not
// even the simulated seconds or the cache counters.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "engine/sync_engine.h"
#include "engine/system_profile.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "ooc/memory_governor.h"
#include "ooc/ooc_runtime.h"
#include "tasks/pagerank.h"
#include "test_util.h"

namespace vcmp {
namespace {

using testing_util::RelaxedCluster;

const Graph& TestGraph() {
  static const Graph& graph = *new Graph([] {
    RmatParams params;
    params.num_vertices = 4000;
    params.num_edges = 30000;
    params.seed = 41;
    return GenerateRmat(params);
  }());
  return graph;
}

const Partitioning& TestPartition() {
  static const Partitioning& part =
      *new Partitioning(HashPartitioner().Partition(TestGraph(), 4));
  return part;
}

struct OocRunConfig {
  uint32_t threads = 1;
  uint64_t budget_bytes = 0;  // 0 = real OOC off (uncapped).
  uint32_t sections = 8;
};

struct OocRunOutcome {
  EngineResult result;
  double total_rank = 0.0;
  std::vector<double> ranks;
};

EngineOptions GraphDOptions(const OocRunConfig& config) {
  EngineOptions options;
  options.cluster = RelaxedCluster(4);
  options.profile = ProfileFor(SystemKind::kGraphD);
  options.execution_threads = config.threads;
  if (config.budget_bytes > 0) {
    options.ooc.enabled = true;
    options.ooc.memory_budget_bytes = config.budget_bytes;
    options.ooc.cache_sections = config.sections;
    options.ooc.cache_ways = 2;
    options.ooc.spill_page_messages = 64;
  }
  return options;
}

OocRunOutcome RunPageRank(const OocRunConfig& config) {
  EngineOptions options = GraphDOptions(config);
  SyncEngine engine(TestGraph(), TestPartition(), options);
  TaskContext context{&TestGraph(), &TestPartition(), 1.0};
  PageRankProgram::Params params;
  params.iterations = 8;
  PageRankProgram program(context, params);
  auto result = engine.Run(program);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  OocRunOutcome outcome;
  outcome.result = result.value_or(EngineResult{});
  outcome.total_rank = program.TotalRank();
  outcome.ranks.reserve(TestGraph().NumVertices());
  for (VertexId v = 0; v < TestGraph().NumVertices(); ++v) {
    outcome.ranks.push_back(program.Rank(v));
  }
  return outcome;
}

/// A budget tight enough that every PageRank round's inter-round inbox
/// overflows the resident message cap, forcing real spill I/O, yet above
/// the infeasible floor for the 4-machine test layout.
constexpr uint64_t kTightBudget = 12'000;

/// A budget whose resident cap (0.6 B / 33.6 bytes, about 71k messages)
/// exceeds a whole PageRank round's traffic (one message per edge), so
/// nothing spills although the real OOC runtime is on.
constexpr uint64_t kRoomyBudget = 4'000'000;

/// The exact infeasible floor for the test layout: the smallest budget
/// the runtime accepts.
uint64_t FloorBudget(const EngineOptions& options) {
  std::vector<std::vector<VertexId>> by_machine(4);
  for (VertexId v = 0; v < TestGraph().NumVertices(); ++v) {
    by_machine[TestPartition().MachineOf(v)].push_back(v);
  }
  OocRuntime::Setup setup;
  setup.options = options.ooc;
  setup.machines = 4;
  setup.bytes_per_message = options.profile.bytes_per_message;
  setup.message_memory_overhead = options.profile.message_memory_overhead;
  return OocRuntime::MinFeasibleBudgetBytes(setup, by_machine);
}

/// Task results (not costs: a capped run legitimately bills extra disk
/// time) must be bit-identical between two runs.
void ExpectSameTaskResults(const OocRunOutcome& a, const OocRunOutcome& b) {
  EXPECT_EQ(a.result.num_rounds, b.result.num_rounds);
  EXPECT_EQ(a.result.total_messages, b.result.total_messages);
  EXPECT_EQ(a.total_rank, b.total_rank);
  EXPECT_EQ(a.ranks, b.ranks);
  ASSERT_EQ(a.result.rounds.size(), b.result.rounds.size());
  for (size_t i = 0; i < a.result.rounds.size(); ++i) {
    EXPECT_EQ(a.result.rounds[i].messages, b.result.rounds[i].messages);
    EXPECT_EQ(a.result.rounds[i].active_vertices,
              b.result.rounds[i].active_vertices);
  }
}

/// Full bit-identity: every statistic, including simulated seconds and
/// the measured OOC counters.
void ExpectFullyIdentical(const OocRunOutcome& a, const OocRunOutcome& b) {
  ExpectSameTaskResults(a, b);
  EXPECT_EQ(a.result.seconds, b.result.seconds);
  EXPECT_EQ(a.result.peak_memory_bytes, b.result.peak_memory_bytes);
  EXPECT_EQ(a.result.spilled_bytes, b.result.spilled_bytes);
  EXPECT_EQ(a.result.ooc.spill_bytes_written, b.result.ooc.spill_bytes_written);
  EXPECT_EQ(a.result.ooc.spill_bytes_read, b.result.ooc.spill_bytes_read);
  EXPECT_EQ(a.result.ooc.spilled_messages, b.result.ooc.spilled_messages);
  EXPECT_EQ(a.result.ooc.restored_messages, b.result.ooc.restored_messages);
  EXPECT_EQ(a.result.ooc.state_bytes_read, b.result.ooc.state_bytes_read);
  EXPECT_EQ(a.result.ooc.cache_hits, b.result.ooc.cache_hits);
  EXPECT_EQ(a.result.ooc.cache_misses, b.result.ooc.cache_misses);
  EXPECT_EQ(a.result.ooc.cache_evictions, b.result.ooc.cache_evictions);
  EXPECT_EQ(a.result.ooc.peak_live_bytes, b.result.ooc.peak_live_bytes);
  for (size_t i = 0; i < a.result.rounds.size(); ++i) {
    EXPECT_EQ(a.result.rounds[i].total_seconds,
              b.result.rounds[i].total_seconds);
    EXPECT_EQ(a.result.rounds[i].spilled_bytes,
              b.result.rounds[i].spilled_bytes);
  }
}

TEST(OocEngineTest, TightBudgetSpillsForRealAndMatchesUncapped) {
  OocRunOutcome uncapped = RunPageRank({.threads = 1});
  EXPECT_FALSE(uncapped.result.ooc_active);
  EXPECT_GT(uncapped.result.num_rounds, 2u);

  OocRunOutcome capped =
      RunPageRank({.threads = 1, .budget_bytes = kTightBudget});
  EXPECT_TRUE(capped.result.ooc_active);
  // Real I/O happened: messages were paged out to spill files and back,
  // and the round stats carry the measured (positive) spill bytes.
  EXPECT_GT(capped.result.spilled_bytes, 0.0);
  EXPECT_GT(capped.result.ooc.spill_bytes_written, 0.0);
  EXPECT_GT(capped.result.ooc.spill_bytes_read, 0.0);
  EXPECT_GT(capped.result.ooc.spilled_messages, 0u);
  EXPECT_EQ(capped.result.ooc.spilled_messages,
            capped.result.ooc.restored_messages);
  EXPECT_GT(capped.result.ooc.state_bytes_read, 0.0);
  EXPECT_GT(capped.result.ooc.peak_live_bytes, 0.0);

  // The hard budget changes costs, never answers.
  ExpectSameTaskResults(uncapped, capped);
  // Billing real spill I/O makes the capped run slower, not faster.
  EXPECT_GT(capped.result.seconds, uncapped.result.seconds);
}

TEST(OocEngineTest, BitIdenticalAcrossThreadCounts) {
  for (uint64_t budget : {uint64_t{0}, kTightBudget}) {
    OocRunOutcome serial = RunPageRank({.threads = 1, .budget_bytes = budget});
    ExpectFullyIdentical(
        serial, RunPageRank({.threads = 2, .budget_bytes = budget}));
    ExpectFullyIdentical(
        serial, RunPageRank({.threads = 8, .budget_bytes = budget}));
  }
}

TEST(OocEngineTest, EvictingCacheIsIdenticalAcrossThreadCounts) {
  OocRunOutcome serial =
      RunPageRank({.threads = 1, .budget_bytes = kTightBudget});
  OocRunOutcome parallel =
      RunPageRank({.threads = 4, .budget_bytes = kTightBudget});
  // Every measured byte, simulated second and cache hit, miss and
  // eviction, while the vertex cache evicts: sections load only on the
  // per-machine prep tasks, in ascending order, whatever the threads.
  ExpectFullyIdentical(serial, parallel);
  EXPECT_GT(serial.result.ooc.cache_evictions, 0u);
  EXPECT_EQ(serial.result.ooc.prefetch_loads, 0u);
}

TEST(OocEngineTest, CutAtEveryBudgetEdgeMatchesUncapped) {
  // Delivery cuts each inbox into the senders' truncated arenas and the
  // spilled tail that comes back behind them. At the floor almost every
  // message spills, at the tight budget too but under a larger cap, and
  // at the roomy budget the cut never falls.
  const OocRunOutcome uncapped = RunPageRank({.threads = 1});
  const uint64_t floor =
      FloorBudget(GraphDOptions({.budget_bytes = kTightBudget}));
  ASSERT_LT(floor, kTightBudget);
  for (uint64_t budget : {floor, kTightBudget, kRoomyBudget}) {
    for (uint32_t threads : {1u, 8u}) {
      SCOPED_TRACE(testing::Message()
                   << "budget " << budget << ", threads " << threads);
      const OocRunOutcome capped =
          RunPageRank({.threads = threads, .budget_bytes = budget});
      ASSERT_TRUE(capped.result.ooc_active);
      ExpectSameTaskResults(uncapped, capped);
      EXPECT_EQ(capped.result.ooc.spilled_messages,
                capped.result.ooc.restored_messages);
      if (budget == kRoomyBudget) {
        EXPECT_EQ(capped.result.ooc.spilled_messages, 0u);
      } else {
        EXPECT_GT(capped.result.ooc.spilled_messages, 0u);
      }
    }
  }
}

TEST(OocEngineTest, SectionCountChangesCostsNotResults) {
  OocRunOutcome coarse = RunPageRank(
      {.threads = 2, .budget_bytes = kTightBudget, .sections = 4});
  OocRunOutcome fine = RunPageRank(
      {.threads = 2, .budget_bytes = kTightBudget, .sections = 16});
  ExpectSameTaskResults(coarse, fine);
}

TEST(OocEngineTest, ModeledSpillAgreesWithMeasured) {
  // Same profile, same budget: once through the real OOC path (measured
  // spill) and once through the cost model alone, its resident allowance
  // pinned to the governor's message share. The modeled estimate prices
  // recv-side overflow from buffered bytes; the measured number counts
  // the messages that actually streamed through the spill files. They
  // must agree to well within 30% — the point of measuring is refining,
  // not contradicting, the model.
  OocRunOutcome measured =
      RunPageRank({.threads = 1, .budget_bytes = kTightBudget});
  ASSERT_GT(measured.result.spilled_bytes, 0.0);

  EngineOptions modeled_options = GraphDOptions({.threads = 1});
  modeled_options.profile.ooc_budget_bytes =
      MemoryGovernor::MessageShareBytes(kTightBudget);
  SyncEngine engine(TestGraph(), TestPartition(), modeled_options);
  TaskContext context{&TestGraph(), &TestPartition(), 1.0};
  PageRankProgram::Params params;
  params.iterations = 8;
  PageRankProgram program(context, params);
  auto modeled = engine.Run(program);
  ASSERT_TRUE(modeled.ok());
  ASSERT_GT(modeled.value().spilled_bytes, 0.0);

  const double ratio =
      measured.result.spilled_bytes / modeled.value().spilled_bytes;
  EXPECT_GT(ratio, 0.7);
  EXPECT_LT(ratio, 1.3);
}

TEST(OocEngineTest, InfeasibleByOneBudgetIsRejected) {
  OocRunConfig config{.threads = 1, .budget_bytes = kTightBudget};
  EngineOptions options = GraphDOptions(config);

  // Recompute the exact floor for this layout, then undershoot by one.
  const uint64_t floor = FloorBudget(options);
  ASSERT_GT(floor, 1u);
  ASSERT_LE(floor, kTightBudget);  // The tight budget really is feasible.

  options.ooc.memory_budget_bytes = floor - 1;
  SyncEngine engine(TestGraph(), TestPartition(), options);
  TaskContext context{&TestGraph(), &TestPartition(), 1.0};
  PageRankProgram program(context, PageRankProgram::Params{});
  auto result = engine.Run(program);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(
      result.status().message().find("below the minimum feasible budget"),
      std::string::npos);

  // At exactly the floor the run is accepted.
  options.ooc.memory_budget_bytes = floor;
  SyncEngine at_floor(TestGraph(), TestPartition(), options);
  PageRankProgram program2(context, PageRankProgram::Params{});
  EXPECT_TRUE(at_floor.Run(program2).ok());
}

TEST(OocEngineTest, RequiresAnOutOfCoreProfile) {
  OocRunConfig config{.threads = 1, .budget_bytes = kTightBudget};
  EngineOptions options = GraphDOptions(config);
  options.profile = ProfileFor(SystemKind::kPregelPlus);  // Not OOC.
  options.ooc.enabled = true;
  options.ooc.memory_budget_bytes = kTightBudget;
  SyncEngine engine(TestGraph(), TestPartition(), options);
  TaskContext context{&TestGraph(), &TestPartition(), 1.0};
  PageRankProgram program(context, PageRankProgram::Params{});
  auto result = engine.Run(program);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("out-of-core system profile"),
            std::string::npos);
}

}  // namespace
}  // namespace vcmp
