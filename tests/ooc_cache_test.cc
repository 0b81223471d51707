// Tests of the bounded-memory vertex-state layer: the sectioned LRU
// VertexCache (way-local eviction, byte accounting),
// the MemoryGovernor budget split and infeasible floor, and OocRuntime
// creation (directory lifecycle, floor validation).

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "ooc/memory_governor.h"
#include "ooc/ooc_runtime.h"
#include "ooc/state_file.h"
#include "ooc/vertex_cache.h"

namespace vcmp {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Writes a state file of `num_sections` sections with `per_section`
/// records each and opens a reader over it.
void MakeStateFile(const std::string& path, uint32_t num_sections,
                   uint32_t per_section, StateFileReader* reader) {
  std::vector<std::vector<VertexRecord>> sections(num_sections);
  for (uint32_t s = 0; s < num_sections; ++s) {
    for (uint32_t i = 0; i < per_section; ++i) {
      sections[s].push_back(VertexRecord{s * 1000 + i, s + i});
    }
  }
  ASSERT_TRUE(WriteStateFile(path, sections).ok());
  ASSERT_TRUE(reader->Open(path).ok());
}

TEST(VertexCacheTest, HitsMissesAndBytes) {
  StateFileReader reader;
  MakeStateFile(TempPath("cache_basic.vvst"), 4, 10, &reader);
  VertexCache cache;
  // Capacity holds everything: no evictions.
  cache.Configure(&reader, /*ways=*/2, /*capacity_bytes=*/4096);

  bool loaded = false;
  ASSERT_TRUE(cache.EnsureResident(2, &loaded).ok());
  EXPECT_TRUE(loaded);
  EXPECT_TRUE(cache.IsResident(2));
  EXPECT_EQ(cache.Records(2)[0].id, 2000u);
  ASSERT_TRUE(cache.EnsureResident(2, &loaded).ok());
  EXPECT_FALSE(loaded);  // Hit.
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.resident_bytes(), 10u * sizeof(VertexRecord));
  EXPECT_EQ(cache.stats().bytes_loaded, 10.0 * sizeof(VertexRecord));
}

TEST(VertexCacheTest, EvictionIsLruWithinAWay) {
  StateFileReader reader;
  // 4 sections of 10 records (80 bytes each); 2 ways. Way 0 holds
  // sections {0, 2}, way 1 holds {1, 3}. Way capacity of 80 bytes fits
  // exactly one section per way.
  MakeStateFile(TempPath("cache_lru.vvst"), 4, 10, &reader);
  VertexCache cache;
  cache.Configure(&reader, /*ways=*/2, /*capacity_bytes=*/160);

  bool loaded = false;
  ASSERT_TRUE(cache.EnsureResident(0, &loaded).ok());
  ASSERT_TRUE(cache.EnsureResident(1, &loaded).ok());
  // Section 2 maps to way 0 and must evict section 0 — not section 1,
  // which lives in the other way even though it is older by LRU tick.
  ASSERT_TRUE(cache.EnsureResident(2, &loaded).ok());
  EXPECT_TRUE(loaded);
  EXPECT_FALSE(cache.IsResident(0));
  EXPECT_TRUE(cache.IsResident(1));
  EXPECT_TRUE(cache.IsResident(2));
  EXPECT_EQ(cache.stats().evictions, 1u);
  // Touch 2 again, then load 0: 2 was just used, but way 0 only fits
  // one section, so 2 is evicted regardless (it is the only occupant).
  ASSERT_TRUE(cache.EnsureResident(0, &loaded).ok());
  EXPECT_FALSE(cache.IsResident(2));
  EXPECT_EQ(cache.resident_bytes(), 160u);
}

TEST(MemoryGovernorTest, SharesAndResidentCap) {
  MemoryGovernor::Config config;
  config.budget_bytes = 1'000'000;
  config.stat_scale = 1.0;
  config.bytes_per_message = 20.0;
  config.message_memory_overhead = 1.2;
  config.max_section_real_bytes = 800;
  config.cache_ways = 4;
  config.spill_page_messages = 256;
  ASSERT_TRUE(MemoryGovernor::Validate(config).ok());
  MemoryGovernor governor(config);
  // 60% of the budget at 24 paper bytes per resident message.
  EXPECT_EQ(governor.resident_message_cap(),
            static_cast<uint64_t>(0.60 * 1'000'000 / 24.0));
  EXPECT_EQ(governor.cache_capacity_bytes(),
            static_cast<uint64_t>(0.35 * 1'000'000));
  EXPECT_DOUBLE_EQ(governor.paper_bytes_per_message(), 24.0);
  EXPECT_DOUBLE_EQ(MemoryGovernor::MessageShareBytes(1'000'000), 600'000.0);
}

TEST(MemoryGovernorTest, StatScaleShrinksRealAllowances) {
  // At scale 64, each real message bills 64x: the same paper budget
  // holds 64x fewer real messages, and the cache's real capacity is
  // 64x smaller.
  MemoryGovernor::Config config;
  config.budget_bytes = 1'000'000;
  config.max_section_real_bytes = 80;
  config.spill_page_messages = 16;
  config.stat_scale = 1.0;
  MemoryGovernor at1(config);
  config.stat_scale = 64.0;
  MemoryGovernor at64(config);
  EXPECT_EQ(at64.resident_message_cap(), at1.resident_message_cap() / 64);
  EXPECT_EQ(at64.cache_capacity_bytes(), at1.cache_capacity_bytes() / 64);
}

TEST(MemoryGovernorTest, InfeasibleFloorIsExact) {
  MemoryGovernor::Config config;
  config.stat_scale = 1.0;
  config.bytes_per_message = 20.0;
  config.message_memory_overhead = 1.2;
  config.max_section_real_bytes = 800;
  config.cache_ways = 4;
  config.spill_page_messages = 256;
  const uint64_t floor = MemoryGovernor::MinFeasibleBytes(config);
  EXPECT_GT(floor, 0u);
  // One spill page must fit the message share: 256 * 24 / 0.6 = 10240.
  // The cache floor 800 * 4 / 0.35 ~ 9143 is smaller, so the page rules.
  EXPECT_EQ(floor, 10240u);
  config.budget_bytes = floor;
  EXPECT_TRUE(MemoryGovernor::Validate(config).ok());
  config.budget_bytes = floor - 1;
  Status below = MemoryGovernor::Validate(config);
  ASSERT_FALSE(below.ok());
  EXPECT_EQ(below.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(below.message().find("below the minimum feasible budget"),
            std::string::npos);
}

OocRuntime::Setup RingSetup(uint32_t machines) {
  OocRuntime::Setup setup;
  setup.machines = machines;
  setup.options.enabled = true;
  setup.options.cache_sections = 8;
  setup.options.cache_ways = 2;
  setup.options.spill_page_messages = 64;
  return setup;
}

TEST(OocRuntimeTest, CreateWritesStateFilesAndCleansUp) {
  Graph graph = GenerateRing(256, 2);
  std::vector<std::vector<VertexId>> by_machine(2);
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    by_machine[v % 2].push_back(v);
  }
  OocRuntime::Setup setup = RingSetup(2);
  setup.options.memory_budget_bytes =
      OocRuntime::MinFeasibleBudgetBytes(setup, by_machine);
  const std::string dir = TempPath("ooc_runtime_dir");
  setup.options.directory = dir;

  std::string state_path;
  {
    auto runtime = OocRuntime::Create(setup, graph, by_machine);
    ASSERT_TRUE(runtime.ok());
    EXPECT_EQ(runtime.value()->directory(), dir);
    state_path = dir + "/state_m0.vvst";
    EXPECT_TRUE(std::filesystem::exists(state_path));
    EXPECT_TRUE(std::filesystem::exists(dir + "/state_m1.vvst"));
    EXPECT_GT(runtime.value()->resident_message_cap(), 0u);
  }
  // The runtime removes its files on destruction; a caller-provided
  // directory itself is left in place.
  EXPECT_FALSE(std::filesystem::exists(state_path));
  EXPECT_TRUE(std::filesystem::exists(dir));
  std::filesystem::remove_all(dir);
}

TEST(OocRuntimeTest, CreateRejectsBudgetBelowFloor) {
  Graph graph = GenerateRing(128, 2);
  std::vector<std::vector<VertexId>> by_machine(1);
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    by_machine[0].push_back(v);
  }
  OocRuntime::Setup setup = RingSetup(1);
  const uint64_t floor =
      OocRuntime::MinFeasibleBudgetBytes(setup, by_machine);
  setup.options.memory_budget_bytes = floor - 1;  // Infeasible by one.
  auto runtime = OocRuntime::Create(setup, graph, by_machine);
  ASSERT_FALSE(runtime.ok());
  EXPECT_EQ(runtime.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(
      runtime.status().message().find("below the minimum feasible budget"),
      std::string::npos);
}

}  // namespace
}  // namespace vcmp
