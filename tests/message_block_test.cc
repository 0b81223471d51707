// Unit tests of the SoA data-layout primitives behind the engine's
// compute phase: the MessageBlock column buffer, the MessageRunView
// handed to task kernels, and the VertexFrontier active-set tracker.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "engine/frontier.h"
#include "engine/message_block.h"
#include "engine/vertex_program.h"

namespace vcmp {
namespace {

TEST(MessageBlockTest, StartsEmpty) {
  MessageBlock block;
  EXPECT_EQ(block.size(), 0u);
  EXPECT_EQ(block.capacity(), 0u);
  EXPECT_TRUE(block.empty());
}

TEST(MessageBlockTest, PushBackStoresColumns) {
  MessageBlock block;
  block.PushBack(7, 3, 1.5, 2.0);
  block.PushBack(Message{9, 1, 2.5, 4.0});
  ASSERT_EQ(block.size(), 2u);
  EXPECT_EQ(block.targets()[0], 7u);
  EXPECT_EQ(block.tags()[0], 3u);
  EXPECT_DOUBLE_EQ(block.values()[0], 1.5);
  EXPECT_DOUBLE_EQ(block.multiplicities()[0], 2.0);
  const Message second = block.At(1);
  EXPECT_EQ(second.target, 9u);
  EXPECT_EQ(second.tag, 1u);
  EXPECT_DOUBLE_EQ(second.value, 2.5);
  EXPECT_DOUBLE_EQ(second.multiplicity, 4.0);
}

TEST(MessageBlockTest, GrowthPreservesContents) {
  MessageBlock block;
  for (uint32_t i = 0; i < 1000; ++i) {
    block.PushBack(i, i % 5, static_cast<double>(i), 1.0);
  }
  ASSERT_EQ(block.size(), 1000u);
  for (uint32_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(block.targets()[i], i);
    EXPECT_EQ(block.tags()[i], i % 5);
    EXPECT_DOUBLE_EQ(block.values()[i], static_cast<double>(i));
  }
}

TEST(MessageBlockTest, ClearKeepsCapacity) {
  MessageBlock block;
  for (uint32_t i = 0; i < 500; ++i) block.PushBack(i, 0, 1.0, 1.0);
  const size_t capacity = block.capacity();
  EXPECT_GE(capacity, 500u);
  block.Clear();
  EXPECT_TRUE(block.empty());
  EXPECT_EQ(block.capacity(), capacity);  // Epoch arena: no deallocation.
}

TEST(MessageBlockTest, ReserveGrowsCapacityNotSize) {
  MessageBlock block;
  block.Reserve(300);
  EXPECT_GE(block.capacity(), 300u);
  EXPECT_EQ(block.size(), 0u);
  const size_t capacity = block.capacity();
  block.Reserve(10);  // Never shrinks.
  EXPECT_EQ(block.capacity(), capacity);
}

TEST(MessageBlockTest, MoveTransfersStorage) {
  MessageBlock a;
  a.PushBack(4, 2, 8.0, 1.0);
  MessageBlock b(std::move(a));
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b.At(0).target, 4u);
}

TEST(MessageRunViewTest, SumValuesFoldsLeftToRight) {
  // Floating-point addition is not associative; the determinism contract
  // pins the fold to left-to-right order: (big + tiny) + tiny.
  const double values[] = {1e16, 1.0, 1.0};
  const MessageRunView run{/*tag=*/0, values, nullptr, 3};
  EXPECT_EQ(run.SumValues(), (1e16 + 1.0) + 1.0);
}

TEST(MessageRunTest, SizeIsEndMinusBegin) {
  const MessageRun run{/*target=*/3, /*tag=*/1, /*begin=*/10, /*end=*/14};
  EXPECT_EQ(run.size(), 4u);
}

TEST(VertexFrontierTest, ActivateDeduplicatesAndTakePreservesOrder) {
  VertexFrontier frontier;
  frontier.Reset(100);
  EXPECT_TRUE(frontier.Activate(5));
  EXPECT_FALSE(frontier.Activate(5));  // Already active.
  EXPECT_TRUE(frontier.Activate(63));
  EXPECT_TRUE(frontier.Activate(64));  // Straddles the word boundary.
  EXPECT_EQ(frontier.active_count(), 3u);
  const std::vector<VertexId> pending = frontier.Take();
  EXPECT_EQ(pending, (std::vector<VertexId>{5, 63, 64}));
  // Membership bits persist after Take: signals to a taken-but-unconsumed
  // vertex must keep folding into the same pending activation.
  EXPECT_FALSE(frontier.Activate(5));
  EXPECT_TRUE(frontier.IsActive(64));
}

TEST(VertexFrontierTest, DeactivateAllowsReactivation) {
  VertexFrontier frontier;
  frontier.Reset(64);
  EXPECT_TRUE(frontier.Activate(10));
  frontier.Deactivate(10);
  EXPECT_FALSE(frontier.IsActive(10));
  EXPECT_EQ(frontier.active_count(), 0u);
  EXPECT_TRUE(frontier.Activate(10));  // Schedules again next pass.
}

TEST(VertexFrontierTest, SparseClearResetsAllBits) {
  VertexFrontier frontier;
  frontier.Reset(10000);  // 2 of 10000 active < 3%: the sparse path.
  frontier.Activate(1);
  frontier.Activate(9999);
  frontier.Clear();
  EXPECT_EQ(frontier.active_count(), 0u);
  EXPECT_FALSE(frontier.IsActive(1));
  EXPECT_FALSE(frontier.IsActive(9999));
  EXPECT_TRUE(frontier.Activate(1));  // Fully reusable.
  EXPECT_EQ(frontier.Take(), (std::vector<VertexId>{1}));
}

TEST(VertexFrontierTest, DenseClearResetsAllBits) {
  VertexFrontier frontier;
  frontier.Reset(100);  // 50 of 100 active >= 3%: the memset path.
  for (VertexId v = 0; v < 100; v += 2) frontier.Activate(v);
  EXPECT_EQ(frontier.active_count(), 50u);
  frontier.Clear();
  EXPECT_EQ(frontier.active_count(), 0u);
  for (VertexId v = 0; v < 100; ++v) EXPECT_FALSE(frontier.IsActive(v));
}

TEST(VertexFrontierTest, ClearAfterTakeFallsBackToDenseWipe) {
  // After Take() the pending list is gone but the bit remains; the
  // sparse clear detects the mismatch (cleared != active_count) and must
  // fall back to the dense wipe rather than leak a stale bit.
  VertexFrontier frontier;
  frontier.Reset(10000);
  frontier.Activate(123);
  const std::vector<VertexId> taken = frontier.Take();
  ASSERT_EQ(taken.size(), 1u);
  frontier.Clear();
  EXPECT_EQ(frontier.active_count(), 0u);
  EXPECT_FALSE(frontier.IsActive(123));
}

TEST(VertexFrontierTest, ResetResizesAndClears) {
  VertexFrontier frontier;
  frontier.Reset(64);
  frontier.Activate(63);
  frontier.Reset(256);
  EXPECT_EQ(frontier.universe(), 256u);
  EXPECT_EQ(frontier.active_count(), 0u);
  EXPECT_FALSE(frontier.IsActive(63));
  EXPECT_TRUE(frontier.Activate(255));
}

}  // namespace
}  // namespace vcmp
