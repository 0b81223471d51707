#ifndef VCMP_ENGINE_MESSAGE_BLOCK_H_
#define VCMP_ENGINE_MESSAGE_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "engine/message.h"
#include "graph/graph.h"

namespace vcmp {

/// One contiguous (target, tag) group produced by receiving an inbox:
/// elements [begin, end) of the worker's received value column (one
/// element when the inbox was folded). Runs tile the column in ascending
/// (target, tag) order, so consecutive runs with equal `target` are the
/// per-tag groups of one vertex.
struct MessageRun {
  VertexId target = 0;
  uint32_t tag = 0;
  uint32_t begin = 0;
  uint32_t end = 0;

  uint32_t size() const { return end - begin; }
};

/// Struct-of-arrays message buffer: flat target/tag/value/multiplicity
/// columns sharing one size/capacity.
///
/// This is the engine's replacement for `std::vector<Message>` staging
/// arenas and inboxes. The column layout means receiving and delivery
/// move 4- and 8-byte lanes instead of 24-byte structs, and each pass
/// reads only the columns it needs. Capacity only grows (geometric, epoch-arena
/// style): Clear() keeps the allocation, so steady-state rounds perform
/// no per-round reallocation.
class MessageBlock {
 public:
  /// Real bytes one element occupies across the four columns — the
  /// figure spill files and the out-of-core governor account with.
  static constexpr size_t kBytesPerMessage =
      sizeof(VertexId) + sizeof(uint32_t) + 2 * sizeof(double);

  MessageBlock() = default;
  MessageBlock(MessageBlock&&) noexcept = default;
  MessageBlock& operator=(MessageBlock&&) noexcept = default;
  MessageBlock(const MessageBlock&) = delete;
  MessageBlock& operator=(const MessageBlock&) = delete;

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }

  /// Logically empties the block; capacity is retained.
  void Clear() { size_ = 0; }

  /// Ensures capacity for at least `n` elements (geometric growth).
  void Reserve(size_t n) {
    if (n > capacity_) Grow(n);
  }

  void PushBack(VertexId target, uint32_t tag, double value,
                double multiplicity) {
    if (size_ == capacity_) Grow(size_ + 1);
    targets_[size_] = target;
    tags_[size_] = tag;
    values_[size_] = value;
    multiplicities_[size_] = multiplicity;
    ++size_;
  }

  void PushBack(const Message& message) {
    PushBack(message.target, message.tag, message.value,
             message.multiplicity);
  }

  /// Appends `n` elements given as raw column pointers — the spill
  /// restore and capped-delivery paths move column slices directly.
  void AppendColumns(const VertexId* targets, const uint32_t* tags,
                     const double* values, const double* multiplicities,
                     size_t n);

  /// Removes the first `n` elements (column-wise memmove); capacity is
  /// retained. Used by the spill staging page after flushing.
  void EraseFront(size_t n);

  /// Shrinks to the first `n` elements; no-op when already smaller.
  void Truncate(size_t n) {
    if (n < size_) size_ = n;
  }

  Message At(size_t i) const {
    return Message{targets_[i], tags_[i], values_[i], multiplicities_[i]};
  }

  VertexId* targets() { return targets_.get(); }
  const VertexId* targets() const { return targets_.get(); }
  uint32_t* tags() { return tags_.get(); }
  const uint32_t* tags() const { return tags_.get(); }
  double* values() { return values_.get(); }
  const double* values() const { return values_.get(); }
  double* multiplicities() { return multiplicities_.get(); }
  const double* multiplicities() const { return multiplicities_.get(); }

 private:
  void Grow(size_t need);

  std::unique_ptr<VertexId[]> targets_;
  std::unique_ptr<uint32_t[]> tags_;
  std::unique_ptr<double[]> values_;
  std::unique_ptr<double[]> multiplicities_;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace vcmp

#endif  // VCMP_ENGINE_MESSAGE_BLOCK_H_
