#include "engine/message_block.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace vcmp {

namespace {
/// Smallest non-empty allocation; below this the growth doublings would
/// churn tiny arrays for every first-round message.
constexpr size_t kMinCapacity = 64;
}  // namespace

void MessageBlock::Grow(size_t need) {
  size_t capacity = std::max(capacity_ * 2, kMinCapacity);
  while (capacity < need) capacity *= 2;

  auto targets = std::make_unique<VertexId[]>(capacity);
  auto tags = std::make_unique<uint32_t[]>(capacity);
  auto values = std::make_unique<double[]>(capacity);
  auto multiplicities = std::make_unique<double[]>(capacity);
  if (size_ > 0) {
    std::memcpy(targets.get(), targets_.get(), size_ * sizeof(VertexId));
    std::memcpy(tags.get(), tags_.get(), size_ * sizeof(uint32_t));
    std::memcpy(values.get(), values_.get(), size_ * sizeof(double));
    std::memcpy(multiplicities.get(), multiplicities_.get(),
                size_ * sizeof(double));
  }
  targets_ = std::move(targets);
  tags_ = std::move(tags);
  values_ = std::move(values);
  multiplicities_ = std::move(multiplicities);
  capacity_ = capacity;
}

void MessageBlock::AppendColumns(const VertexId* targets,
                                 const uint32_t* tags, const double* values,
                                 const double* multiplicities, size_t n) {
  if (n == 0) return;
  Reserve(size_ + n);
  std::memcpy(targets_.get() + size_, targets, n * sizeof(VertexId));
  std::memcpy(tags_.get() + size_, tags, n * sizeof(uint32_t));
  std::memcpy(values_.get() + size_, values, n * sizeof(double));
  std::memcpy(multiplicities_.get() + size_, multiplicities,
              n * sizeof(double));
  size_ += n;
}

void MessageBlock::EraseFront(size_t n) {
  if (n == 0) return;
  if (n >= size_) {
    size_ = 0;
    return;
  }
  const size_t remaining = size_ - n;
  std::memmove(targets_.get(), targets_.get() + n,
               remaining * sizeof(VertexId));
  std::memmove(tags_.get(), tags_.get() + n, remaining * sizeof(uint32_t));
  std::memmove(values_.get(), values_.get() + n, remaining * sizeof(double));
  std::memmove(multiplicities_.get(), multiplicities_.get() + n,
               remaining * sizeof(double));
  size_ = remaining;
}

}  // namespace vcmp
