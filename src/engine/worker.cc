#include "engine/worker.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/wall_clock.h"

namespace vcmp {
namespace {

/// Receive-time diagnostics only (group_ns, off by default); never feeds
/// reports or traces, so it reads the one sanctioned wall-clock seam
/// instead of std::chrono directly.
inline uint64_t NowNs() { return wallclock::NowNs(); }

/// Widest radix digit: 2^16 four-byte counters (256 KiB) stay
/// cache-resident, and every per-machine BPPR key here fits one digit.
constexpr int kMaxDigitBits = 16;
/// Narrowest digit the plan shrinks to for small inboxes, whose
/// histogram would otherwise cost more than the elements.
constexpr int kMinDigitBits = 8;

/// Calls sink(i, key) for every message of the segment concatenation, in
/// arrival order, with key = local(target) << tag_bits | tag.
template <typename Sink>
void ForEachKey(std::span<const MessageBlock* const> segments,
                const uint32_t* local_index, int tag_bits, Sink&& sink) {
  size_t i = 0;
  for (const MessageBlock* segment : segments) {
    const VertexId* targets = segment->targets();
    const uint32_t* tags = segment->tags();
    const size_t m = segment->size();
    for (size_t j = 0; j < m; ++j, ++i) {
      const uint64_t local = local_index[targets[j]];
      sink(i, (local << tag_bits) | tags[j]);
    }
  }
}

/// Copies the values of the segment concatenation to grouped slots:
/// arrival index i lands at position_of(i).
template <typename PositionOf>
void ScatterValues(std::span<const MessageBlock* const> segments,
                   double* out_values, PositionOf&& position_of) {
  size_t i = 0;
  for (const MessageBlock* segment : segments) {
    const double* values = segment->values();
    const size_t m = segment->size();
    for (size_t j = 0; j < m; ++j, ++i) out_values[position_of(i)] = values[j];
  }
}

/// Turns digit counts into exclusive scatter starts.
void PrefixSum(std::vector<uint32_t>& counts) {
  uint32_t offset = 0;
  for (uint32_t& count : counts) {
    const uint32_t c = count;
    count = offset;
    offset += c;
  }
}

}  // namespace

void CombineIndex::Grow() {
  std::vector<Slot> old = std::move(slots_);
  const size_t capacity = old.empty() ? 64 : old.size() * 2;
  slots_.assign(capacity, Slot{});
  mask_ = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.epoch != epoch_) continue;
    uint64_t hash = slot.key * 0x9e3779b97f4a7c15ULL;
    size_t index = (hash ^ (hash >> 29)) & mask_;
    while (slots_[index].epoch == epoch_) index = (index + 1) & mask_;
    slots_[index] = slot;
  }
}

void Worker::Reset() {
  runs_.clear();
  grouped_values_.clear();
  received_multiplicity_ = 0.0;
  send_stats_.Clear();
  group_ns_ = 0;
}

void Worker::FoldInbox(std::span<const MessageBlock* const> segments,
                       MessageFold fold) {
  const uint64_t t0 = collect_timing_ ? NowNs() : 0;
  runs_.clear();

  // Scan: inbox size, the OR of the tags (the tag width) and the
  // multiplicity sum, in arrival order.
  size_t n = 0;
  uint32_t tag_or = 0;
  double multiplicity = 0.0;
  for (const MessageBlock* segment : segments) {
    const size_t m = segment->size();
    const uint32_t* tags = segment->tags();
    const double* mults = segment->multiplicities();
    for (size_t j = 0; j < m; ++j) {
      tag_or |= tags[j];
      multiplicity += mults[j];
    }
    n += m;
  }
  received_multiplicity_ = multiplicity;

  if (n == 0) {
    grouped_values_.clear();
  } else {
    tag_bits_ = std::bit_width(tag_or);
    // At most (2^32 - 1) << 32: locals are distinct 32-bit vertex ids.
    const uint64_t key_space =
        uint64_t{std::max<size_t>(locals_.size(), 1)} << tag_bits_;
    if (fold == MessageFold::kNone || key_space > kMaxFoldKeys) {
      GroupSegments(segments, n);
    } else if (fold == MessageFold::kSum) {
      FoldSegments<MessageFold::kSum>(segments, key_space);
    } else {
      FoldSegments<MessageFold::kMin>(segments, key_space);
    }
  }
  if (collect_timing_) group_ns_ += NowNs() - t0;
}

MessageRun Worker::RunFor(uint64_t key, uint32_t begin, uint32_t end) const {
  const uint64_t tag_mask = (uint64_t{1} << tag_bits_) - 1;
  return MessageRun{locals_[key >> tag_bits_],
                    static_cast<uint32_t>(key & tag_mask), begin, end};
}

template <MessageFold kFold>
void Worker::FoldSegments(std::span<const MessageBlock* const> segments,
                          size_t key_space) {
  static_assert(kFold != MessageFold::kNone);
  constexpr double kIdentity = kFold == MessageFold::kSum
                                   ? 0.0
                                   : std::numeric_limits<double>::infinity();
  // Every slot rests at the identity between calls; a program with the
  // other fold resets the slots once.
  if (accumulator_fold_ != kFold) {
    std::fill(accumulator_.begin(), accumulator_.end(), kIdentity);
    accumulator_fold_ = kFold;
  }
  if (accumulator_.size() < key_space) accumulator_.resize(key_space, kIdentity);
  const size_t words = (key_space + 63) / 64;
  if (present_.size() < words) present_.resize(words, 0);
  grouped_values_.clear();

  // Fold in arrival order, so a key's slot ends as the left-to-right fold
  // of its messages: the sum from +0.0, or the minimum whose strict `<`
  // keeps the first of equal values (-0.0 before +0.0 stays -0.0).
  double* const acc = accumulator_.data();
  uint64_t* const present = present_.data();
  const int tag_bits = tag_bits_;
  for (const MessageBlock* segment : segments) {
    const VertexId* targets = segment->targets();
    const uint32_t* tags = segment->tags();
    const double* values = segment->values();
    const size_t m = segment->size();
    for (size_t j = 0; j < m; ++j) {
      const uint64_t key =
          (uint64_t{local_index_[targets[j]]} << tag_bits) | tags[j];
      if constexpr (kFold == MessageFold::kSum) {
        acc[key] += values[j];
      } else {
        acc[key] = values[j] < acc[key] ? values[j] : acc[key];
      }
      present[key >> 6] |= uint64_t{1} << (key & 63);
    }
  }

  // Emit one run per present key, ascending, and return its slot and
  // bit to rest.
  for (size_t w = 0; w < words; ++w) {
    uint64_t bits = present[w];
    if (bits == 0) continue;
    present[w] = 0;
    do {
      const uint64_t key = w * 64 + std::countr_zero(bits);
      const auto slot = static_cast<uint32_t>(grouped_values_.size());
      runs_.push_back(RunFor(key, slot, slot + 1));
      grouped_values_.push_back(acc[key]);
      acc[key] = kIdentity;
      bits &= bits - 1;
    } while (bits != 0);
  }
}

void Worker::GroupSegments(std::span<const MessageBlock* const> segments,
                           size_t n) {
  grouped_values_.resize(n);
  const int key_bits =
      tag_bits_ + std::bit_width(static_cast<uint32_t>(
                      std::max<size_t>(locals_.size(), 1) - 1));
  const auto compute_keys = [&](auto&& sink) {
    ForEachKey(segments, local_index_, tag_bits_, sink);
  };
  // Digits shrink with the inbox (down to kMinDigitBits) so a small
  // inbox never pays for a 2^16-entry histogram.
  const int digit_cap = std::clamp(static_cast<int>(std::bit_width(n)),
                                   kMinDigitBits, kMaxDigitBits);
  double* const out_values = grouped_values_.data();

  if (key_bits <= digit_cap) {
    // One counting pass: the histogram's nonzero buckets are the runs,
    // and its prefix sums place every value directly.
    counts_.assign(size_t{1} << key_bits, 0);
    keys_.resize(n);
    compute_keys([&](size_t i, uint64_t key) {
      keys_[i] = static_cast<uint32_t>(key);
      ++counts_[key];
    });
    uint32_t offset = 0;
    for (size_t key = 0; key < counts_.size(); ++key) {
      const uint32_t count = counts_[key];
      if (count != 0) runs_.push_back(RunFor(key, offset, offset + count));
      counts_[key] = offset;
      offset += count;
    }
    ScatterValues(segments, out_values,
                  [&](size_t i) { return counts_[keys_[i]]++; });
    return;
  }

  // LSD radix over (key, index) elements, one 32-bit key window at a
  // time (keys wider than 32 bits reload the high window from
  // wide_keys_), each window in balanced digits of at most digit_cap
  // bits. Every scatter is stable, so equal keys keep arrival order.
  const bool wide = key_bits > 32;
  pairs_.resize(n);
  pair_scratch_.resize(n);
  if (wide) wide_keys_.resize(n);
  compute_keys([&](size_t i, uint64_t key) {
    if (wide) wide_keys_[i] = key;
    pairs_[i] = KeyIdx{static_cast<uint32_t>(key), static_cast<uint32_t>(i)};
  });
  KeyIdx* src = pairs_.data();
  KeyIdx* dst = pair_scratch_.data();
  for (int window = 0; window < key_bits; window += 32) {
    if (window > 0) {
      for (size_t i = 0; i < n; ++i) {
        src[i].key = static_cast<uint32_t>(wide_keys_[src[i].idx] >> window);
      }
    }
    const int window_bits = std::min(32, key_bits - window);
    const int digits = (window_bits + digit_cap - 1) / digit_cap;
    const int digit_bits = (window_bits + digits - 1) / digits;
    for (int shift = 0; shift < window_bits; shift += digit_bits) {
      const uint32_t mask = (uint32_t{1} << digit_bits) - 1;
      counts_.assign(size_t{1} << digit_bits, 0);
      for (size_t i = 0; i < n; ++i) ++counts_[(src[i].key >> shift) & mask];
      PrefixSum(counts_);
      for (size_t i = 0; i < n; ++i) {
        dst[counts_[(src[i].key >> shift) & mask]++] = src[i];
      }
      std::swap(src, dst);
    }
  }

  // src is sorted: cut runs at key changes and record where each arrival
  // index lands, then scatter the payload in one sequential read.
  positions_.resize(n);
  const auto full_key = [&](const KeyIdx& e) -> uint64_t {
    return wide ? wide_keys_[e.idx] : e.key;
  };
  uint64_t run_key = full_key(src[0]);
  uint32_t run_begin = 0;
  for (uint32_t p = 0; p < n; ++p) {
    const uint64_t key = full_key(src[p]);
    if (key != run_key) {
      runs_.push_back(RunFor(run_key, run_begin, p));
      run_key = key;
      run_begin = p;
    }
    positions_[src[p].idx] = p;
  }
  runs_.push_back(RunFor(run_key, run_begin, static_cast<uint32_t>(n)));
  ScatterValues(segments, out_values,
                [&](size_t i) { return positions_[i]; });
}

}  // namespace vcmp
