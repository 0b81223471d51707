#ifndef VCMP_ENGINE_WORKER_H_
#define VCMP_ENGINE_WORKER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "engine/message_block.h"
#include "graph/partition.h"

namespace vcmp {

/// Send-side statistics a worker accumulates during one round, at
/// generated-graph scale.
struct WorkerSendStats {
  /// Logical messages sent (sum of multiplicities).
  double logical_sent = 0.0;
  /// Wire messages sent (distinct keys under combining; equals
  /// logical_sent for non-combining systems).
  double wire_sent = 0.0;
  /// Wire messages destined to other machines.
  double wire_cross = 0.0;

  void Clear() { *this = WorkerSendStats{}; }
};

/// Open-addressing set of 64-bit keys. The engine's tally pass keeps one
/// per (sender, destination) pair to count the distinct (target, tag)
/// keys a combining system puts on the wire.
///
/// Power-of-two capacity with linear probing; a per-slot epoch stamp makes
/// Clear() O(1) (bump the epoch) instead of rehashing or deallocating, so
/// the table's memory survives rounds and its hot slots stay cached.
/// Insert is inline: the tally calls it once per message.
class CombineIndex {
 public:
  /// Adds `key`; returns true when it was absent.
  bool Insert(uint64_t key) {
    if (size_ * 4 >= slots_.size() * 3) Grow();  // Load factor cap: 3/4.
    uint64_t hash = key * 0x9e3779b97f4a7c15ULL;
    size_t index = (hash ^ (hash >> 29)) & mask_;
    while (true) {
      Slot& slot = slots_[index];
      if (slot.epoch != epoch_) {  // Empty or stale from a cleared round.
        slot.key = key;
        slot.epoch = epoch_;
        ++size_;
        return true;
      }
      if (slot.key == key) return false;
      index = (index + 1) & mask_;
    }
  }

  /// Logically empties the set, keeping capacity (epoch bump).
  void Clear() {
    ++epoch_;
    size_ = 0;
  }

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    uint64_t key = 0;
    uint64_t epoch = 0;  // Slot is live iff epoch == CombineIndex::epoch_.
  };

  void Grow();

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
  uint64_t epoch_ = 1;  // Starts above the default slot epoch (0).
};

/// Per-machine receive state of a simulated worker.
///
/// A Worker receives the machine's inbox for the current round and holds
/// the round's send statistics. All buffers retain their capacity across
/// rounds and Reset calls: the steady state of a multi-round run
/// performs no per-round allocations.
///
/// FoldInbox() reads the round's inbox as an ordered list of SoA
/// MessageBlock segments (the senders' buffers, in sender-major order)
/// without concatenating it, and publishes `runs()` (one MessageRun per
/// (target, tag) key, ascending) over `grouped_values()`. Both receive
/// paths key each message on the compact machine-local key
/// `local << tag_bits | tag`: the fold accumulates every key's messages
/// into one value as they arrive; the grouper sorts the keys and
/// scatters the values so each run keeps all of its messages.
class Worker {
 public:
  /// Largest key space FoldInbox folds: 2^20 keys, an 8 MiB accumulator
  /// (plus a 128 KiB bitmap) per machine. Wider inboxes are grouped.
  static constexpr size_t kMaxFoldKeys = size_t{1} << 20;

  Worker() = default;

  /// Empties the receive state. Buffer capacity from earlier rounds/runs
  /// is retained.
  void Reset();

  /// Declares the machine's dense vertex numbering, which both receive
  /// paths key on: `local_index[v]` is v's position in `locals`, and
  /// `locals` ascends with vertex id, so ascending local keys are
  /// ascending (target, tag) keys. A key needs only
  /// bit_width(locals.size() - 1) target bits instead of a full vertex
  /// id. Every inbox message must target one of `locals`, and both
  /// arrays must outlive the receive calls (the engine re-declares them
  /// at every Run). Required before FoldInbox.
  void SetLocalNumbering(const uint32_t* local_index,
                         std::span<const VertexId> locals) {
    local_index_ = local_index;
    locals_ = locals;
  }

  WorkerSendStats& send_stats() { return send_stats_; }
  const WorkerSendStats& send_stats() const { return send_stats_; }

  /// Receives the inbox formed by concatenating `segments` in order and
  /// publishes runs() + grouped_values(). The segments are only read;
  /// the published values are a copy, so the segments may be overwritten
  /// afterwards. Every path reads the segments in arrival order, which
  /// fixes its result independently of segmentation and key widths.
  ///
  /// * `fold` is kSum or kMin and the inbox's key space (local count <<
  ///   tag bits) is at most kMaxFoldKeys: each message folds into a
  ///   per-key accumulator on arrival (a sum from +0.0; a min keeping the
  ///   first of equal values) and each key present becomes a one-value
  ///   run. The value equals the same fold over the key's messages in
  ///   arrival order, bit for bit.
  /// * Otherwise the grouper: a stable LSD radix over the compact keys,
  ///   in digits of at most 16 bits. A key that fits one digit takes a
  ///   single counting pass that emits the runs from the histogram and
  ///   scatters the values directly; wider keys sort 8-byte (key, index)
  ///   elements, 32 key bits at a time, before the same scatter. Messages
  ///   with equal (target, tag) keep their arrival order within a run.
  void FoldInbox(std::span<const MessageBlock* const> segments,
                 MessageFold fold);

  /// The (target, tag) runs of the received inbox, ascending; valid after
  /// FoldInbox() until the next receive. Runs with equal target are
  /// adjacent — this doubles as the round's sparse active-vertex
  /// frontier (one or more runs per active vertex).
  std::span<const MessageRun> runs() const { return runs_; }

  /// Value column aligned with runs(): run r covers
  /// values[r.begin, r.end), for a total of grouped_size() values.
  const double* grouped_values() const { return grouped_values_.data(); }
  size_t grouped_size() const { return grouped_values_.size(); }

  /// Sum of the last received inbox's multiplicities, added in arrival
  /// order: the machine's logical received messages.
  double received_multiplicity() const { return received_multiplicity_; }

  /// Enables receive-time collection (see group_ns). Off by default;
  /// on, each FoldInbox call reads the clock twice, never per message.
  void set_collect_timing(bool on) { collect_timing_ = on; }
  /// Nanoseconds spent in FoldInbox since the last Reset, when timing
  /// collection is enabled.
  uint64_t group_ns() const { return group_ns_; }

 private:
  /// Radix element: the key bits of the current 32-bit window and the
  /// element's arrival index.
  struct KeyIdx {
    uint32_t key = 0;
    uint32_t idx = 0;
  };

  template <MessageFold kFold>
  void FoldSegments(std::span<const MessageBlock* const> segments,
                    size_t key_space);
  void GroupSegments(std::span<const MessageBlock* const> segments,
                     size_t n);
  MessageRun RunFor(uint64_t key, uint32_t begin, uint32_t end) const;

  const uint32_t* local_index_ = nullptr;
  std::span<const VertexId> locals_;

  // Receive state, rebuilt by FoldInbox() each round (capacity kept).
  int tag_bits_ = 0;
  double received_multiplicity_ = 0.0;
  std::vector<MessageRun> runs_;
  std::vector<double> grouped_values_;
  // Fold accumulator: one slot per key, every slot at the identity of
  // `accumulator_fold_` between calls, and a bitmap of the keys present.
  std::vector<double> accumulator_;
  MessageFold accumulator_fold_ = MessageFold::kNone;
  std::vector<uint64_t> present_;
  // Grouper scratch.
  std::vector<uint32_t> counts_;       // Digit histogram / scatter cursor.
  std::vector<uint32_t> keys_;         // Single-digit keys, arrival order.
  std::vector<KeyIdx> pairs_;          // Multi-digit radix elements.
  std::vector<KeyIdx> pair_scratch_;
  std::vector<uint64_t> wide_keys_;    // Keys wider than 32 bits only.
  std::vector<uint32_t> positions_;    // Arrival index -> grouped slot.

  WorkerSendStats send_stats_;
  bool collect_timing_ = false;
  uint64_t group_ns_ = 0;
};

}  // namespace vcmp

#endif  // VCMP_ENGINE_WORKER_H_
