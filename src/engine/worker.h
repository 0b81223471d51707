#ifndef VCMP_ENGINE_WORKER_H_
#define VCMP_ENGINE_WORKER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "engine/message.h"
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

/// Per-machine inbox of a simulated worker.
///
/// A Worker groups the machine's inbox for the current round, in SoA
/// MessageBlock layout, and holds the round's send statistics. All
/// buffers retain their capacity across rounds and Reset calls: the
/// steady state of a multi-round run performs no per-round allocations.
///
/// GroupInbox() never permutes whole messages and never concatenates its
/// input: it reads the round's inbox as an ordered list of segments (the
/// senders' buffers, in sender-major order), sorts compact machine-local
/// keys, scatters only the payload columns, and publishes the result as
/// `runs()` (one MessageRun per (target, tag) group, ascending) over
/// `grouped_values()` / `grouped_multiplicities()`.
class Worker {
 public:
  Worker() = default;

  /// Empties the inbox and the grouping state. Buffer capacity from
  /// earlier rounds/runs is retained.
  void Reset();

  /// Declares the machine's dense vertex numbering: `local_index[v]` is
  /// v's position in `locals`, and `locals` ascends with vertex id. The
  /// grouper then keys on local positions, which need only
  /// bit_width(locals.size() - 1) bits instead of a full vertex id, and
  /// keeps the global (target, tag) order because the numbering is
  /// monotone. Every inbox message must target one of `locals`, and both
  /// arrays must outlive the grouping calls (the engine re-declares them
  /// at every Run). Without a numbering the grouper keys on raw vertex
  /// ids.
  void SetLocalNumbering(const uint32_t* local_index,
                         std::span<const VertexId> locals) {
    local_index_ = local_index;
    locals_ = locals;
  }

  /// The materialized inbox: what GroupInbox() without arguments groups.
  /// The engine fills it only on the out-of-core path, whose delivery
  /// caps the resident prefix.
  MessageBlock& inbox() { return inbox_; }
  const MessageBlock& inbox() const { return inbox_; }
  WorkerSendStats& send_stats() { return send_stats_; }
  const WorkerSendStats& send_stats() const { return send_stats_; }

  /// Groups the inbox formed by concatenating `segments` in order, by
  /// (target, tag), and publishes runs() + grouped_values() /
  /// grouped_multiplicities(). The segments are only read; the grouped
  /// payload is a copy, so they may be overwritten afterwards. Messages
  /// with equal (target, tag) keep their arrival order within the run's
  /// payload (stable), which fixes the grouped order independently of
  /// inbox size, segmentation and key widths.
  ///
  /// One algorithm for every inbox: a stable LSD radix over compact keys
  /// `local << tag_bits | tag`, whose widths come from this inbox (the
  /// local vertex count and the OR of its tags), in digits of at most 16
  /// bits. A key that fits one digit takes a single counting pass that
  /// emits the runs from the histogram and scatters the payload
  /// directly; wider keys sort 8-byte (key, index) elements, 32 key bits
  /// at a time, before the same scatter.
  void GroupInbox(std::span<const MessageBlock* const> segments);
  /// Groups inbox() (a one-segment list).
  void GroupInbox();

  /// The (target, tag) runs of the grouped inbox, ascending; valid after
  /// GroupInbox() until the next grouping. Runs with equal target are
  /// adjacent — this doubles as the round's sparse active-vertex
  /// frontier (one or more runs per active vertex).
  std::span<const MessageRun> runs() const { return runs_; }

  /// Payload columns aligned with runs(): element i of the grouped inbox
  /// is (values[i], multiplicities[i]), for i < grouped_size().
  const double* grouped_values() const { return grouped_values_ptr_; }
  const double* grouped_multiplicities() const { return grouped_mults_ptr_; }
  size_t grouped_size() const { return grouped_size_; }

  /// AoS view of the grouped inbox for programs without a ComputeRun
  /// implementation (built lazily, reused within the round). Valid until
  /// the next grouping.
  std::span<const Message> MaterializedInbox();

  /// Enables grouping-time collection (see group_ns). Off by default;
  /// on, each GroupInbox call reads the clock twice, never per message.
  void set_collect_timing(bool on) { collect_timing_ = on; }
  /// Nanoseconds spent in GroupInbox since the last Reset, when timing
  /// collection is enabled.
  uint64_t group_ns() const { return group_ns_; }

 private:
  /// Radix element: the key bits of the current 32-bit window and the
  /// element's arrival index.
  struct KeyIdx {
    uint32_t key = 0;
    uint32_t idx = 0;
  };

  void GroupSegments(std::span<const MessageBlock* const> segments);
  MessageRun RunFor(uint64_t key, uint32_t begin, uint32_t end) const;

  MessageBlock inbox_;
  const uint32_t* local_index_ = nullptr;  // Null: key on raw vertex ids.
  std::span<const VertexId> locals_;

  // Grouping state, rebuilt by GroupInbox() each round (capacity kept).
  int tag_bits_ = 0;
  std::vector<uint32_t> counts_;       // Digit histogram / scatter cursor.
  std::vector<uint32_t> keys_;         // Single-digit keys, arrival order.
  std::vector<KeyIdx> pairs_;          // Multi-digit radix elements.
  std::vector<KeyIdx> pair_scratch_;
  std::vector<uint64_t> wide_keys_;    // Keys wider than 32 bits only.
  std::vector<uint32_t> positions_;    // Arrival index -> grouped slot.
  std::vector<MessageRun> runs_;
  std::vector<double> grouped_values_;
  std::vector<double> grouped_mults_;
  const double* grouped_values_ptr_ = nullptr;
  const double* grouped_mults_ptr_ = nullptr;
  size_t grouped_size_ = 0;
  // vcmp:lint-allow(P1, sanctioned AoS fallback view for programs without ComputeRun)
  std::vector<Message> aos_scratch_;
  bool aos_valid_ = false;

  WorkerSendStats send_stats_;
  bool collect_timing_ = false;
  uint64_t group_ns_ = 0;
};

}  // namespace vcmp

#endif  // VCMP_ENGINE_WORKER_H_
