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
  /// Wire messages sent (post-combining physical count; equals
  /// logical_sent for non-combining systems).
  double wire_sent = 0.0;
  /// Wire messages destined to other machines.
  double wire_cross = 0.0;
  /// Logical messages destined to other machines.
  double logical_cross = 0.0;

  void Clear() { *this = WorkerSendStats{}; }
};

/// Open-addressing (target, tag) -> outbox-position index used for
/// sender-side combining.
///
/// Power-of-two capacity with linear probing; a per-slot epoch stamp makes
/// Clear() O(1) (bump the epoch) instead of rehashing or deallocating, so
/// the table's memory survives rounds and its hot slots stay cached. This
/// replaces the std::unordered_map per destination, whose node allocations
/// and pointer chasing dominated the staging path. FindOrInsert is inline:
/// it sits inside the devirtualized staging loop, one call per staged
/// message.
class CombineIndex {
 public:
  /// Looks up `key`; inserts it mapping to `fresh_value` when absent.
  /// Returns the stored value and sets *inserted accordingly.
  size_t FindOrInsert(uint64_t key, size_t fresh_value, bool* inserted) {
    if (size_ * 4 >= slots_.size() * 3) Grow();  // Load factor cap: 3/4.
    uint64_t hash = key * 0x9e3779b97f4a7c15ULL;
    size_t index = (hash ^ (hash >> 29)) & mask_;
    while (true) {
      Slot& slot = slots_[index];
      if (slot.epoch != epoch_) {  // Empty or stale from a cleared round.
        slot.key = key;
        slot.value = fresh_value;
        slot.epoch = epoch_;
        ++size_;
        *inserted = true;
        return fresh_value;
      }
      if (slot.key == key) {
        *inserted = false;
        return slot.value;
      }
      index = (index + 1) & mask_;
    }
  }

  /// Logically empties the index, keeping capacity (epoch bump).
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
    size_t value = 0;
  };

  void Grow();

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
  uint64_t epoch_ = 1;  // Starts above the default slot epoch (0).
};

/// Per-machine message buffers of a simulated worker.
///
/// A Worker owns the machine's grouped inbox for the current round and
/// the staging outboxes of the round in progress, all in SoA MessageBlock
/// layout. Combining systems merge same-(target, tag) messages in the
/// outbox before "transmission". All buffers retain their capacity across
/// rounds and Reset calls: the steady state of a multi-round run performs
/// no per-round allocations.
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

  /// Prepares outboxes for `num_machines` destinations. Buffer capacity
  /// from earlier rounds/runs is retained.
  void Reset(uint32_t num_machines);

  /// Caches the combiner (may be null = no combining) and its kind so
  /// Stage() can inline the sum/min folds without a virtual call.
  void SetCombiner(const Combiner* combiner) {
    combiner_ = combiner;
    combiner_kind_ = combiner ? combiner->kind() : CombinerKind::kCustom;
  }

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

  /// Buffers (target, tag, value, multiplicity) for the worker of
  /// `target_machine`, merging it into an existing outbox entry when a
  /// combiner is set. Returns true if a new wire message was created
  /// (false = merged into an existing one).
  bool Stage(uint32_t target_machine, VertexId target, uint32_t tag,
             double value, double multiplicity) {
    MessageBlock& outbox = outboxes_[target_machine];
    if (combiner_ != nullptr) {
      bool inserted = false;
      const uint64_t key = (static_cast<uint64_t>(target) << 32) | tag;
      const size_t position = combine_index_[target_machine].FindOrInsert(
          key, outbox.size(), &inserted);
      if (!inserted) {
        switch (combiner_kind_) {
          case CombinerKind::kSum:
            outbox.values()[position] += value;
            outbox.multiplicities()[position] += multiplicity;
            break;
          case CombinerKind::kMin:
            if (value < outbox.values()[position]) {
              outbox.values()[position] = value;
            }
            outbox.multiplicities()[position] += multiplicity;
            break;
          case CombinerKind::kCustom: {
            Message into = outbox.At(position);
            combiner_->Merge(into, Message{target, tag, value, multiplicity});
            outbox.Set(position, into);
            break;
          }
        }
        return false;  // Merged: no new wire message.
      }
    }
    outbox.PushBack(target, tag, value, multiplicity);
    return true;
  }

  /// Appends this worker's outbox for `machine` to `dest`, then clears the
  /// outbox (capacity retained).
  void Drain(uint32_t machine, MessageBlock* dest);

  /// Number of messages currently staged for `machine`.
  size_t OutboxSize(uint32_t machine) const {
    return outboxes_[machine].size();
  }

  /// O(1) delivery for the single-sender case: swaps the outbox for
  /// `machine` with `*dest` (which must be empty), so both buffers'
  /// capacities keep recycling with zero copies.
  void SwapOutbox(uint32_t machine, MessageBlock* dest);

  /// The materialized inbox: what GroupInbox() without arguments groups.
  /// The engine fills it only on the out-of-core path (whose delivery
  /// caps the resident prefix) and the unified combine fold.
  MessageBlock& inbox() { return inbox_; }
  const MessageBlock& inbox() const { return inbox_; }
  WorkerSendStats& send_stats() { return send_stats_; }
  const WorkerSendStats& send_stats() const { return send_stats_; }

  /// Direct access to the staging outbox / combining index for one
  /// destination. The engine's combining merge folds per-shard arenas
  /// into these itself (one merge task owns exactly one (sender,
  /// destination) pair, so no two tasks touch the same buffer).
  MessageBlock& outbox(uint32_t machine) { return outboxes_[machine]; }
  CombineIndex& combine_index(uint32_t machine) {
    return combine_index_[machine];
  }
  const Combiner* combiner() const { return combiner_; }
  CombinerKind combiner_kind() const { return combiner_kind_; }

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

  /// Engine fast path for the unified combine fold (DESIGN.md §16): the
  /// fold emits this worker's inbox already grouped — ascending distinct
  /// (target, tag) keys, one element each — and writes the matching
  /// singleton runs into pregrouped_runs() in the same pass.
  /// PublishPregroupedRuns() then replaces GroupInbox() for the round,
  /// publishing the inbox's payload columns in place. Only the inbox's
  /// payload columns are written on this path — the runs are the round's
  /// sole key source, so the target/tag columns hold unspecified bytes
  /// (every consumer already reads groups through runs()).
  std::vector<MessageRun>& pregrouped_runs() { return runs_; }
  void PublishPregroupedRuns();

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
  std::vector<MessageBlock> outboxes_;  // One per target machine.
  /// Per-destination combining index, used only when combining.
  std::vector<CombineIndex> combine_index_;
  const Combiner* combiner_ = nullptr;
  CombinerKind combiner_kind_ = CombinerKind::kCustom;
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
