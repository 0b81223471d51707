// Orchestrator for real bounded-memory execution (DESIGN.md section
// 13). One runtime per engine run owns, per machine: a MessageStream
// for inter-round message overflow and the block it restores into, a
// sectioned vertex-state file with its StateFileReader, and a
// VertexCache governed by the shared MemoryGovernor split of the hard
// budget. All round-lifecycle calls are either machine-local (safe from
// the engine's per-machine prep and delivery tasks) or main-thread
// barrier steps. The runtime runs no background work: sections load only
// when a round touches them, so results stay bit-identical at every
// thread count and budget.
#ifndef VCMP_OOC_OOC_RUNTIME_H_
#define VCMP_OOC_OOC_RUNTIME_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "engine/message_block.h"
#include "graph/graph.h"
#include "ooc/memory_governor.h"
#include "ooc/message_stream.h"
#include "ooc/ooc_options.h"
#include "ooc/state_file.h"
#include "ooc/vertex_cache.h"

namespace vcmp {

class OocRuntime {
 public:
  struct Setup {
    OocOptions options;
    uint32_t machines = 0;
    double stat_scale = 1.0;
    double bytes_per_message = 20.0;
    double message_memory_overhead = 1.2;
  };

  /// The smallest budget (paper-scale bytes) Create would accept for
  /// this setup and vertex placement.
  static uint64_t MinFeasibleBudgetBytes(
      const Setup& setup,
      const std::vector<std::vector<VertexId>>& vertices_by_machine);

  /// Validates the budget against the infeasible floor, creates the
  /// spill directory, writes one sectioned vertex-state file per
  /// machine, and opens caches and message streams. The vertex lists
  /// must outlive the runtime.
  static Result<std::unique_ptr<OocRuntime>> Create(
      const Setup& setup, const Graph& graph,
      const std::vector<std::vector<VertexId>>& vertices_by_machine);

  ~OocRuntime();
  OocRuntime(const OocRuntime&) = delete;
  OocRuntime& operator=(const OocRuntime&) = delete;

  uint64_t resident_message_cap() const {
    return governor_->resident_message_cap();
  }
  const std::string& directory() const { return directory_; }

  // --- Round lifecycle, in engine order ------------------------------
  // Machine-local calls record failures in a per-machine error slot
  // (they run inside ParallelFor tasks); the engine folds them at the
  // next barrier via ConsumeError().

  /// Refills restored(machine) with last round's spilled messages, in
  /// the order they were spilled; empties it when nothing spilled.
  void RestoreInbox(uint32_t machine);

  /// The tail of `machine`'s inbox that the resident cap spilled, as
  /// RestoreInbox streamed it back: the engine receives it after the
  /// senders' truncated arenas. Stable for the runtime's lifetime.
  const MessageBlock& restored(uint32_t machine) const {
    return machines_[machine].restored;
  }

  /// Makes the vertex-state sections behind this round's message
  /// targets resident, in ascending section order.
  void TouchSections(uint32_t machine, std::span<const MessageRun> runs);

  /// Round 0: streams every section through the cache in order and
  /// copies out the out-degree column (indexed by position in the
  /// machine's vertex list) for shard planning.
  void StreamAllDegrees(uint32_t machine, std::vector<uint32_t>* degrees);

  /// Delivery: spills a sender arena's messages [from, from+count) to
  /// `machine`'s stream, and closes the round's spill file.
  void SpillMessages(uint32_t machine, const MessageBlock& arena,
                     size_t from, size_t count);
  void FinishDeliverRound(uint32_t machine);

  /// True when `machine` has spilled messages awaiting restore — such a
  /// machine must not be treated as quiescent.
  bool has_pending_spill(uint32_t machine) const {
    return machines_[machine].stream.has_spill();
  }

  /// First recorded per-machine error, cleared; OK when none.
  Status ConsumeError();

  // --- Measured statistics -------------------------------------------

  /// Real bytes streamed from the vertex-state layer for `machine` this
  /// round — section records plus 8 bytes per edge of the loaded
  /// sections' adjacency (reset on read).
  double TakeRoundStreamBytes(uint32_t machine);

  /// Folds `sent_real_bytes` (the round's outgoing arenas) with the
  /// runtime's own live bytes (restored block + cache + spill staging)
  /// into the per-machine peak.
  void NoteRoundLiveBytes(uint32_t machine, double sent_real_bytes);

  OocRunStats run_stats() const;

 private:
  struct Machine {
    MessageStream stream;
    MessageBlock restored;
    StateFileReader reader;
    VertexCache cache;
    std::vector<uint64_t> section_begin;  // Position bounds, size S+1.
    std::vector<double> section_degree_sum;
    double stream_bytes_this_round = 0.0;
    double peak_live_bytes = 0.0;
    std::vector<uint8_t> section_needed;  // Scratch, size S.
    Status error;
    std::string state_path;
    std::string spill_path;
  };

  OocRuntime() = default;

  uint32_t SectionOfPosition(const Machine& m, uint64_t position) const;
  static void RecordError(Machine& m, Status status);
  /// Makes `section` resident: a hit touches it, a miss reads it and
  /// bills its record and adjacency bytes to the round.
  Status TouchSection(Machine& m, uint32_t section);

  std::string directory_;
  bool owns_directory_ = false;
  std::unique_ptr<MemoryGovernor> governor_;
  /// deque, not vector: Machine owns FILE*-backed members and is neither
  /// movable nor copyable; deque growth constructs in place.
  std::deque<Machine> machines_;
  const std::vector<std::vector<VertexId>>* vertices_by_machine_ = nullptr;
  std::vector<uint64_t> position_of_vertex_;
};

}  // namespace vcmp

#endif  // VCMP_OOC_OOC_RUNTIME_H_
