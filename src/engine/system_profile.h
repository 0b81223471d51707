#ifndef VCMP_ENGINE_SYSTEM_PROFILE_H_
#define VCMP_ENGINE_SYSTEM_PROFILE_H_

#include <string>
#include <vector>

namespace vcmp {

/// The seven VC-system modes evaluated by the paper (Table 1, bottom).
enum class SystemKind {
  kGiraph = 0,
  kGiraphAsync,
  kPregelPlus,
  kPregelPlusMirror,
  kGraphD,
  kGraphLab,
  kGraphLabAsync,
};

/// Behavioural and cost parameters of one VC-system mode.
///
/// Each parameter models the mechanism the paper attributes to the real
/// system: Giraph pays JVM serialization/object overheads; Pregel+(mirror)
/// communicates through high-degree-vertex mirrors over a broadcast-only
/// interface; GraphD caps in-memory message buffers and spills to disk;
/// GraphLab(async) drops the barrier but pays distributed-lock overhead and
/// loses sender-side message combining.
struct SystemProfile {
  SystemKind kind = SystemKind::kPregelPlus;
  std::string name = "Pregel+";

  /// CPU multiplier relative to Pregel+ (C++/MPI = 1.0).
  double compute_factor = 1.0;
  /// Serialized bytes per logical message on the wire.
  double bytes_per_message = 20.0;
  /// In-memory bytes per serialized byte while buffered (object headers,
  /// boxing; ~1.2 for C++, ~2.5 for JVM heaps).
  double message_memory_overhead = 1.2;

  /// Out-of-core execution (GraphD): buffered messages beyond
  /// ooc_budget_bytes spill to disk, and the edge partition streams from
  /// disk every round.
  bool out_of_core = false;
  double ooc_budget_bytes = 2.5 * (1ULL << 30);

  /// Synchronous rounds; async engines replace the barrier with
  /// fine-grained scheduling.
  bool synchronous = true;
  /// Barrier cost multiplier (partial-async Giraph < 1, async ~ 0).
  double barrier_factor = 1.0;

  /// Mirroring of high-degree vertices (Pregel+(mirror)); implies the
  /// broadcast-only message interface.
  bool mirroring = false;
  /// Vertices with degree above this get mirrors on neighbour machines.
  uint64_t mirror_degree_threshold = 64;

  /// Sender-side combining of same-(target, tag) messages (GraphLab sync;
  /// also how a Pregel+ run with a combiner behaves). Affects wire bytes
  /// and buffers, not the logical congestion count. The SyncEngine
  /// prices it as a count of distinct keys per sender and destination
  /// and folds nothing, so task answers do not depend on it.
  bool combines_messages = false;
  /// Per-logical-message work relative to full message handling when the
  /// message is folded into an existing combiner entry (no serialization,
  /// no allocation — just the merge).
  double combined_work_fraction = 1.0;

  /// Asynchronous-engine costs (GraphLab async, Giraph async): distributed
  /// locking ~ machines, and message inflation under load because
  /// combining windows vanish.
  double lock_overhead_coefficient = 0.0;
  double async_message_inflation = 1.0;

  /// Facebook's Giraph improvement (Section 2.2): "split a message-heavy
  /// superstep into several sub-steps for message reduction". When > 0,
  /// a round whose in-memory message buffer would exceed this many bytes
  /// is executed as ceil(buffer / threshold) sub-steps: peak buffer
  /// memory is capped at the threshold at the price of one extra barrier
  /// per sub-step. 0 disables the mechanism (the paper evaluates stock
  /// system defaults; see bench/ablation_superstep_split).
  double superstep_split_threshold_bytes = 0.0;

  /// Default graph partitioning strategy ("hash" or "greedy-edge-cut").
  std::string partitioner = "hash";
};

/// Canonical profile for each paper system mode.
const SystemProfile& ProfileFor(SystemKind kind);

/// All seven modes, in the paper's Table 1 order.
const std::vector<SystemKind>& AllSystemKinds();

/// Paper display name, e.g. "Pregel+(mirror)".
const std::string& SystemName(SystemKind kind);

/// Reverse lookup by display name.
bool SystemKindFromName(const std::string& name, SystemKind* out);

}  // namespace vcmp

#endif  // VCMP_ENGINE_SYSTEM_PROFILE_H_
