#ifndef VCMP_METRICS_ROUND_STATS_H_
#define VCMP_METRICS_ROUND_STATS_H_

#include <cstdint>
#include <string>

namespace vcmp {

/// Everything measured and modelled for one communication round, at paper
/// scale. Produced by the cost model from the engine's ClusterRoundLoad.
struct RoundStats {
  uint64_t round = 0;

  // --- Measured (engine-side) ---
  /// Logical messages exchanged this round, cluster-wide (the paper's
  /// message-congestion measure).
  double messages = 0.0;
  /// Serialized message bytes cluster-wide.
  double message_bytes = 0.0;
  /// Bytes that crossed machine boundaries.
  double cross_machine_bytes = 0.0;
  double active_vertices = 0.0;
  /// Physical messages put on the wire this round (equals the logical
  /// sent units unless the modeled system combines or mirror routing
  /// dedupes).
  double wire_messages = 0.0;
  /// Logical sent units per wire message (1.0 when nothing merged).
  double combined_ratio = 1.0;

  // --- Modelled (cost-model-side) ---
  double compute_seconds = 0.0;   // Slowest machine's compute.
  double network_seconds = 0.0;   // Un-hidden network flush time.
  double disk_stall_seconds = 0.0;
  double barrier_seconds = 0.0;
  /// Checkpoint flush and failure recovery added to this round (0 unless
  /// fault tolerance is on); both are part of total_seconds.
  double checkpoint_seconds = 0.0;
  double recovery_seconds = 0.0;
  double total_seconds = 0.0;     // Round wall-clock.

  /// Peak memory demand on the most loaded machine (bytes).
  double max_memory_bytes = 0.0;
  /// Peak in-memory message-buffer demand (before any out-of-core cap) on
  /// the most loaded machine — what GraphD would have to hold without
  /// spilling; the quantity the disk-bound tuner models.
  double max_buffered_bytes = 0.0;
  /// Residual memory on the most loaded machine (bytes).
  double max_residual_bytes = 0.0;
  double thrash_multiplier = 1.0;
  bool overflow = false;

  /// Bytes spilled to disk this round, summed over machines. Modeled
  /// overflow for plain out-of-core profiles; the engine's *measured*
  /// spill-file traffic when the real src/ooc path is active.
  double spilled_bytes = 0.0;

  double network_overuse_seconds = 0.0;
  double disk_overuse_seconds = 0.0;
  /// Raw transfer time demanded from the bottleneck machine's disk.
  double disk_io_seconds = 0.0;
  double disk_utilization = 0.0;  // Max over machines, in [0, 1].
  double io_queue_length = 0.0;   // Max over machines.
  /// True when a write queue formed (disk demand outran the overlap
  /// window) on any machine this round.
  bool disk_saturated = false;

  std::string ToString() const;
};

}  // namespace vcmp

#endif  // VCMP_METRICS_ROUND_STATS_H_
