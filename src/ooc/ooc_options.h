// Configuration and run statistics for the real out-of-core path
// (DESIGN.md section 13). OocOptions rides inside EngineOptions and
// RunnerOptions; OocRunStats is reported back on EngineResult so callers
// can see the measured I/O a bounded-memory run actually performed.
#ifndef VCMP_OOC_OOC_OPTIONS_H_
#define VCMP_OOC_OOC_OPTIONS_H_

#include <cstdint>
#include <string>

namespace vcmp {

/// Knobs for real bounded-memory execution. When `enabled`, the engine
/// pages message overflow to disk and keeps vertex state behind a
/// sectioned LRU cache instead of only modelling the spill.
struct OocOptions {
  bool enabled = false;

  /// Hard per-machine memory budget in *paper-scale* bytes (the same
  /// scale the cost model and RoundStats use). Must be at least
  /// MemoryGovernor::MinFeasibleBytes for the run's configuration.
  uint64_t memory_budget_bytes = 0;

  /// Directory for spill and vertex-state files. Empty means a unique
  /// directory under the system temp dir, removed when the run's
  /// runtime is destroyed.
  std::string directory;

  /// Vertex-state sections per machine (paging granularity of the
  /// vertex cache). Clamped to [1, vertices-on-machine].
  uint32_t cache_sections = 64;

  /// Set-associativity of the vertex cache: section s lives in way
  /// s % cache_ways, and LRU eviction is local to a way.
  uint32_t cache_ways = 4;

  /// Messages per spill page (one checksum + one write per page).
  uint32_t spill_page_messages = 4096;
};

/// Measured I/O and cache behaviour of one engine run. All byte counts
/// here are *real file bytes* (what touched disk), not paper-scale;
/// RoundStats.spilled_bytes carries the paper-scale equivalent.
struct OocRunStats {
  double spill_bytes_written = 0.0;
  double spill_bytes_read = 0.0;
  uint64_t spilled_messages = 0;
  uint64_t restored_messages = 0;
  uint64_t spill_pages = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Always 0: a section loads only when a round touches it. Kept only
  /// because vcmp_bench reports it; it goes with that report's metric.
  uint64_t prefetch_loads = 0;
  uint64_t cache_evictions = 0;
  double state_bytes_read = 0.0;
  double peak_live_bytes = 0.0;

  void Accumulate(const OocRunStats& other) {
    spill_bytes_written += other.spill_bytes_written;
    spill_bytes_read += other.spill_bytes_read;
    spilled_messages += other.spilled_messages;
    restored_messages += other.restored_messages;
    spill_pages += other.spill_pages;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    prefetch_loads += other.prefetch_loads;
    cache_evictions += other.cache_evictions;
    state_bytes_read += other.state_bytes_read;
    if (other.peak_live_bytes > peak_live_bytes) {
      peak_live_bytes = other.peak_live_bytes;
    }
  }
};

}  // namespace vcmp

#endif  // VCMP_OOC_OOC_OPTIONS_H_
