// Multi-section LRU cache over one machine's vertex-state file
// (DESIGN.md section 13.4). Sections are the paging unit; section s is
// mapped to way s % ways and evicted LRU *within its way* under a
// per-way byte budget. All mutation happens on the engine's fixed
// barrier points in ascending section order, so the resident set —
// and therefore every measured byte — evolves identically at any
// thread count.
#ifndef VCMP_OOC_VERTEX_CACHE_H_
#define VCMP_OOC_VERTEX_CACHE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "ooc/state_file.h"

namespace vcmp {

class VertexCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    double bytes_loaded = 0.0;  // Real bytes brought in from the file.
  };

  /// `reader` must outlive the cache. `capacity_bytes` is the real-byte
  /// budget across all ways; each way gets an equal share.
  void Configure(StateFileReader* reader, uint32_t ways,
                 uint64_t capacity_bytes);

  bool IsResident(uint32_t section) const {
    return sections_[section].resident;
  }

  /// Makes `section` resident, loading synchronously (and evicting LRU
  /// within its way) when absent. `*loaded_from_disk` reports whether a
  /// real read happened (false on a hit).
  Status EnsureResident(uint32_t section, bool* loaded_from_disk);

  const std::vector<VertexRecord>& Records(uint32_t section) const {
    return sections_[section].records;
  }

  uint64_t resident_bytes() const { return resident_bytes_; }
  const Stats& stats() const { return stats_; }

 private:
  struct Section {
    std::vector<VertexRecord> records;
    bool resident = false;
    uint64_t lru_tick = 0;
  };

  void Touch(uint32_t section) { sections_[section].lru_tick = ++tick_; }
  void MakeRoom(uint32_t way, uint64_t incoming_bytes);

  StateFileReader* reader_ = nullptr;
  std::vector<Section> sections_;
  uint32_t ways_ = 1;
  uint64_t way_capacity_bytes_ = 0;
  std::vector<uint64_t> way_bytes_;
  uint64_t resident_bytes_ = 0;
  uint64_t tick_ = 0;
  Stats stats_;
};

}  // namespace vcmp

#endif  // VCMP_OOC_VERTEX_CACHE_H_
