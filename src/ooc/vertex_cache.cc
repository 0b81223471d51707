#include "ooc/vertex_cache.h"

#include <utility>

namespace vcmp {

void VertexCache::Configure(StateFileReader* reader, uint32_t ways,
                            uint64_t capacity_bytes) {
  reader_ = reader;
  ways_ = ways == 0 ? 1 : ways;
  if (ways_ > reader->num_sections() && reader->num_sections() > 0) {
    ways_ = reader->num_sections();
  }
  way_capacity_bytes_ = capacity_bytes / ways_;
  sections_.assign(reader->num_sections(), Section{});
  way_bytes_.assign(ways_, 0);
  resident_bytes_ = 0;
  tick_ = 0;
  stats_ = Stats{};
}

void VertexCache::MakeRoom(uint32_t way, uint64_t incoming_bytes) {
  // Evict LRU sections of this way until the incoming section fits. A
  // section larger than the way budget still loads alone (the governor
  // validates the budget against the largest section up front).
  while (way_bytes_[way] > 0 &&
         way_bytes_[way] + incoming_bytes > way_capacity_bytes_) {
    uint32_t victim = 0;
    uint64_t oldest = ~0ULL;
    for (uint32_t s = way; s < sections_.size(); s += ways_) {
      if (sections_[s].resident && sections_[s].lru_tick < oldest) {
        oldest = sections_[s].lru_tick;
        victim = s;
      }
    }
    Section& evicted = sections_[victim];
    const uint64_t bytes = reader_->section_bytes(victim);
    way_bytes_[way] -= bytes;
    resident_bytes_ -= bytes;
    evicted.resident = false;
    evicted.records.clear();
    evicted.records.shrink_to_fit();
    ++stats_.evictions;
  }
}

Status VertexCache::EnsureResident(uint32_t section, bool* loaded_from_disk) {
  Section& slot = sections_[section];
  if (slot.resident) {
    ++stats_.hits;
    Touch(section);
    if (loaded_from_disk != nullptr) *loaded_from_disk = false;
    return Status::OK();
  }
  ++stats_.misses;
  std::vector<VertexRecord> records;
  VCMP_RETURN_IF_ERROR(reader_->ReadSection(section, &records));
  const uint32_t way = section % ways_;
  const uint64_t bytes = reader_->section_bytes(section);
  stats_.bytes_loaded += static_cast<double>(bytes);
  MakeRoom(way, bytes);
  slot.records = std::move(records);
  slot.resident = true;
  way_bytes_[way] += bytes;
  resident_bytes_ += bytes;
  Touch(section);
  if (loaded_from_disk != nullptr) *loaded_from_disk = true;
  return Status::OK();
}

}  // namespace vcmp
