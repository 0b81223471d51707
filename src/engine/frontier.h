#ifndef VCMP_ENGINE_FRONTIER_H_
#define VCMP_ENGINE_FRONTIER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace vcmp {

/// Active-vertex frontier: a dense membership bitmap paired with a
/// sparse activation list.
///
/// The bitmap answers "is v active?" in O(1) during signal accumulation;
/// the list remembers activation order so a scheduling pass can visit
/// only the active vertices (in deterministic first-activation order)
/// instead of scanning the whole vertex space. Take() hands out the
/// list; membership bits persist until the consumer calls Deactivate(v)
/// — signals arriving for a vertex that is activated but not yet
/// consumed must keep folding into the same pending activation, not
/// schedule it twice.
class VertexFrontier {
 public:
  /// Sizes the frontier for vertices [0, universe) and clears all state.
  void Reset(VertexId universe);

  VertexId universe() const { return universe_; }
  size_t active_count() const { return active_count_; }

  /// Activates `v` if inactive: sets its bit and appends it to the
  /// pending list. Returns true iff the vertex was newly activated.
  bool Activate(VertexId v) {
    const uint64_t mask = uint64_t{1} << (v & 63);
    uint64_t& word = words_[v >> 6];
    if ((word & mask) != 0) return false;
    word |= mask;
    ++active_count_;
    pending_.push_back(v);
    return true;
  }

  bool IsActive(VertexId v) const {
    return (words_[v >> 6] & (uint64_t{1} << (v & 63))) != 0;
  }

  /// Clears `v`'s membership bit (the consumer has processed it).
  void Deactivate(VertexId v) {
    const uint64_t mask = uint64_t{1} << (v & 63);
    uint64_t& word = words_[v >> 6];
    if ((word & mask) == 0) return;
    word &= ~mask;
    --active_count_;
  }

  /// Moves the accumulated activation list out (first-activation order).
  /// Membership bits are NOT cleared — the consumer deactivates each
  /// vertex as it processes it.
  std::vector<VertexId> Take() {
    std::vector<VertexId> taken = std::move(pending_);
    pending_.clear();  // Moved-from vector is valid but unspecified.
    return taken;
  }

 private:
  std::vector<uint64_t> words_;
  std::vector<VertexId> pending_;
  VertexId universe_ = 0;
  size_t active_count_ = 0;
};

}  // namespace vcmp

#endif  // VCMP_ENGINE_FRONTIER_H_
