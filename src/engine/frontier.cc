#include "engine/frontier.h"

namespace vcmp {

void VertexFrontier::Reset(VertexId universe) {
  universe_ = universe;
  words_.assign((static_cast<size_t>(universe) + 63) / 64, 0);
  pending_.clear();
  active_count_ = 0;
}

}  // namespace vcmp
