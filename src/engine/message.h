#ifndef VCMP_ENGINE_MESSAGE_H_
#define VCMP_ENGINE_MESSAGE_H_

#include <cstdint>
#include <string>

#include "graph/graph.h"

namespace vcmp {

/// One physical message routed between vertices.
///
/// `multiplicity` makes the message *logical-count aware*: a physical
/// message standing for k paper-level messages (e.g. k random walks taking
/// the same step, or a sampled MSSP source representing k real sources)
/// carries multiplicity k. All congestion/memory/network statistics count
/// logical units, so the simulated cluster sees exactly the traffic the
/// real system would, while the process routes far fewer objects.
struct Message {
  VertexId target = 0;
  /// Task-defined discriminator (e.g. source vertex of a walk or query).
  /// A combining system merges messages with equal (target, tag).
  uint32_t tag = 0;
  /// Task payload (walk count, path length, rank mass, ...).
  double value = 0.0;
  /// Number of paper-level messages this physical message represents.
  double multiplicity = 1.0;

  std::string ToString() const;
};

}  // namespace vcmp

#endif  // VCMP_ENGINE_MESSAGE_H_
