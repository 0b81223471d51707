#ifndef VCMP_ENGINE_VERTEX_PROGRAM_H_
#define VCMP_ENGINE_VERTEX_PROGRAM_H_

#include <cstddef>
#include <cstdint>

#include "common/rng.h"
#include "engine/message.h"
#include "graph/graph.h"

namespace vcmp {

/// Messaging interface handed to VertexProgram::Seed and ComputeRun.
/// Implemented by the engines; routes messages and accounts statistics.
class MessageSink {
 public:
  virtual ~MessageSink() = default;

  /// Sends to a specific vertex. Illegal under the mirror/broadcast-only
  /// interface (Pregel+(mirror) only exposes Broadcast, Section 3).
  virtual void Send(VertexId target, uint32_t tag, double value,
                    double multiplicity) = 0;

  /// Delivers (tag, value, multiplicity-per-neighbour) to every neighbour
  /// of `from`. Under mirroring, one wire message per mirror machine; in
  /// basic engines this expands to per-neighbour sends.
  virtual void Broadcast(VertexId from, uint32_t tag, double value,
                         double multiplicity_per_neighbor) = 0;

  /// Declares extra modelled compute (in edge-scan units) that does not
  /// emit one message per unit, e.g. scanning an adjacency list.
  virtual void AddComputeUnits(double units) = 0;

  /// Contributes to the round's global sum aggregator (the Pregel
  /// aggregator mechanism). The engine folds all contributions during the
  /// round and hands the total to VertexProgram::TerminateOnAggregate
  /// after the round's barrier.
  virtual void Aggregate(double value) = 0;

  /// Records bytes of intermediate results produced at the current vertex
  /// that must survive until final aggregation (the paper's residual
  /// memory). The engine accumulates these into a per-machine ledger and
  /// reports them in the result, so programs need no shared per-machine
  /// arrays of their own — which would race once vertices of one machine
  /// execute on different shards. Sinks that do not model memory ignore it.
  virtual void AddResidualBytes(double bytes) { (void)bytes; }

  /// Current communication round (0 = the seeding superstep).
  virtual uint64_t round() const = 0;

  /// Random stream of the current vertex, reseeded at its first run
  /// from (seed, query, round, vertex).
  virtual Rng& rng() = 0;
};

/// One contiguous (vertex, tag) message run, straight out of the
/// worker's received value column. `values[i]` for i in [0, count) are
/// the run's message values in arrival order, or, when the program
/// declares a fold the engine applied on arrival, the one folded value
/// (count == 1). Multiplicities are the engine's accounting and do not
/// reach programs.
struct MessageRunView {
  uint32_t tag = 0;
  const double* values = nullptr;
  size_t count = 0;

  /// Left-to-right sum of the run's values — the fold most tasks
  /// (PageRank, BPPR walk counts) perform per tag group.
  double SumValues() const {
    double sum = 0.0;
    for (size_t i = 0; i < count; ++i) sum += values[i];
    return sum;
  }
};

/// A vertex-centric computation in the Pregel style (Section 2.1).
///
/// Round 0 calls Seed once for every vertex (the seeding superstep). Every
/// later round calls ComputeRun only for vertices that received messages
/// — the vote-to-halt default — once per (vertex, tag) run of the
/// received inbox, in ascending (target, tag) order: a vertex's runs
/// arrive back to back, each tag once. A program folds each run on its
/// own (a sum, a min, a per-message scan); the run's payload keeps
/// arrival order, so the fold's order is fixed by the senders' order,
/// never by shards or threads. The engine opens a vertex's log record and
/// random stream at its first run. The engine terminates when a round
/// sends no messages, when the program requests termination, or at the
/// round cap.
class VertexProgram {
 public:
  virtual ~VertexProgram() = default;

  /// Round 0: v's seeding step, with no messages.
  virtual void Seed(VertexId v, MessageSink& sink) = 0;

  /// Rounds >= 1: one call per (v, tag) run of v's inbox.
  virtual void ComputeRun(VertexId v, const MessageRunView& run,
                          MessageSink& sink) = 0;

  /// Explicit termination check evaluated after each round, for programs
  /// with round-count semantics (e.g. BKHS stops after k+1 rounds).
  virtual bool ShouldTerminate(uint64_t rounds_completed) const {
    (void)rounds_completed;
    return false;
  }

  /// Convergence check on the round's global aggregator sum (e.g.
  /// PageRank terminates when the summed rank delta drops below a
  /// tolerance). Only called for rounds where at least one vertex
  /// aggregated a value.
  virtual bool TerminateOnAggregate(double aggregate_sum) const {
    (void)aggregate_sum;
    return false;
  }

  /// Bytes of vertex state held on `machine` (generated-graph scale; the
  /// engine applies the dataset scale factor).
  virtual double StateBytes(uint32_t machine) const {
    (void)machine;
    return 0.0;
  }

  /// The fold ComputeRun applies to every run's values, when it is one
  /// the engine can apply as messages arrive: kSum when ComputeRun reads
  /// a run only through the left-to-right sum from +0.0 (SumValues), kMin
  /// when only through its minimum (ties keep the first value). The
  /// engine may then hand ComputeRun a single-value run holding that
  /// fold, computed in the same order, so the program's own fold of it
  /// returns the same bits (DESIGN.md §11). A program whose result
  /// depends on run length or on individual values declares kNone and
  /// always sees every message. A declared fold also lets a combining
  /// system (GraphLab sync) merge messages with equal (target, tag) at
  /// the sender; the engine counts those keys (DESIGN.md §16).
  virtual MessageFold fold() const { return MessageFold::kNone; }
};

}  // namespace vcmp

#endif  // VCMP_ENGINE_VERTEX_PROGRAM_H_
