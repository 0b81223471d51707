#ifndef VCMP_ENGINE_QUERY_CONTEXT_H_
#define VCMP_ENGINE_QUERY_CONTEXT_H_

#include <cstdint>
#include <memory>

namespace vcmp {

class ThreadPool;

/// Per-query execution state for re-entrant engine runs (DESIGN.md
/// section 14).
///
/// The engines are immutable once constructed: everything a run mutates —
/// message buffers, staging arenas, per-vertex logs — lives in the
/// QueryContext the caller passes to Run. Concurrent queries therefore
/// share one engine (and its graph, partition and mirror plan) by const
/// reference and never touch each other's state; per-query bit-identity
/// follows because each run is a pure function of (program, engine
/// options, query_id) with no cross-query channel.
///
/// A context is NOT thread-safe: exactly one query drives it at a time.
/// Reusing one context across the batches of a query keeps buffer
/// capacity warm across Run calls, exactly like the engine member fields
/// it replaced.
struct QueryContext {
  QueryContext() = default;
  explicit QueryContext(uint64_t id) : query_id(id) {}

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  /// Random-stream namespace: every per-vertex reseed inside a run draws
  /// from Rng::MixSeed(seed, query_id, round, v), so two queries sharing
  /// a base seed still see decorrelated streams. Query 0 reproduces the
  /// historical single-query streams bit for bit.
  uint64_t query_id = 0;

  /// Pool SyncEngine fans compute shards out on. Null keeps the
  /// historical behavior (each Run creates a private pool from its thread
  /// options); non-null shares the pool across queries — a loop never
  /// waits on a helper that has not started, so concurrent fan-outs
  /// finish independently, and drivers lending their threads join
  /// whichever query's loop is queued. GasEngine runs serially and
  /// ignores it.
  ThreadPool* pool = nullptr;

  /// Reusable engine-owned buffers (workers, shard sinks). The concrete
  /// type is private to the engine, so it hangs off a virtual base;
  /// created lazily on first Run and reused while the shapes match.
  struct Scratch {
    virtual ~Scratch() = default;
  };
  std::unique_ptr<Scratch> sync_scratch;
};

}  // namespace vcmp

#endif  // VCMP_ENGINE_QUERY_CONTEXT_H_
