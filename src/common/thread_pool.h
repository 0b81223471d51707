#ifndef VCMP_COMMON_THREAD_POOL_H_
#define VCMP_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vcmp {

/// Persistent fixed-size worker pool with two barrier loops.
///
/// SyncEngine reuses one pool for every superstep of a run, replacing the
/// per-round std::thread spawn/join that dominated the orchestration cost
/// of short rounds. Workers are started once in the constructor and
/// parked on a condition variable between rounds; each ParallelFor /
/// ParallelForStealable call is a barrier: it returns only after every
/// index it was given has run, so it ends a round's parallel section.
///
/// One pool may be shared by several driver threads (one per in-flight
/// query in concurrent multi-query execution): both loops track the
/// completion of *their own* shards with a per-call latch, so concurrent
/// calls return independently instead of coupling at a pool-wide
/// barrier.
///
/// With zero workers both loops run every index inline on the calling
/// thread, so serial and parallel executions share one code path.
class ThreadPool {
 public:
  /// Starts `num_workers` threads (0 = inline execution).
  explicit ThreadPool(uint32_t num_workers);

  /// Runs every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t num_workers() const {
    return static_cast<uint32_t>(workers_.size());
  }

  /// Invokes `fn(i)` for every i in [0, count), statically sharded
  /// round-robin across the workers plus the calling thread (shard s takes
  /// indices s, s + S, s + 2S, ...). Returns after all indices ran; the
  /// caller participates, so the pool is never idle-waited from outside.
  /// Completion is tracked per call, so concurrent ParallelFor calls from
  /// different driver threads finish independently. `fn` must not throw
  /// and must not call back into the same pool (no nested parallelism).
  void ParallelFor(uint32_t count, const std::function<void(uint32_t)>& fn);

  /// Work-stealing variant of ParallelFor for skewed index costs.
  ///
  /// Ownership stays static — index i belongs to participant i mod P — but
  /// a participant that drains its own indices claims leftovers from
  /// victims in the fixed scan order (p + 1) mod P, (p + 2) mod P, ...
  /// Victim selection and steal order are pure functions of participant
  /// and index numbers, never of timing. Which thread *executes* an index
  /// still depends on the schedule, so `fn` must write only to state keyed
  /// by the index (per-shard slots/arenas); any cross-index reduction must
  /// happen after the barrier, in fixed index order.
  void ParallelForStealable(uint32_t count,
                            const std::function<void(uint32_t)>& fn);

  /// Hardware concurrency with a floor of 1 (the standard allows 0).
  static uint32_t HardwareThreads() {
    return std::max(1u, std::thread::hardware_concurrency());
  }

  /// Single policy point for turning an `execution_threads` option into a
  /// thread count: 0 means "use the hardware", and the hardware clamp is
  /// applied only when the caller asked for it. MultiProcessingRunner
  /// clamps; SyncEngine and ConcurrentRunner run what they are given.
  static uint32_t ResolveThreads(uint32_t requested, bool clamp_to_hardware) {
    uint32_t threads = requested == 0 ? HardwareThreads()
                                      : std::max(1u, requested);
    if (clamp_to_hardware) threads = std::min(threads, HardwareThreads());
    return threads;
  }

 private:
  /// Enqueues one shard of a loop; only called with workers present.
  void Submit(std::function<void()> task);
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_cv_;  // Signals workers: task or stop.
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace vcmp

#endif  // VCMP_COMMON_THREAD_POOL_H_
