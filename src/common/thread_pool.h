#ifndef VCMP_COMMON_THREAD_POOL_H_
#define VCMP_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace vcmp {

/// Persistent fixed-size worker pool with one barrier loop, ParallelFor.
///
/// SyncEngine reuses one pool for every superstep of a run, replacing the
/// per-round std::thread spawn/join that dominated the orchestration cost
/// of short rounds. Workers are started once in the constructor and
/// parked on a condition variable between rounds; each ParallelFor call
/// is a barrier: it returns only after every index it was given has run,
/// so it ends a round's parallel section.
///
/// A loop posts offers to the pool's queue; whoever picks one up (a
/// worker, or a thread inside Lend) joins the caller in claiming the
/// loop's next unclaimed index. The caller never waits on an offer no
/// thread has started — it claims whatever is left itself — so one pool
/// may be shared by several driver threads (one per in-flight query):
/// their loops finish independently and share whichever threads are
/// idle. With no worker and no lender every index runs inline on the
/// calling thread, so serial and parallel executions share one code
/// path.
class ThreadPool {
 public:
  /// Starts `num_workers` threads (0 = inline execution).
  explicit ThreadPool(uint32_t num_workers);

  /// Joins the workers once they drained the queue; any offer still
  /// queued is stale (its loop returned) and runs nothing.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t num_workers() const {
    return static_cast<uint32_t>(workers_.size());
  }

  /// Invokes `fn(i)` for every i in [0, count) and returns after all of
  /// them ran. The caller and up to `count - 1` helpers (one offer per
  /// worker and per lender) claim indices from one shared counter, so a
  /// skewed index cost never idles a thread while work is left. Which
  /// thread runs an index depends on timing, so `fn` must write only to
  /// state keyed by the index (per-shard slots/arenas); any cross-index
  /// reduction must happen after the call, in fixed index order. Loops
  /// called concurrently from different threads finish independently.
  /// `fn` must not throw and must not call back into the same pool (no
  /// nested parallelism).
  void ParallelFor(uint32_t count, const std::function<void(uint32_t)>& fn);

  /// Lends the calling thread to the pool until `done()` holds: it picks
  /// up offers like a worker and counts as one more participant for
  /// loops started meanwhile. `done` is evaluated with the pool's lock
  /// held; whoever makes it true must call WakeLenders() afterwards. The
  /// pool must outlive every lender.
  void Lend(const std::function<bool()>& done);

  /// Wakes every lender to re-check its `done` condition.
  void WakeLenders();

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
  struct Loop;

  /// Pops the front offer and, with `lock` released, claims indices of
  /// its loop until none is left. Requires a non-empty queue.
  void ServeFront(std::unique_lock<std::mutex>& lock);
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_cv_;  // Signals workers and lenders.
  std::deque<std::shared_ptr<Loop>> offers_;
  std::atomic<uint32_t> lenders_{0};  // Written under mutex_.
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace vcmp

#endif  // VCMP_COMMON_THREAD_POOL_H_
