#include "common/thread_pool.h"

namespace vcmp {

/// State of one ParallelFor call, shared by the caller and every queued
/// offer. An offer picked up after the last index was claimed finds
/// nothing left and never touches `fn`, so the caller may return while
/// offers it posted are still queued; the shared ownership keeps the
/// counter alive for them.
struct ThreadPool::Loop {
  Loop(uint32_t n, const std::function<void(uint32_t)>& f)
      : count(n), fn(&f) {}

  /// Claims and runs indices until none is left; returns how many ran.
  uint32_t Claim() {
    uint32_t ran = 0;
    for (uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < count; i = next.fetch_add(1, std::memory_order_relaxed)) {
      (*fn)(static_cast<uint32_t>(i));
      ++ran;
    }
    return ran;
  }

  const uint32_t count;
  /// Called only for a claimed index, i.e. while the caller still waits.
  const std::function<void(uint32_t)>* const fn;
  /// Next unclaimed index. 64-bit: every participant overshoots by one.
  std::atomic<uint64_t> next{0};
  std::mutex mutex;
  uint32_t finished = 0;  // Indices whose `fn` returned; guarded by mutex.
  std::condition_variable done_cv;  // Signals finished == count.
};

ThreadPool::ThreadPool(uint32_t num_workers) {
  workers_.reserve(num_workers);
  for (uint32_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::ParallelFor(uint32_t count,
                             const std::function<void(uint32_t)>& fn) {
  const uint32_t helpers =
      std::min(num_workers() + lenders_.load(std::memory_order_relaxed),
               count > 0 ? count - 1 : 0u);
  if (helpers == 0) {
    for (uint32_t i = 0; i < count; ++i) fn(i);
    return;
  }
  auto loop = std::make_shared<Loop>(count, fn);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    offers_.insert(offers_.end(), helpers, loop);
  }
  for (uint32_t h = 0; h < helpers; ++h) work_cv_.notify_one();
  // The caller claims like any helper, so every index is claimed by a
  // running thread before the caller waits: it waits only on indices
  // already running, never on an offer nobody picked up. The mutex also
  // publishes the helpers' writes to the caller.
  const uint32_t ran = loop->Claim();
  std::unique_lock<std::mutex> lock(loop->mutex);
  loop->finished += ran;
  loop->done_cv.wait(lock, [&loop] { return loop->finished == loop->count; });
}

void ThreadPool::ServeFront(std::unique_lock<std::mutex>& lock) {
  std::shared_ptr<Loop> loop = std::move(offers_.front());
  offers_.pop_front();
  lock.unlock();
  const uint32_t ran = loop->Claim();
  if (ran > 0) {
    std::lock_guard<std::mutex> done_lock(loop->mutex);
    loop->finished += ran;
    if (loop->finished == loop->count) loop->done_cv.notify_one();
  }
  loop.reset();  // Drop the reference before taking the pool lock.
  lock.lock();
}

void ThreadPool::Lend(const std::function<bool()>& done) {
  std::unique_lock<std::mutex> lock(mutex_);
  lenders_.fetch_add(1, std::memory_order_relaxed);
  while (true) {
    work_cv_.wait(lock, [&] { return done() || !offers_.empty(); });
    if (done()) break;  // No loop waits on a lender, so leave at once.
    ServeFront(lock);
  }
  lenders_.fetch_sub(1, std::memory_order_relaxed);
}

void ThreadPool::WakeLenders() {
  // Under the lock: a lender that just found `done()` false is waiting
  // by the time this runs, so it cannot miss the wake-up.
  std::lock_guard<std::mutex> lock(mutex_);
  work_cv_.notify_all();
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [this] { return stop_ || !offers_.empty(); });
    if (offers_.empty()) return;  // stop_ and drained.
    ServeFront(lock);
  }
}

}  // namespace vcmp
