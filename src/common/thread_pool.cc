#include "common/thread_pool.h"

#include <memory>

namespace vcmp {

namespace {

/// Per-call completion latch for the ParallelFor variants: each call
/// waits for its own shards only, so concurrent calls from several driver
/// threads sharing one pool return independently. The decrement and the
/// final predicate check share one mutex, so the notifying task never
/// touches the latch after the waiter could have destroyed it.
struct CallLatch {
  std::mutex mutex;
  std::condition_variable cv;
  uint32_t pending;

  explicit CallLatch(uint32_t count) : pending(count) {}

  void CountDown() {
    std::lock_guard<std::mutex> lock(mutex);
    if (--pending == 0) cv.notify_one();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this] { return pending == 0; });
  }
};

}  // namespace

ThreadPool::ThreadPool(uint32_t num_workers) {
  workers_.reserve(num_workers);
  for (uint32_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::ParallelFor(uint32_t count,
                             const std::function<void(uint32_t)>& fn) {
  const uint32_t shards = std::min(num_workers() + 1, count);
  if (shards <= 1) {
    for (uint32_t i = 0; i < count; ++i) fn(i);
    return;
  }
  CallLatch latch(shards - 1);
  for (uint32_t s = 1; s < shards; ++s) {
    Submit([&fn, &latch, s, shards, count] {
      for (uint32_t i = s; i < count; i += shards) fn(i);
      latch.CountDown();
    });
  }
  for (uint32_t i = 0; i < count; i += shards) fn(i);  // Caller is shard 0.
  latch.Wait();
}

void ThreadPool::ParallelForStealable(
    uint32_t count, const std::function<void(uint32_t)>& fn) {
  const uint32_t participants = std::min(num_workers() + 1, count);
  if (participants <= 1) {
    for (uint32_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // One claim flag per index: exchange(acq_rel) makes the winner's read of
  // any prior writes to the index's inputs visible and runs fn exactly once.
  auto claimed = std::make_unique<std::atomic<uint8_t>[]>(count);
  for (uint32_t i = 0; i < count; ++i) {
    claimed[i].store(0, std::memory_order_relaxed);
  }
  std::atomic<uint8_t>* flags = claimed.get();
  auto run_as = [flags, &fn, participants, count](uint32_t p) {
    // Own indices first, then victims in the fixed order p+1, p+2, ...
    // (mod P); within each victim, ascending index order.
    for (uint32_t v = 0; v < participants; ++v) {
      const uint32_t owner = (p + v) % participants;
      for (uint32_t i = owner; i < count; i += participants) {
        if (flags[i].exchange(1, std::memory_order_acq_rel) == 0) fn(i);
      }
    }
  };
  CallLatch latch(participants - 1);
  for (uint32_t p = 1; p < participants; ++p) {
    Submit([run_as, &latch, p] {
      run_as(p);
      latch.CountDown();
    });
  }
  run_as(0);  // Caller is participant 0.
  latch.Wait();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace vcmp
