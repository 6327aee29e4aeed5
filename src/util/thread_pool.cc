#include "util/thread_pool.h"

#include <algorithm>
#include <exception>

namespace tcf {

namespace {

// Waits for every task, then rethrows the first exception (in task
// order) that any of them threw. Returning at the first failure would
// leave the other tasks running `fn` against the caller's frame after it
// is gone.
void WaitAll(std::vector<std::future<void>>& futures) {
  std::exception_ptr first;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (first == nullptr) first = std::current_exception();
    }
  }
  if (first != nullptr) std::rethrow_exception(first);
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 4;
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this]() { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  // One task has nothing to overlap with: a queue round trip and a worker
  // wake-up would only add latency (a single query's lone subquery).
  if (n == 1) {
    fn(0);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    futures.push_back(Submit([&fn, i]() { fn(i); }));
  }
  WaitAll(futures);
}

void ThreadPool::ParallelForRanges(
    size_t n, const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    fn(0, 1);  // as in ParallelFor: one task runs on the caller
    return;
  }
  const size_t chunk = RangeSize(n);
  std::vector<std::future<void>> futures;
  futures.reserve((n + chunk - 1) / chunk);
  for (size_t begin = 0; begin < n; begin += chunk) {
    const size_t end = std::min(n, begin + chunk);
    futures.push_back(Submit([&fn, begin, end]() { fn(begin, end); }));
  }
  WaitAll(futures);
}

size_t ThreadPool::RangeSize(size_t n) const {
  const size_t max_tasks = workers_.size() * 4;
  return std::max<size_t>(1, (n + max_tasks - 1) / max_tasks);
}

}  // namespace tcf
