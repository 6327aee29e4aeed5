// Fixed-size thread pool used to simulate the per-fragment "sites" of the
// disconnection set approach. Each site's local transitive closure runs as
// one task; the pool gives us the paper's phase-1 property for free (no
// communication until the final joins).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace tcf {

/// A simple work-queue thread pool. Tasks may not submit tasks and block on
/// them from within the pool (no work stealing); the DSA executor only
/// submits from the coordinator thread, which matches the paper's model.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (>= 1). Defaults to the
  /// hardware concurrency.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueue a task; returns a future for its result.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back([task]() { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

  /// Run fn(i) for i in [0, n) across the pool and wait for completion.
  /// One task per index — right when each call does real work (a
  /// fragment-grouped site task, a fragment's subquery dedup). With
  /// n == 1 the one call runs on the calling thread. If calls throw, it
  /// still waits for every task, then rethrows the exception of the
  /// lowest-numbered failed task.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Run fn(begin, end) over a partition of [0, n) into contiguous ranges
  /// (a few per worker) and wait for completion. Amortizes the per-task
  /// queue overhead when the loop body is cheap — the batch executor plans
  /// tens of thousands of queries this way. With n == 1 the one range runs
  /// on the calling thread. Exceptions as in ParallelFor.
  void ParallelForRanges(size_t n,
                         const std::function<void(size_t, size_t)>& fn);

  /// The length of ParallelForRanges' ranges over n items:
  /// ⌈n / (4 × workers)⌉, at least 1 — about four ranges per worker,
  /// enough slack to absorb uneven range costs without per-item queue
  /// traffic. For callers that cut their own tasks by the same rule.
  size_t RangeSize(size_t n) const;

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool shutting_down_ = false;
};

}  // namespace tcf
