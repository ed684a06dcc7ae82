// Fixed-size worker pool for embarrassingly parallel campaign work.
//
// The simulator's Monte-Carlo loops fork one independent RNG stream per
// repetition, so repetitions can run on any worker in any order and still
// produce bit-identical output as long as results are merged in repetition
// order. ordered_fold keeps that property while holding one window of
// results: it fans a window out with parallel_for_indexed and merges it on
// the calling thread in index order before the next window starts.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/error.h"

namespace shiraz::common {

/// Fixed set of worker threads draining one task queue. submit() returns a
/// std::future carrying the task's result or exception; the destructor drains
/// the queue and joins every worker (RAII — no detached threads). Tasks may
/// submit further tasks, but must not block on a future of a task queued
/// behind them (the classic pool self-deadlock).
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// Enqueues `fn` and returns its future. An exception thrown by `fn` is
  /// captured and rethrown from future::get() in the caller.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<std::decay_t<Fn>>> {
    using R = std::invoke_result_t<std::decay_t<Fn>>;
    // shared_ptr keeps the queue entry copyable, as std::function requires.
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> future = task->get_future();
    {
      const std::lock_guard<std::mutex> lock(mu_);
      SHIRAZ_REQUIRE(!stopping_, "submit on a stopping ThreadPool");
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Borrows `external` when non-null, otherwise owns a freshly spawned pool of
/// `workers` threads. Lets sweep hot paths hoist thread construction out of
/// per-candidate loops: the caller spawns one pool and every campaign in the
/// sweep borrows it, instead of each campaign spawning (and joining) its own.
class PoolHandle {
 public:
  PoolHandle(ThreadPool* external, std::size_t workers) : external_(external) {
    if (external_ == nullptr) owned_.emplace(workers);
  }

  ThreadPool& get() { return external_ != nullptr ? *external_ : *owned_; }

 private:
  ThreadPool* external_;
  std::optional<ThreadPool> owned_;
};

/// Runs fn(0) .. fn(n-1) on the pool and blocks until all have finished.
/// One task per worker (never more than n) claims indices in increasing
/// order until none are left, so the queue holds no per-index task, future
/// or node. Rethrows the lowest-index exception after every index ran (so
/// captured references stay valid for still-running calls). n == 0 is a
/// no-op.
template <typename Fn>
void parallel_for_indexed(ThreadPool& pool, std::size_t n, Fn&& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::size_t first_index = n;  // guarded by mu
  std::exception_ptr first;     // guarded by mu
  auto drain = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        if (i < first_index) {
          first_index = i;
          first = std::current_exception();
        }
      }
    }
  };
  const std::size_t tasks = std::min(pool.worker_count(), n);
  std::vector<std::future<void>> futures;
  futures.reserve(tasks);
  for (std::size_t t = 0; t < tasks; ++t) futures.push_back(pool.submit(drain));
  // drain() catches everything fn throws, so get() only synchronizes.
  for (std::future<void>& f : futures) f.get();
  if (first) std::rethrow_exception(first);
}

/// How many indices ordered_fold runs ahead of its consumer: the window its
/// results are buffered over. Campaign fan-out and merge hold one window of
/// per-repetition results, however many repetitions a campaign has. Large
/// enough that the barrier between windows costs nothing measurable (a
/// 256-index window lost throughput to it), small enough that a window of
/// pair-sweep rows (64 candidates x 16 B) stays near 2 MB.
inline constexpr std::size_t kFoldWindow = 2048;

/// Ordered fold over [0, n): consume(i, produce(i)) in increasing i, with
/// produce fanned out over `pool` one window of kFoldWindow indices at a
/// time. prepare(lo, hi) runs on the calling thread before any produce(i)
/// of window [lo, hi) and after every consume of the windows before it;
/// consume always runs on the calling thread. Only one window's results are
/// alive at once, so memory is O(kFoldWindow), not O(n).
///
/// pool == nullptr runs the same calls inline, and the first exception
/// propagates at once. With a pool, every produce runs, consume runs for
/// each index below the lowest failing one and for none after it, and that
/// lowest-index exception is rethrown once every produce has finished.
template <typename Prepare, typename Produce, typename Consume>
void ordered_fold(ThreadPool* pool, std::size_t n, Prepare&& prepare,
                  Produce&& produce, Consume&& consume) {
  using Result = std::invoke_result_t<Produce&, std::size_t>;
  if (pool == nullptr) {
    for (std::size_t lo = 0; lo < n; lo += kFoldWindow) {
      const std::size_t hi = std::min(n, lo + kFoldWindow);
      prepare(lo, hi);
      for (std::size_t i = lo; i < hi; ++i) consume(i, produce(i));
    }
    return;
  }
  std::vector<Result> window(std::min(n, kFoldWindow));
  std::mutex mu;
  std::size_t failed_at = n;     // guarded by mu: the lowest failing index
  std::exception_ptr failure;    // guarded by mu
  for (std::size_t lo = 0; lo < n; lo += kFoldWindow) {
    const std::size_t hi = std::min(n, lo + kFoldWindow);
    prepare(lo, hi);
    parallel_for_indexed(*pool, hi - lo, [&](std::size_t j) {
      try {
        window[j] = produce(lo + j);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        if (lo + j < failed_at) {
          failed_at = lo + j;
          failure = std::current_exception();
        }
      }
    });
    // Windows run in order, so a later window never lowers failed_at.
    for (std::size_t i = lo; i < std::min(hi, failed_at); ++i) {
      consume(i, std::move(window[i - lo]));
    }
  }
  if (failure) std::rethrow_exception(failure);
}

}  // namespace shiraz::common
