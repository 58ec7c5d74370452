// Minimal work-stealing-free thread pool with a parallel_for helper.
//
// The evaluation environment may expose a single hardware thread; the pool
// degrades to inline execution when constructed with <= 1 worker, which keeps
// call sites branch-free.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ft2 {

class ThreadPool {
 public:
  /// Creates `threads` workers. `threads == 0` means hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Runs fn(i) for i in [begin, end), blocking until all iterations finish.
  /// Work is split into contiguous chunks, one per worker. Exceptions inside
  /// fn propagate to the caller (first one wins). Safe to call from inside a
  /// pool task (nested calls execute inline instead of deadlocking on the
  /// queue); partitioning is independent of scheduling, so any kernel whose
  /// per-index work is deterministic stays bit-exact at every pool size.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Process-wide default pool (size from FT2_THREADS env or hardware).
  static ThreadPool& global();

 private:
  /// Enqueues one of parallel_for's chunks (only called with workers).
  void submit(std::function<void()> task);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Convenience wrapper over ThreadPool::global().parallel_for.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

}  // namespace ft2
