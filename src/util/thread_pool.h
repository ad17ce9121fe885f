#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace ssresf::util {

/// Minimal fixed-size worker pool for embarrassingly parallel fan-out (the
/// fault-injection campaign shards its injection list across it). Jobs are
/// plain callables; submit returns a future so callers can join and
/// propagate worker exceptions.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a job. The future resolves when the job finishes and rethrows
  /// anything the job threw.
  std::future<void> submit(std::function<void()> job);

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// Number of concurrent hardware threads (at least 1).
  [[nodiscard]] static int hardware_threads();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::deque<std::packaged_task<void()>> jobs_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

/// Calls body(0) .. body(count - 1), on min(threads, count) pool workers
/// that claim indices in ascending order (inline when that is one). Either
/// way the caller sees the exception of the lowest failing index, as from a
/// sequential loop; on the pool, the other indices still run first.
/// Bodies must not write shared state other than their own index's slot.
void parallel_for(std::size_t count, int threads,
                  const std::function<void(std::size_t)>& body);

}  // namespace ssresf::util
