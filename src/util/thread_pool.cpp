#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

namespace ssresf::util {

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::future<void> ThreadPool::submit(std::function<void()> job) {
  std::packaged_task<void()> task(std::move(job));
  std::future<void> future = task.get_future();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    jobs_.push_back(std::move(task));
  }
  work_ready_.notify_one();
  return future;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] { return stopping_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // stopping and drained
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    job();  // exceptions land in the job's future
  }
}

int ThreadPool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void parallel_for(std::size_t count, int threads,
                  const std::function<void(std::size_t)>& body) {
  const std::size_t workers =
      std::min(static_cast<std::size_t>(std::max(threads, 1)), count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::vector<std::exception_ptr> errors(count);
  std::atomic<std::size_t> next{0};
  {
    ThreadPool pool(static_cast<int>(workers));
    std::vector<std::future<void>> done;
    done.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      done.push_back(pool.submit([&] {
        for (std::size_t i; (i = next.fetch_add(1)) < count;) {
          try {
            body(i);
          } catch (...) {
            errors[i] = std::current_exception();
          }
        }
      }));
    }
    for (std::future<void>& d : done) d.get();
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace ssresf::util
