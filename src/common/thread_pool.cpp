#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

namespace dqcsim {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = hardware_threads();
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> job) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    jobs_.push(std::move(job));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return jobs_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // stop_ and drained
      job = std::move(jobs_.front());
      jobs_.pop();
      ++active_;
    }
    job();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (jobs_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  parallel_for_workers(n, [&body](std::size_t, std::size_t i) { body(i); });
}

void ThreadPool::parallel_for_workers(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body) {
  parallel_for_workers(n, size(), body);
}

void ThreadPool::parallel_for_workers(
    std::size_t n, std::size_t max_workers,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t tasks = std::min({size(), n, max_workers});
  if (tasks <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(0, i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mutex;

  const auto drain = [&](std::size_t worker) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        body(worker, i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!failed.exchange(true)) error = std::current_exception();
      }
    }
  };

  // One draining task per worker id; a task may migrate to whichever pool
  // thread picks it up, but two tasks never share an id, so id-keyed
  // workspaces are race-free.
  for (std::size_t t = 0; t < tasks; ++t) {
    submit([&drain, t] { drain(t); });
  }
  wait_idle();

  if (failed.load()) std::rethrow_exception(error);
}

std::size_t ThreadPool::hardware_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  std::size_t num_threads) {
  parallel_for_workers(
      n, [&body](std::size_t, std::size_t i) { body(i); }, num_threads);
}

std::size_t parallel_worker_count(std::size_t n,
                                  std::size_t num_threads) noexcept {
  if (num_threads == 0) num_threads = ThreadPool::hardware_threads();
  num_threads = std::min(num_threads, n);
  return num_threads <= 1 ? 1 : num_threads;
}

void parallel_for_workers(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t num_threads) {
  const std::size_t workers = parallel_worker_count(n, num_threads);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(0, i);
    return;
  }
  // This thread's pool (see the file comment), replaced by a larger one
  // when a call needs more workers: the idle old one joins first.
  thread_local std::unique_ptr<ThreadPool> pool;
  if (pool == nullptr || pool->size() < workers) {
    pool.reset();
    pool = std::make_unique<ThreadPool>(workers);
  }
  pool->parallel_for_workers(n, workers, body);
}

}  // namespace dqcsim
