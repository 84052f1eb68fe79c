#include "common/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <memory>

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
    posted_.fetch_add(1, std::memory_order_release);  // ends every spin
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (claimable()) {
      const std::size_t id = next_id_++;
      const std::function<void(std::size_t)>& task = *task_;
      helpers_busy_.fetch_add(1, std::memory_order_relaxed);
      lock.unlock();
      task(id);
      // The caller may return as soon as the count reaches zero: nothing of
      // its call is touched after this.
      const bool last =
          helpers_busy_.fetch_sub(1, std::memory_order_acq_rel) == 1;
      lock.lock();
      if (last) idle_cv_.notify_all();
      continue;
    }
    if (stop_) return;

    // Idle: stay awake for a short spin, so the next of a run of
    // back-to-back calls finds this worker ready, then sleep.
    const std::uint64_t seen = posted_.load(std::memory_order_relaxed);
    lock.unlock();
    for (unsigned r = 0; r < kSpinRounds &&
                         posted_.load(std::memory_order_acquire) == seen;
         ++r) {
      std::this_thread::yield();
    }
    lock.lock();
    ++sleeping_;
    work_cv_.wait(lock, [&] {
      return posted_.load(std::memory_order_relaxed) != seen;
    });
    --sleeping_;
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  parallel_for_workers(n, [&body](std::size_t, std::size_t i) { body(i); });
}

void ThreadPool::parallel_for_workers(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body) {
  parallel_for_workers(n, size() + 1, body);
}

void ThreadPool::parallel_for_workers(
    std::size_t n, std::size_t max_workers,
    const std::function<void(std::size_t, std::size_t)>& body) {
  const std::size_t ids = std::min({size() + 1, n, max_workers});
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
  // Helpers run the drain through this (one reference: no allocation).
  const std::function<void(std::size_t)> task = [&drain](std::size_t worker) {
    drain(worker);
  };

  // Open the call to helpers, unless a call is running already (a nested
  // or concurrent caller): that one runs inline.
  bool open = false;
  bool wake = false;
  if (ids > 1) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (task_ == nullptr) {
      task_ = &task;
      next_id_ = 1;
      ids_ = ids;
      posted_.fetch_add(1, std::memory_order_release);
      open = true;
      wake = sleeping_ > 0;
    }
  }
  if (!open) {
    for (std::size_t i = 0; i < n; ++i) body(0, i);
    return;
  }
  if (wake) work_cv_.notify_all();

  drain(0);  // the caller is worker 0
  {
    // Every index is claimed: close the call to late joiners, then wait
    // for the helpers still running (briefly spinning, then asleep).
    const std::lock_guard<std::mutex> lock(mutex_);
    task_ = nullptr;
  }
  for (unsigned r = 0; r < kSpinRounds &&
                       helpers_busy_.load(std::memory_order_acquire) != 0;
       ++r) {
    std::this_thread::yield();
  }
  if (helpers_busy_.load(std::memory_order_acquire) != 0) {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [this] {
      return helpers_busy_.load(std::memory_order_acquire) == 0;
    });
  }

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
  // This thread's pool (see the file comment), and whether this thread is
  // inside a call on it: a nested call runs inline rather than replace or
  // reuse the busy pool.
  thread_local std::unique_ptr<ThreadPool> pool;
  thread_local bool busy = false;
  const std::size_t workers = parallel_worker_count(n, num_threads);
  if (workers <= 1 || busy) {
    for (std::size_t i = 0; i < n; ++i) body(0, i);
    return;
  }
  // Replaced by a larger pool when a call needs more workers: the idle old
  // one joins first.
  if (pool == nullptr || pool->size() + 1 < workers) {
    pool.reset();
    pool = std::make_unique<ThreadPool>(workers - 1);
  }
  struct Busy {
    bool& flag;
    explicit Busy(bool& f) : flag(f) { flag = true; }
    ~Busy() { flag = false; }
  } const guard(busy);
  pool->parallel_for_workers(n, workers, body);
}

}  // namespace dqcsim
