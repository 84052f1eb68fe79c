/// \file thread_pool.hpp
/// \brief Minimal fixed-size thread pool used to fan Monte-Carlo experiment
/// runs across cores.
///
/// Deliberately simple (one locked FIFO, no work stealing): experiment tasks
/// are coarse — one full engine trial each — so queue contention is
/// negligible next to task cost. Determinism is the caller's job: tasks must
/// write to disjoint, pre-sized slots so the completion order never affects
/// the result (see runtime::run_design).
///
/// The free parallel_for / parallel_for_workers run on a pool owned by the
/// calling thread: created on its first parallel call, kept for the
/// thread's lifetime and grown to the largest worker count it has asked
/// for, so a small call pays a wake-up instead of thread creation. The
/// caller blocks while its pool drains, and a body that calls parallel_for
/// again runs on a pool thread, which owns its own pool: nested and
/// concurrent callers never share a pool, so no lock is held across calls.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace dqcsim {

/// Fixed-size pool of worker threads draining a shared FIFO of jobs.
class ThreadPool {
 public:
  /// Spawn `num_threads` workers; 0 means hardware_threads().
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Blocks until queued jobs finish, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue one job. Jobs must not throw (wrap work that can throw and
  /// capture the exception; parallel_for does this for you).
  void submit(std::function<void()> job);

  /// Block until the queue is empty and every worker is idle.
  void wait_idle();

  /// Run body(i) for i in [0, n), distributed over the pool's workers via a
  /// shared atomic index. Blocks until all n calls return. The first
  /// exception thrown by any call is rethrown here (remaining indices still
  /// run). When size() or n is <= 1 this degenerates to an inline serial
  /// loop.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

  /// As parallel_for, but body receives (worker, i) where worker is a dense
  /// id in [0, min(size(), n)) identifying the draining task: calls with
  /// the same worker id never run concurrently, so each worker can own a
  /// reusable workspace (e.g. a runtime::RunContext). The serial fallback
  /// uses worker 0.
  void parallel_for_workers(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& body);

  /// As parallel_for_workers, with worker ids limited to
  /// [0, min(size(), n, max_workers)).
  void parallel_for_workers(
      std::size_t n, std::size_t max_workers,
      const std::function<void(std::size_t, std::size_t)>& body);

  /// std::thread::hardware_concurrency(), but never 0.
  static std::size_t hardware_threads() noexcept;

 private:
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  ///< signals workers: job or stop
  std::condition_variable idle_cv_;  ///< signals wait_idle: drained
  std::queue<std::function<void()>> jobs_;
  std::vector<std::thread> workers_;
  std::size_t active_ = 0;
  bool stop_ = false;
};

/// Convenience: run body(i) for i in [0, n) on `num_threads` workers
/// (0 = hardware_threads()) of the calling thread's pool. Serial and inline
/// when the resolved thread count or n is <= 1, so single-threaded callers
/// pay no threading cost at all.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  std::size_t num_threads = 0);

/// Number of distinct worker ids parallel_for_workers(n, body, num_threads)
/// will use — size a per-worker workspace array with this before the call.
std::size_t parallel_worker_count(std::size_t n,
                                  std::size_t num_threads = 0) noexcept;

/// Worker-id variant of the free parallel_for: body receives
/// (worker, i) with worker in [0, parallel_worker_count(n, num_threads)).
/// Calls sharing a worker id never run concurrently.
void parallel_for_workers(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t num_threads = 0);

}  // namespace dqcsim
