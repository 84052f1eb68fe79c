/// \file thread_pool.hpp
/// \brief Minimal fixed-size thread pool used to fan Monte-Carlo experiment
/// runs across cores.
///
/// Deliberately simple (no work stealing): experiment tasks are coarse —
/// one full engine trial each — so index claiming is one atomic increment.
/// Determinism is the caller's job: tasks must write to disjoint, pre-sized
/// slots so the completion order never affects the result (see
/// runtime::run_design).
///
/// A parallel call runs on the calling thread plus the pool's threads: the
/// caller is worker 0 and starts draining indices at once, and each pool
/// thread that joins in time claims the next worker id. A pool thread that
/// finishes its part of a call stays awake for a short, bounded spin
/// (kSpinRounds yields) before it sleeps, so a closed loop of back-to-back
/// small calls finds its helpers awake instead of paying a wake-up per
/// call. Once the caller has drained its share it closes the call to late
/// joiners and waits for the helpers still running, again spinning briefly
/// before it sleeps.
///
/// The free parallel_for / parallel_for_workers run on a pool owned by the
/// calling thread: created on its first parallel call, kept for the
/// thread's lifetime and grown to the largest worker count it has asked
/// for (workers − 1 threads). A body that calls parallel_for again runs
/// either on a pool thread, which owns its own pool, or on the calling
/// thread, whose pool is busy: such a nested call never replaces or reuses
/// the busy pool and runs inline. Nested and concurrent callers therefore
/// never share a pool, so no lock is held across calls.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dqcsim {

/// Fixed-size pool of worker threads: parallel calls run on the caller and
/// the workers.
class ThreadPool {
 public:
  /// Yield rounds a worker (or a waiting caller) spins before it blocks.
  /// About 60 µs on a 4-core host: long enough to bridge a closed loop's
  /// gap between calls, short enough not to steal the serial work that
  /// follows a burst of calls.
  static constexpr unsigned kSpinRounds = 256;

  /// Spawn `num_threads` workers; 0 means hardware_threads().
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  std::size_t size() const noexcept { return workers_.size(); }

  /// Run body(i) for i in [0, n) on the calling thread and the pool's
  /// workers via a shared atomic index. Blocks until all n calls return.
  /// The first exception thrown by any call is rethrown here (remaining
  /// indices still run). When n is <= 1, or the pool is already running a
  /// parallel call, this degenerates to an inline serial loop.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

  /// As parallel_for, but body receives (worker, i) where worker is a dense
  /// id in [0, min(size() + 1, n)) identifying the draining thread (the
  /// caller is worker 0): calls with the same worker id never run
  /// concurrently, so each worker can own a reusable workspace (e.g. a
  /// runtime::RunContext). The serial fallback uses worker 0.
  void parallel_for_workers(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& body);

  /// As parallel_for_workers, with worker ids limited to
  /// [0, min(size() + 1, n, max_workers)).
  void parallel_for_workers(
      std::size_t n, std::size_t max_workers,
      const std::function<void(std::size_t, std::size_t)>& body);

  /// std::thread::hardware_concurrency(), but never 0.
  static std::size_t hardware_threads() noexcept;

 private:
  void worker_loop();
  /// True while the current parallel call takes helpers (mutex_ held).
  bool claimable() const { return task_ != nullptr && next_id_ < ids_; }

  // Guarded by mutex_ (the atomics are also read without it while
  // spinning).
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  ///< signals sleeping workers: new work
  std::condition_variable idle_cv_;  ///< signals the caller: helpers done
  bool stop_ = false;
  std::size_t sleeping_ = 0;  ///< workers blocked on work_cv_
  /// Parallel calls posted so far: spinning workers watch it for a change.
  std::atomic<std::uint64_t> posted_{0};

  // The running parallel call: helpers claim worker ids in [1, ids_).
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::size_t next_id_ = 0;
  std::size_t ids_ = 0;
  std::atomic<std::size_t> helpers_busy_{0};

  std::vector<std::thread> workers_;  ///< last: they use every member above
};

/// Convenience: run body(i) for i in [0, n) on `num_threads` workers
/// (0 = hardware_threads()) — the calling thread and its pool. Serial and
/// inline when the resolved thread count or n is <= 1, so single-threaded
/// callers pay no threading cost at all.
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
