/// \file event_queue.hpp
/// \brief Deterministic priority event queue for discrete-event simulation.
///
/// Events fire in nondecreasing time order; ties are broken by insertion
/// order (FIFO), which keeps simulations bit-reproducible for a fixed seed.
///
/// Implementation: a ladder-queue-style three-tier index over a pooled
/// event store (see event_pool.hpp), replacing the earlier std::function +
/// std::priority_queue design:
///
///  - `run_`      a sorted dispatch window, popped from the front in O(1);
///  - `near_`     a small 4-ary min-heap for inserts that land inside the
///                current window (rare in steady state);
///  - `overflow_` an unsorted spill list for inserts beyond the window —
///                the common case — appended in O(1).
///
/// When the window and near heap drain, the nearest half of the overflow is
/// partitioned out (nth_element) and sorted into a fresh window, so every
/// event is sorted O(1) amortized times with bulk-sort constants instead of
/// per-event heap sifts. Cancellation destroys the callback and releases
/// the pool slot immediately; the stale index entry is skipped on surfacing
/// and compacted away once dead entries outnumber live ones, so memory is
/// bounded by O(live + recently cancelled) — no tombstone accumulation.
/// All three tiers order by (time, insertion seq), exactly the old
/// (time, id) ordering, so every simulation statistic is bit-identical.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "des/event_pool.hpp"

namespace dqcsim::des {

/// Opaque handle identifying a scheduled event (usable for cancellation).
/// Encodes (slot, generation); 0 is never a valid handle.
using EventId = std::uint64_t;

/// Min-queue of timestamped callbacks with stable FIFO tie-breaking, O(1)
/// amortized cancellation, and allocation-free steady state.
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `action` to fire at absolute time `time`. `scheduled_at` is
  /// the caller's clock, handed back to the dispatch hook (see
  /// dispatch_next); a queue used without a clock may leave it at 0.
  /// Precondition: time must be finite and >= 0.
  /// Every callback is stored inline in its pool slot: a closure that does
  /// not fit kInlineCallbackBytes, or whose construction could throw (an
  /// lvalue functor that copies, say), does not compile. Allocation-free
  /// once the pool and index are warm.
  template <typename F>
  EventId schedule(SimTime time, F&& action, SimTime scheduled_at = 0.0) {
    using Fn = std::decay_t<F>;
    static_assert(detail::fits_inline_v<Fn> &&
                      std::is_nothrow_constructible_v<Fn, F&&>,
                  "event callbacks must fit the pool's inline storage and "
                  "construct without throwing: capture only what they use");
    DQCSIM_EXPECTS_MSG(std::isfinite(time) && time >= 0.0,
                       "event time must be finite and nonnegative");
    const std::uint32_t slot = pool_.allocate();
    detail::EventRecord& rec = pool_[slot];
    ::new (static_cast<void*>(rec.storage)) Fn(std::forward<F>(action));
    rec.ops = &detail::InlineCallback<Fn>::ops;
    // Index growth may throw (bad_alloc): roll the slot back so the pool
    // stays consistent.
    try {
      insert_index(IndexEntry{time, next_seq_, slot, rec.generation});
    } catch (...) {
      detail::destroy_callback(rec.ops, rec.storage);
      rec.ops = nullptr;
      pool_.release(slot);
      throw;
    }
    rec.pending = 1;
    rec.scheduled_at = scheduled_at;
    ++next_seq_;
    ++size_;
    return make_id(slot, rec.generation);
  }

  /// Cancel a previously scheduled event. Cancelling an already-fired,
  /// currently-dispatching, or unknown event is a no-op. Returns true if
  /// the event was pending. The callback is destroyed and its pool slot
  /// released immediately; the index entry is purged lazily (amortized
  /// O(1), bounded memory).
  bool cancel(EventId id) noexcept;

  /// True when no pending events remain.
  bool empty() const noexcept { return size_ == 0; }

  /// Time of the earliest pending event. Precondition: !empty().
  /// (Non-const: may settle the dispatch window past cancelled entries.)
  SimTime next_time();

  /// Remove the earliest pending event and invoke its callback in place.
  /// Returns the event's time. Precondition: !empty().
  /// The callback may re-enter the queue (schedule/cancel) freely; its own
  /// slot is off every index tier while it runs.
  SimTime dispatch_next() {
    return dispatch_next([](SimTime, SimTime) {});
  }

  /// As dispatch_next(), but invoke `before_invoke(time, scheduled_at)`
  /// between event extraction and the callback — the Simulator advances its
  /// clock there without paying for a separate next_time() pass.
  template <typename Pre>
  SimTime dispatch_next(Pre&& before_invoke) {
    DQCSIM_EXPECTS(!empty());
    settle_front();
    const IndexEntry entry = extract_min();
    detail::EventRecord& rec = pool_[entry.slot];
    rec.pending = 0;
    --size_;
    // The record is out of every index tier and not yet on the free list,
    // so the callback may schedule (growing the pool) or cancel freely
    // without its own storage being reused underneath it. Block storage is
    // stable, so `rec` stays valid across pool growth. The finalizer
    // releases the slot even when before_invoke or the callback throws.
    // (reset() must not be called from inside a dispatching callback.)
    struct Finalizer {
      EventPool& pool;
      detail::EventRecord& rec;
      std::uint32_t slot;
      ~Finalizer() {
        detail::destroy_callback(rec.ops, rec.storage);
        rec.ops = nullptr;
        pool.release(slot);
      }
    } finalizer{pool_, rec, entry.slot};
    before_invoke(entry.time, rec.scheduled_at);
    rec.ops->invoke(rec.storage);
    return entry.time;
  }

  /// Number of pending events.
  std::size_t size() const noexcept { return size_; }

  /// Drop every pending event (destroying the callbacks) but retain all
  /// pool and index capacity, ready for reuse by the next trial.
  void reset() noexcept {
    pool_.reset();
    run_.clear();
    run_head_ = 0;
    near_.clear();
    overflow_.clear();
    horizon_ = -1.0;
    dead_ = 0;
    size_ = 0;
    next_seq_ = 0;
  }

  /// Pre-grow the pool and index to hold `events` pending events.
  void reserve(std::size_t events) {
    pool_.reserve(events);
    run_.reserve(events);
    overflow_.reserve(events);
  }

  // --- introspection (tests and benchmarks) -------------------------------
  /// Slab blocks currently owned by the event pool.
  std::size_t pool_blocks() const noexcept { return pool_.num_blocks(); }
  /// Record slots carved out of the slab (the pending-event high-water mark).
  std::size_t pool_slots() const noexcept { return pool_.num_slots(); }
  /// Index entries across all tiers, including not-yet-purged cancelled
  /// ones. Bounded by size() + cancelled-since-last-compaction.
  std::size_t index_entries() const noexcept {
    return (run_.size() - run_head_) + near_.size() + overflow_.size();
  }

 private:
  /// One queued event reference. `gen` detects entries whose event was
  /// cancelled (the record's generation moved on).
  struct IndexEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  static EventId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(slot) << 32) | generation;
  }

  /// Strict ordering: earlier time first, then earlier insertion (FIFO).
  /// Bitwise combination keeps the comparison branchless (sift decisions on
  /// irregular times mispredict otherwise).
  static bool before(const IndexEntry& a, const IndexEntry& b) noexcept {
    return (a.time < b.time) | ((a.time == b.time) & (a.seq < b.seq));
  }

  bool entry_live(const IndexEntry& e) const noexcept {
    const detail::EventRecord& rec = pool_[e.slot];
    return rec.generation == e.gen && rec.pending != 0;
  }

  /// Route a fresh entry to the near heap (inside the dispatch window) or
  /// the overflow spill (beyond it). Entries at exactly the horizon go to
  /// the overflow: their seq is newer than the window boundary's, so they
  /// sort after it.
  void insert_index(const IndexEntry& entry) {
    if (entry.time < horizon_) {
      push_near(entry);
    } else {
      overflow_.push_back(entry);
    }
  }

  void push_near(const IndexEntry& entry);
  void pop_near_root() noexcept;

  /// Index of the smallest child of near-heap node `pos`, or `n` when the
  /// node is a leaf.
  std::size_t near_best_child(std::size_t pos, std::size_t n) const noexcept;

  /// Drop cancelled entries from the window front / near top, rebuilding
  /// the window from the overflow when both drain. Precondition: !empty().
  /// Postcondition: the earliest live entry is at run_[run_head_] or
  /// near_.front(). Inline fast path: nothing cancelled, a tier non-empty.
  void settle_front() {
    if (dead_ == 0 && (run_head_ < run_.size() || !near_.empty())) return;
    settle_front_slow();
  }
  void settle_front_slow();

  /// True when the dispatch window's front entry precedes the near-heap
  /// top (the single tier-selection rule next_time/extract_min share).
  bool run_front_wins() const noexcept {
    if (run_head_ >= run_.size()) return false;
    return near_.empty() || before(run_[run_head_], near_.front());
  }

  /// Extract the earliest live entry. Precondition: settled front.
  IndexEntry extract_min() noexcept {
    if (run_front_wins()) return run_[run_head_++];
    const IndexEntry top = near_.front();
    pop_near_root();
    return top;
  }

  /// Sort the nearest chunk of the overflow into a fresh dispatch window.
  void rebuild_run();

  /// Purge dead entries from every tier (amortized against cancels).
  void compact();

  EventPool pool_;
  std::vector<IndexEntry> run_;       ///< sorted window; pop at run_head_
  std::size_t run_head_ = 0;
  std::vector<IndexEntry> near_;      ///< 4-ary min-heap, window stragglers
  std::vector<IndexEntry> overflow_;  ///< unsorted, beyond the window
  SimTime horizon_ = -1.0;  ///< window upper bound (exclusive for routing)
  std::size_t dead_ = 0;    ///< cancelled entries still in the index
  std::size_t size_ = 0;    ///< live (pending) events
  std::uint64_t next_seq_ = 0;
};

// --- near-heap operations, inline: every dispatch and most inserts use them.

// DQCSIM_HOT
inline void EventQueue::push_near(const IndexEntry& entry) {
  // DQCSIM_LINT_ALLOW(hot-alloc): the near heap grows to its high-water
  // mark once per reused queue (reserve() sizes it at reset); steady-state
  // appends land in already-reserved capacity, measured alloc-free by
  // perf_micro's SteadyStateChurn operator-new counter.
  near_.push_back(entry);
  std::size_t pos = near_.size() - 1;
  while (pos > 0) {
    const std::size_t parent = (pos - 1) >> 2;
    if (!before(entry, near_[parent])) break;
    near_[pos] = near_[parent];
    pos = parent;
  }
  near_[pos] = entry;
}

inline std::size_t EventQueue::near_best_child(
    std::size_t pos, std::size_t n) const noexcept {
  const std::size_t first_child = 4 * pos + 1;
  if (first_child >= n) return n;
  const std::size_t last_child = std::min(first_child + 4, n);
  std::size_t best = first_child;
  for (std::size_t c = first_child + 1; c < last_child; ++c) {
    if (before(near_[c], near_[best])) best = c;
  }
  return best;
}

// DQCSIM_HOT
inline void EventQueue::pop_near_root() noexcept {
  const IndexEntry last = near_.back();
  near_.pop_back();
  const std::size_t n = near_.size();
  if (n == 0) return;
  // Bottom-up removal: pull the min-child chain into the root hole, then
  // sift the former tail entry up from the bottom.
  std::size_t hole = 0;
  for (std::size_t best; (best = near_best_child(hole, n)) < n;
       hole = best) {
    near_[hole] = near_[best];
  }
  std::size_t pos = hole;
  while (pos > 0) {
    const std::size_t parent = (pos - 1) >> 2;
    if (!before(last, near_[parent])) break;
    near_[pos] = near_[parent];
    pos = parent;
  }
  near_[pos] = last;
}

}  // namespace dqcsim::des
