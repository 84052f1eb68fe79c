#include "des/event_queue.hpp"

#include <algorithm>

namespace dqcsim::des {

namespace {
/// Smallest dispatch window carved out of the overflow per rebuild. Large
/// enough to amortize the partition cost, small enough that a window is
/// usually consumed before inserts land inside it.
constexpr std::size_t kMinRunLength = 64;
}  // namespace

// DQCSIM_HOT
bool EventQueue::cancel(EventId id) noexcept {
  const auto slot = static_cast<std::uint32_t>(id >> 32);
  const auto generation = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  if (slot >= pool_.num_slots()) return false;
  detail::EventRecord& rec = pool_[slot];
  // Valid only while pending: generation matches and the event has not
  // been extracted. A currently-dispatching event is no longer pending, so
  // cancelling it (e.g. from inside its own callback) is a no-op, as is
  // any stale handle.
  if (rec.generation != generation || rec.pending == 0) return false;
  rec.pending = 0;
  detail::destroy_callback(rec.ops, rec.storage);
  rec.ops = nullptr;
  pool_.release(slot);
  --size_;
  ++dead_;
  // The index entry is left in place; it is skipped when it surfaces. Once
  // the dead outnumber the live, one O(entries) sweep reclaims them all —
  // amortized O(1) per cancel, memory bounded by live + recent cancels.
  if (dead_ > size_ + 4 * kMinRunLength) compact();
  return true;
}

void EventQueue::settle_front_slow() {
  for (;;) {
    if (dead_ != 0) {
      // Drop cancelled entries surfacing at the window front or near top.
      while (run_head_ < run_.size() && !entry_live(run_[run_head_])) {
        ++run_head_;
        --dead_;
      }
      while (!near_.empty() && !entry_live(near_.front())) {
        pop_near_root();
        --dead_;
      }
    }
    if (run_head_ < run_.size() || !near_.empty()) return;
    run_.clear();
    run_head_ = 0;
    rebuild_run();
  }
}

SimTime EventQueue::next_time() {
  DQCSIM_EXPECTS(!empty());
  settle_front();
  return run_front_wins() ? run_[run_head_].time : near_.front().time;
}

void EventQueue::rebuild_run() {
  // Purge dead overflow entries while we are touching them anyway.
  if (dead_ > 0) {
    const auto first_dead = std::remove_if(
        overflow_.begin(), overflow_.end(),
        [this](const IndexEntry& e) { return !entry_live(e); });
    dead_ -= static_cast<std::size_t>(overflow_.end() - first_dead);
    overflow_.erase(first_dead, overflow_.end());
  }
  DQCSIM_ENSURES_MSG(!overflow_.empty(),
                     "event index lost track of pending events");
  const auto earlier = [](const IndexEntry& a, const IndexEntry& b) {
    return before(a, b);
  };
  const std::size_t total = overflow_.size();
  std::size_t take = total;
  if (total > 2 * kMinRunLength) {
    // Partition the nearest half (at least kMinRunLength) into the window;
    // the far half stays unsorted and keeps taking O(1) appends.
    take = std::max(kMinRunLength, total / 2);
    std::nth_element(overflow_.begin(),
                     overflow_.begin() + static_cast<std::ptrdiff_t>(take),
                     overflow_.end(), earlier);
  }
  run_.assign(overflow_.begin(),
              overflow_.begin() + static_cast<std::ptrdiff_t>(take));
  run_head_ = 0;
  std::sort(run_.begin(), run_.end(), earlier);
  // Backfill the extracted prefix from the tail (take <= total / 2 unless
  // everything was taken, so source and destination never overlap).
  if (take < total) {
    std::copy(overflow_.end() - static_cast<std::ptrdiff_t>(take),
              overflow_.end(),
              overflow_.begin());
  }
  overflow_.resize(total - take);
  horizon_ = run_.back().time;
}

void EventQueue::compact() {
  const auto dead_pred = [this](const IndexEntry& e) {
    return !entry_live(e);
  };
  overflow_.erase(
      std::remove_if(overflow_.begin(), overflow_.end(), dead_pred),
      overflow_.end());
  // The window must stay sorted: stable removal preserves order.
  run_.erase(run_.begin(),
             run_.begin() + static_cast<std::ptrdiff_t>(run_head_));
  run_head_ = 0;
  run_.erase(std::remove_if(run_.begin(), run_.end(), dead_pred),
             run_.end());
  near_.erase(std::remove_if(near_.begin(), near_.end(), dead_pred),
              near_.end());
  // Re-heapify the near tier (Floyd's bottom-up construction).
  if (near_.size() > 1) {
    const std::size_t n = near_.size();
    for (std::size_t i = (n - 2) / 4 + 1; i-- > 0;) {
      const IndexEntry entry = near_[i];
      std::size_t pos = i;
      for (std::size_t best; (best = near_best_child(pos, n)) < n &&
                             before(near_[best], entry);
           pos = best) {
        near_[pos] = near_[best];
      }
      near_[pos] = entry;
    }
  }
  dead_ = 0;
}

}  // namespace dqcsim::des
