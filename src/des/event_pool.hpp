/// \file event_pool.hpp
/// \brief Slab-allocated store of fixed-size event records with small-buffer
/// callback storage — the allocation-free backing of EventQueue.
///
/// Records live in stable 256-slot blocks (a slab) threaded by a free list,
/// so steady-state schedule/cancel/pop cycles perform no heap allocation:
/// the slab grows to the high-water mark of simultaneously pending events
/// and is reused from then on. Every callback is stored in place and must
/// fit `kInlineCallbackBytes` (EventQueue::schedule rejects a larger
/// closure at compile time).

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace dqcsim::des {

/// Simulation time. The runtime uses units of one local CNOT latency.
using SimTime = double;

namespace detail {

/// Inline capacity for stored callbacks. Sized for the engine's largest
/// closure (a `this` pointer plus a few gate indices) with room to spare.
inline constexpr std::size_t kInlineCallbackBytes = 48;

/// Sentinel: end of the free list.
inline constexpr std::uint32_t kNullSlot = 0xFFFFFFFFu;

/// Type-erased manual vtable for a stored callback. `destroy` is null for
/// trivially destructible inline callbacks (the common case) so the
/// dispatch path can skip the indirect call.
struct CallbackOps {
  void (*invoke)(void* storage);
  void (*destroy)(void* storage) noexcept;
};

inline void destroy_callback(const CallbackOps* ops, void* storage) noexcept {
  if (ops->destroy != nullptr) ops->destroy(storage);
}

template <typename F>
struct InlineCallback {
  static void invoke(void* storage) { (*static_cast<F*>(storage))(); }
  static void destroy(void* storage) noexcept {
    static_cast<F*>(storage)->~F();
  }
  static constexpr CallbackOps ops{
      &invoke, std::is_trivially_destructible_v<F> ? nullptr : &destroy};
};

template <typename F>
inline constexpr bool fits_inline_v =
    sizeof(F) <= kInlineCallbackBytes &&
    alignof(F) <= alignof(std::max_align_t) &&
    std::is_nothrow_move_constructible_v<F>;

/// One pooled event: the callback plus liveness bookkeeping. The sort key
/// (time, seq) lives only in EventQueue's index entries, not here. Records
/// never move: blocks are stable, so a callback may safely execute from
/// its own slot while re-entrant scheduling grows the pool.
struct EventRecord {
  alignas(std::max_align_t) unsigned char storage[kInlineCallbackBytes];
  const CallbackOps* ops = nullptr;  ///< null while the slot is free
  std::uint32_t generation = 1;      ///< bumped on release; 0 never valid
  std::uint32_t next_free = kNullSlot;
  std::uint8_t pending = 0;  ///< scheduled and not yet extracted/cancelled
  /// The scheduler's clock when the event was queued (fills padding: the
  /// record stays 80 bytes).
  SimTime scheduled_at = 0.0;
};

}  // namespace detail

/// Growing slab of EventRecords with a free list. Slots are identified by a
/// dense uint32 index; `operator[]` is O(1) and references stay valid across
/// growth (storage is chunked, never reallocated).
class EventPool {
 public:
  static constexpr std::uint32_t kBlockShift = 8;
  static constexpr std::uint32_t kBlockSlots = 1u << kBlockShift;  // 256
  static constexpr std::uint32_t kBlockMask = kBlockSlots - 1;

  detail::EventRecord& operator[](std::uint32_t slot) noexcept {
    return blocks_[slot >> kBlockShift].get()[slot & kBlockMask];
  }
  const detail::EventRecord& operator[](std::uint32_t slot) const noexcept {
    return blocks_[slot >> kBlockShift].get()[slot & kBlockMask];
  }

  /// Take a free slot, growing the slab by one block when exhausted. The
  /// returned record's generation is valid; all other fields are stale.
  std::uint32_t allocate() {
    if (free_head_ != detail::kNullSlot) {
      const std::uint32_t slot = free_head_;
      free_head_ = (*this)[slot].next_free;
      ++live_;
      return slot;
    }
    if (num_slots_ == blocks_.size() * kBlockSlots) {
      blocks_.push_back(std::make_unique<detail::EventRecord[]>(kBlockSlots));
    }
    ++live_;
    return num_slots_++;
  }

  /// Return a slot to the free list. The callback must already be destroyed.
  void release(std::uint32_t slot) noexcept {
    detail::EventRecord& rec = (*this)[slot];
    if (++rec.generation == 0) rec.generation = 1;
    rec.pending = 0;
    rec.next_free = free_head_;
    free_head_ = slot;
    --live_;
  }

  /// Destroy every live callback and rebuild the free list (ascending slot
  /// order, for deterministic reuse). Keeps all blocks: capacity is retained
  /// across trials.
  void reset() noexcept {
    free_head_ = detail::kNullSlot;
    for (std::uint32_t slot = num_slots_; slot-- > 0;) {
      detail::EventRecord& rec = (*this)[slot];
      if (rec.ops != nullptr) {
        destroy_callback(rec.ops, rec.storage);
        rec.ops = nullptr;
        if (++rec.generation == 0) rec.generation = 1;
      }
      rec.pending = 0;
      rec.next_free = free_head_;
      free_head_ = slot;
    }
    live_ = 0;
  }

  /// Grow the slab until it holds at least `slots` carved records, threading
  /// the new ones onto the free list.
  void reserve(std::size_t slots) {
    while (num_slots_ < slots) {
      if (num_slots_ == blocks_.size() * kBlockSlots) {
        blocks_.push_back(
            std::make_unique<detail::EventRecord[]>(kBlockSlots));
      }
      detail::EventRecord& rec = (*this)[num_slots_];
      rec.next_free = free_head_;
      free_head_ = num_slots_;
      ++num_slots_;
    }
  }

  std::uint32_t num_slots() const noexcept { return num_slots_; }
  std::size_t num_blocks() const noexcept { return blocks_.size(); }
  std::size_t live() const noexcept { return live_; }

 private:
  std::vector<std::unique_ptr<detail::EventRecord[]>> blocks_;
  std::uint32_t num_slots_ = 0;
  std::uint32_t free_head_ = detail::kNullSlot;
  std::size_t live_ = 0;
};

}  // namespace dqcsim::des
