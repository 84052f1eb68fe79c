/// \file simulator.hpp
/// \brief Discrete-event simulation engine: a clock plus an event queue.
///
/// Both the entanglement-generation service and the DQC runtime engine are
/// processes driven by one shared Simulator, which is what lets gate
/// execution react to EPR-pair arrivals at exact event timestamps.

#pragma once

#include <utility>

#include "common/error.hpp"
#include "des/event_queue.hpp"

namespace dqcsim::des {

/// Event-driven simulation engine with an absolute clock.
///
/// Time never flows backwards: scheduling an event before `now()` throws.
/// Scheduling is allocation-free in steady state (see EventQueue); a
/// Simulator is designed to be reset() and reused across Monte-Carlo trials
/// so its event pool is warm from the second trial on.
class Simulator {
 public:
  /// Current simulation time.
  SimTime now() const noexcept { return now_; }

  /// The instant at which the event now dispatching was scheduled; now()
  /// outside an event callback. Among events due at one instant, one
  /// scheduled earlier runs first (FIFO ties), so a process that skipped
  /// its own events can tell where they would have run relative to this
  /// one.
  SimTime scheduled_at() const noexcept { return scheduled_at_; }

  /// Schedule `action` at absolute time `t`. Precondition: t >= now().
  template <typename F>
  EventId schedule_at(SimTime t, F&& action) {
    DQCSIM_EXPECTS_MSG(t >= now_, "cannot schedule an event in the past");
    return queue_.schedule(t, std::forward<F>(action), now_);
  }

  /// Schedule `action` after a nonnegative delay relative to now().
  template <typename F>
  EventId schedule_in(SimTime delay, F&& action) {
    DQCSIM_EXPECTS_MSG(delay >= 0.0, "delay must be nonnegative");
    return queue_.schedule(now_ + delay, std::forward<F>(action), now_);
  }

  /// Cancel a pending event; no-op if already fired. Returns true if pending.
  bool cancel(EventId id) noexcept { return queue_.cancel(id); }

  /// Execute the single earliest pending event. Returns false if none.
  bool step();

  /// Run until the queue is empty or `max_events` have fired.
  /// Returns the number of events executed.
  std::size_t run(std::size_t max_events = kNoEventLimit);

  /// Run events with time <= t_end, then advance the clock to exactly t_end.
  /// Returns the number of events executed.
  std::size_t run_until(SimTime t_end);

  /// True when no pending events remain.
  bool idle() const noexcept { return queue_.empty(); }

  /// Time of the earliest pending event (the instant the next step() would
  /// advance the clock to). Precondition: !idle(). Non-const: may settle
  /// the queue's dispatch window past cancelled entries.
  SimTime next_event_time() { return queue_.next_time(); }

  /// Number of pending events.
  std::size_t pending_events() const noexcept { return queue_.size(); }

  /// Total number of events executed since construction (or last reset()).
  std::size_t executed_events() const noexcept { return executed_; }

  /// Drop all pending events and rewind the clock to 0, retaining the event
  /// pool's capacity. Must not be called from inside an event callback.
  void reset() noexcept {
    queue_.reset();
    now_ = 0.0;
    scheduled_at_ = 0.0;
    executed_ = 0;
  }

  /// The underlying queue (introspection for tests and benchmarks).
  const EventQueue& queue() const noexcept { return queue_; }

  /// Pre-grow the event pool (see EventQueue::reserve).
  void reserve_events(std::size_t events) { queue_.reserve(events); }

  static constexpr std::size_t kNoEventLimit = ~std::size_t{0};

 private:
  EventQueue queue_;
  SimTime now_ = 0.0;
  SimTime scheduled_at_ = 0.0;
  std::size_t executed_ = 0;
};

}  // namespace dqcsim::des
