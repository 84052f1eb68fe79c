/// Unit tests for the discrete-event simulation kernel: ordering and clock
/// semantics, plus the pooled-event store's edge cases (eager cancellation,
/// cancel-during-dispatch, pool reuse across reset(), oversized-closure
/// fallback, and the bounded-memory guarantee that replaced the old
/// tombstone-accumulating lazy cancellation).

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "des/event_queue.hpp"
#include "des/simulator.hpp"

namespace dqcsim::des {
namespace {

/// Fire every pending event in order.
void drain(EventQueue& q) {
  while (!q.empty()) q.dispatch_next();
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(3.0, [&] { fired.push_back(3); });
  q.schedule(1.0, [&] { fired.push_back(1); });
  q.schedule(2.0, [&] { fired.push_back(2); });
  drain(q);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakFifo) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    q.schedule(1.0, [&fired, i] { fired.push_back(i); });
  }
  drain(q);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, TiesBreakFifoUnderInterleavedCancels) {
  // Cancelling entries between equal-time inserts must not disturb the
  // FIFO order of the survivors (the heap swap-with-last removal is
  // order-restoring because ordering is (time, seq), not position).
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 12; ++i) {
    ids.push_back(q.schedule(1.0, [&fired, i] { fired.push_back(i); }));
  }
  for (int i = 0; i < 12; i += 3) EXPECT_TRUE(q.cancel(ids[i]));
  drain(q);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 4, 5, 7, 8, 10, 11}));
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelUnknownIdIsNoop) {
  EventQueue q;
  q.schedule(1.0, [] {});
  EXPECT_FALSE(q.cancel(999));
  EXPECT_FALSE(q.cancel(0));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelledEventSkippedOnPop) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(1.0, [&] { fired.push_back(1); });
  const EventId id = q.schedule(2.0, [&] { fired.push_back(2); });
  q.schedule(3.0, [&] { fired.push_back(3); });
  q.cancel(id);
  drain(q);
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueue, CancelOfFiredEventIsNoop) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  q.dispatch_next();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, StaleHandleAfterSlotReuseIsNoop) {
  // After an event fires, its slot is recycled for the next schedule; the
  // old handle must not cancel the new occupant (generation mismatch).
  EventQueue q;
  const EventId stale = q.schedule(1.0, [] {});
  q.dispatch_next();
  bool fired = false;
  q.schedule(2.0, [&] { fired = true; });
  EXPECT_FALSE(q.cancel(stale));
  drain(q);
  EXPECT_TRUE(fired);
}

TEST(EventQueue, CancelDuringDispatch) {
  EventQueue q;
  std::vector<int> fired;
  EventId self = 0;
  EventId other = 0;
  other = q.schedule(2.0, [&] { fired.push_back(2); });
  self = q.schedule(1.0, [&] {
    fired.push_back(1);
    // Cancelling the event currently dispatching is a no-op...
    EXPECT_FALSE(q.cancel(self));
    // ...while cancelling another pending event takes effect immediately.
    EXPECT_TRUE(q.cancel(other));
  });
  drain(q);
  EXPECT_EQ(fired, (std::vector<int>{1}));
}

TEST(EventQueue, CallbackMayScheduleDuringDispatch) {
  EventQueue q;
  std::vector<double> fired;
  q.schedule(1.0, [&] {
    fired.push_back(1.0);
    // Re-entrant scheduling may grow the pool while this callback executes
    // from its own (stable) slot.
    for (int i = 0; i < 1000; ++i) {
      q.schedule(2.0 + i, [&fired, i] {
        if (i == 0) fired.push_back(2.0);
      });
    }
  });
  drain(q);
  ASSERT_EQ(fired.size(), 2u);
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  q.schedule(5.0, [] {});
  q.schedule(2.5, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 2.5);
}

TEST(EventQueue, RejectsInvalidTimes) {
  EventQueue q;
  EXPECT_THROW(q.schedule(-1.0, [] {}), PreconditionError);
  EXPECT_THROW(q.schedule(std::numeric_limits<double>::infinity(), [] {}),
               PreconditionError);
  EXPECT_THROW(q.schedule(std::numeric_limits<double>::quiet_NaN(), [] {}),
               PreconditionError);
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.dispatch_next(), PreconditionError);
  EXPECT_THROW(q.next_time(), PreconditionError);
}

// ---------------------------------------------------- pooled-event store ----

TEST(EventPool, CancelHeavyWorkloadStaysBounded) {
  // Regression for the old lazy-cancellation design: cancelled entries were
  // only purged when they reached the top of the priority queue, so a
  // schedule-then-cancel pattern (e.g. purification cutoff timers that are
  // usually cancelled early) grew the heap without bound. The indexed heap
  // removes entries eagerly: memory stays at the live high-water mark.
  EventQueue q;
  constexpr int kWave = 64;
  std::array<EventId, kWave> ids{};
  for (int round = 0; round < 10000; ++round) {
    for (int i = 0; i < kWave; ++i) {
      // Far-future events: under lazy cancellation none would ever surface.
      ids[static_cast<std::size_t>(i)] =
          q.schedule(1e9 + round, [] {});
    }
    for (const EventId id : ids) EXPECT_TRUE(q.cancel(id));
  }
  EXPECT_EQ(q.size(), 0u);
  // 640k schedule/cancel cycles must not grow the store past one slab block
  // (the live count never exceeds kWave <= 256), and the dead-entry
  // compaction must keep the index bounded too.
  EXPECT_EQ(q.pool_blocks(), 1u);
  EXPECT_LE(q.pool_slots(), 256u);
  EXPECT_LE(q.index_entries(), 2048u);
  EXPECT_EQ(q.oversized_allocations(), 0u);
}

TEST(EventPool, CancelHeavyWithSurvivorsStaysOrderedAndBounded) {
  // Interleave cancels with survivors across compaction sweeps: ordering
  // must hold and all survivors must fire exactly once.
  EventQueue q;
  std::size_t fired = 0;
  double last_time = -1.0;
  std::size_t scheduled_survivors = 0;
  for (int round = 0; round < 2000; ++round) {
    std::vector<EventId> doomed;
    for (int i = 0; i < 50; ++i) {
      doomed.push_back(q.schedule(1e6 + round, [] { FAIL(); }));
    }
    const double t = static_cast<double>(round);
    q.schedule(t, [&fired, &last_time, t] {
      EXPECT_GE(t, last_time);
      last_time = t;
      ++fired;
    });
    ++scheduled_survivors;
    for (const EventId id : doomed) EXPECT_TRUE(q.cancel(id));
    if (round % 3 == 0) q.dispatch_next();
  }
  while (!q.empty()) q.dispatch_next();
  EXPECT_EQ(fired, scheduled_survivors);
  EXPECT_LE(q.index_entries(), 2048u);
}

TEST(EventPool, ReuseAcrossResetKeepsCapacity) {
  EventQueue q;
  auto churn = [&q] {
    for (int i = 0; i < 2000; ++i) {
      q.schedule(static_cast<double>(i % 97), [] {});
    }
    drain(q);
  };
  churn();
  const std::size_t blocks = q.pool_blocks();
  const std::size_t slots = q.pool_slots();
  ASSERT_GT(blocks, 0u);
  for (int trial = 0; trial < 5; ++trial) {
    q.reset();
    churn();
    // Steady state: identical workloads never grow the pool again.
    EXPECT_EQ(q.pool_blocks(), blocks);
    EXPECT_EQ(q.pool_slots(), slots);
  }
}

TEST(EventPool, ResetDestroysPendingCallbacks) {
  // Callback destructors must run on reset (no leaks of captured state).
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  EventQueue q;
  q.schedule(1.0, [token] { (void)*token; });
  token.reset();
  EXPECT_FALSE(watch.expired());
  q.reset();
  EXPECT_TRUE(watch.expired());
  EXPECT_TRUE(q.empty());
}

TEST(EventPool, OversizedClosureFallsBackToHeap) {
  EventQueue q;
  std::array<char, 128> big{};
  big[0] = 7;
  int observed = 0;
  q.schedule(1.0, [big, &observed] { observed = big[0]; });
  EXPECT_EQ(q.oversized_allocations(), 1u);
  drain(q);
  EXPECT_EQ(observed, 7);

  // Cancellation must destroy the boxed copy too (ASan would flag a leak).
  const EventId id = q.schedule(1.0, [big, &observed] { observed = 9; });
  EXPECT_EQ(q.oversized_allocations(), 2u);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(observed, 7);
}

TEST(EventPool, InlineCallbacksNeverBox) {
  EventQueue q;
  // The engine's hot callbacks capture at most a pointer + two indices.
  struct {
    void* self = nullptr;
    std::size_t a = 0, b = 0;
  } payload;
  for (int i = 0; i < 1000; ++i) {
    q.schedule(1.0, [payload] { (void)payload; });
  }
  EXPECT_EQ(q.oversized_allocations(), 0u);
  drain(q);
}

TEST(EventPool, ReserveWarmsThePool) {
  EventQueue q;
  q.reserve(1000);
  const std::size_t blocks = q.pool_blocks();
  EXPECT_GE(q.pool_slots(), 1000u);
  for (int i = 0; i < 1000; ++i) q.schedule(1.0, [] {});
  EXPECT_EQ(q.pool_blocks(), blocks);
  drain(q);
}

// -------------------------------------------------------------- simulator ----

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_at(2.0, [&] { times.push_back(sim.now()); });
  sim.schedule_at(1.0, [&] { times.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(5.0, [&] {
    sim.schedule_in(2.5, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Simulator, CannotScheduleInThePast) {
  Simulator sim;
  sim.schedule_at(5.0, [&] {
    EXPECT_THROW(sim.schedule_at(4.0, [] {}), PreconditionError);
    EXPECT_THROW(sim.schedule_in(-1.0, [] {}), PreconditionError);
  });
  sim.run();
}

TEST(Simulator, EventsCanChain) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 10) sim.schedule_in(1.0, tick);
  };
  sim.schedule_at(0.0, tick);
  sim.run();
  EXPECT_EQ(count, 10);
  EXPECT_DOUBLE_EQ(sim.now(), 9.0);
}

TEST(Simulator, ScheduledAtReportsWhenTheRunningEventWasQueued) {
  Simulator sim;
  std::vector<double> queued;
  sim.schedule_at(5.0, [&] {
    queued.push_back(sim.scheduled_at());  // queued at 0
    sim.schedule_in(0.0, [&] { queued.push_back(sim.scheduled_at()); });
  });
  sim.run_until(3.0);
  EXPECT_DOUBLE_EQ(sim.scheduled_at(), 3.0);  // outside a callback: now()
  sim.schedule_at(5.0, [&] { queued.push_back(sim.scheduled_at()); });
  sim.run();
  // FIFO at t = 5: the two events queued before 5 first, then the one
  // queued from inside the first.
  EXPECT_EQ(queued, (std::vector<double>{0.0, 3.0, 5.0}));
  EXPECT_DOUBLE_EQ(sim.scheduled_at(), 5.0);
}

TEST(Simulator, RunRespectsEventLimit) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) sim.schedule_at(i, [] {});
  EXPECT_EQ(sim.run(3), 3u);
  EXPECT_EQ(sim.pending_events(), 7u);
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.schedule_at(t, [&fired, t] { fired.push_back(t); });
  }
  sim.run_until(2.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(Simulator, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.run_until(42.0);
  EXPECT_DOUBLE_EQ(sim.now(), 42.0);
  EXPECT_THROW(sim.run_until(41.0), PreconditionError);
}

TEST(Simulator, StepReturnsFalseWhenIdle) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  EXPECT_TRUE(sim.idle());
  sim.schedule_at(1.0, [] {});
  EXPECT_FALSE(sim.idle());
  EXPECT_TRUE(sim.step());
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 5u);
}

TEST(Simulator, CancelledEventsDoNotRun) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, ResetRewindsClockAndDropsEvents) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(1.0, [] {});
  sim.run();
  sim.schedule_at(5.0, [&] { fired = true; });
  sim.reset();
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.executed_events(), 0u);
  EXPECT_TRUE(sim.idle());
  // Scheduling at t < the pre-reset clock is legal again after reset.
  sim.schedule_at(0.5, [] {});
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_FALSE(fired);
}

TEST(Simulator, IdenticalReplayAfterReset) {
  // A reused simulator must reproduce a fresh one's behavior exactly —
  // the foundation of the reusable per-worker RunContext.
  auto script = [](Simulator& sim) {
    std::vector<double> fired;
    for (int i = 0; i < 50; ++i) {
      sim.schedule_at(static_cast<double>((i * 37) % 50),
                      [&fired, &sim] { fired.push_back(sim.now()); });
    }
    sim.run();
    return fired;
  };
  Simulator fresh;
  const auto expected = script(fresh);
  Simulator reused;
  (void)script(reused);
  reused.reset();
  EXPECT_EQ(script(reused), expected);
}

}  // namespace
}  // namespace dqcsim::des
