/// Unit tests for the entanglement layer: link parameters, buffer pool,
/// generation service (sync/async, buffered/on-demand), arrival traces.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <tuple>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "des/simulator.hpp"
#include "ent/buffer_pool.hpp"
#include "ent/generation_service.hpp"
#include "ent/link_params.hpp"
#include "ent/trace.hpp"
#include "obs/trace.hpp"

namespace dqcsim::ent {
namespace {

LinkParams paper_link() {
  LinkParams link;  // defaults match the paper's Table II configuration
  return link;
}

// ------------------------------------------------------------ LinkParams ----

TEST(LinkParams, DefaultsAreValid) { EXPECT_NO_THROW(paper_link().validate()); }

TEST(LinkParams, ValidateCatchesEveryBadField) {
  const auto expect_bad = [](auto mutate) {
    LinkParams link;
    mutate(link);
    EXPECT_THROW(link.validate(), ConfigError);
  };
  expect_bad([](LinkParams& l) { l.num_comm_pairs = 0; });
  expect_bad([](LinkParams& l) { l.buffer_capacity = -1; });
  expect_bad([](LinkParams& l) { l.p_succ = 0.0; });
  expect_bad([](LinkParams& l) { l.p_succ = 1.5; });
  expect_bad([](LinkParams& l) { l.cycle_time = 0.0; });
  expect_bad([](LinkParams& l) { l.swap_latency = -1.0; });
  expect_bad([](LinkParams& l) { l.f0 = 0.1; });
  expect_bad([](LinkParams& l) { l.kappa = -0.1; });
  expect_bad([](LinkParams& l) { l.cutoff = 0.0; });
  expect_bad([](LinkParams& l) { l.async_subgroups = 0; });
}

// ------------------------------------------------------------ BufferPool ----

TEST(BufferPool, DepositAndPopFifo) {
  BufferPool pool(4, 0.99, 0.002, 1e9);
  EXPECT_TRUE(pool.deposit(1.0));
  EXPECT_TRUE(pool.deposit(2.0));
  const auto pair = pool.pop_oldest(3.0);
  ASSERT_TRUE(pair.has_value());
  EXPECT_DOUBLE_EQ(pair->deposited, 1.0);
  EXPECT_EQ(pool.size(3.0), 1u);
}

TEST(BufferPool, PopFreshestTakesNewest) {
  BufferPool pool(4, 0.99, 0.002, 1e9);
  pool.deposit(1.0);
  pool.deposit(2.0);
  pool.deposit(5.0);
  const auto pair = pool.pop_freshest(6.0);
  ASSERT_TRUE(pair.has_value());
  EXPECT_DOUBLE_EQ(pair->deposited, 5.0);
}

TEST(BufferPool, PopViaOrderEnum) {
  BufferPool pool(4, 0.99, 0.002, 1e9);
  pool.deposit(1.0);
  pool.deposit(2.0);
  EXPECT_DOUBLE_EQ(pool.pop(3.0, ConsumeOrder::FreshestFirst)->deposited, 2.0);
  EXPECT_DOUBLE_EQ(pool.pop(3.0, ConsumeOrder::OldestFirst)->deposited, 1.0);
}

TEST(BufferPool, CapacityRejectsOverflow) {
  BufferPool pool(2, 0.99, 0.002, 1e9);
  EXPECT_TRUE(pool.deposit(1.0));
  EXPECT_TRUE(pool.deposit(1.0));
  EXPECT_FALSE(pool.deposit(1.0));
  EXPECT_EQ(pool.total_rejected(), 1u);
  EXPECT_TRUE(pool.full(1.0));
}

TEST(BufferPool, PopOnEmptyReturnsNullopt) {
  BufferPool pool(2, 0.99, 0.002, 1e9);
  EXPECT_FALSE(pool.pop_oldest(0.0).has_value());
  EXPECT_FALSE(pool.pop_freshest(0.0).has_value());
}

TEST(BufferPool, CutoffExpiresOldPairs) {
  BufferPool pool(4, 0.99, 0.002, /*cutoff=*/10.0);
  pool.deposit(0.0);
  pool.deposit(5.0);
  EXPECT_EQ(pool.size(9.0), 2u);
  EXPECT_EQ(pool.size(11.0), 1u);  // the t=0 pair exceeded the cutoff
  EXPECT_EQ(pool.total_expired(), 1u);
  const auto pair = pool.pop_oldest(12.0);
  ASSERT_TRUE(pair.has_value());
  EXPECT_DOUBLE_EQ(pair->deposited, 5.0);
}

TEST(BufferPool, ExpiryFreesCapacity) {
  BufferPool pool(1, 0.99, 0.002, 10.0);
  pool.deposit(0.0);
  EXPECT_FALSE(pool.deposit(5.0));
  EXPECT_TRUE(pool.deposit(20.0));  // the old pair expired
}

TEST(BufferPool, CountersAreConsistent) {
  BufferPool pool(2, 0.99, 0.002, 10.0);
  pool.deposit(0.0);
  pool.deposit(1.0);
  pool.pop_oldest(2.0);
  pool.deposit(15.0);  // expires the t=1 pair on access
  EXPECT_EQ(pool.total_deposited(), 3u);
  EXPECT_EQ(pool.total_consumed(), 1u);
  EXPECT_EQ(pool.total_expired(), 1u);
  EXPECT_EQ(pool.raw_size(), 1u);
}

TEST(BufferPool, FidelityAtAgeFollowsWernerDecay) {
  BufferPool pool(2, 0.99, 0.002, 1e9);
  EXPECT_DOUBLE_EQ(pool.fidelity_at_age(0.0), 0.99);
  const double expected =
      0.99 * std::exp(-2 * 0.002 * 25.0) + (1 - std::exp(-2 * 0.002 * 25.0)) / 4;
  EXPECT_DOUBLE_EQ(pool.fidelity_at_age(25.0), expected);
  EXPECT_THROW(pool.fidelity_at_age(-1.0), PreconditionError);
}

// ----------------------------------------------------- GenerationService ----

TEST(GenerationService, SyncCompletionsLandOnCycleGrid) {
  des::Simulator sim;
  Rng rng(1);
  LinkParams link = paper_link();
  link.p_succ = 1.0;  // every window succeeds
  link.swap_latency = 0.0;
  GenerationService service(sim, link, rng, ServiceMode::Buffered);
  service.start();
  sim.run_until(35.0);
  // Completions at t = 10, 20, 30 with 10 pairs each, capacity 10:
  // deposits beyond capacity are wasted.
  for (des::SimTime t : service.trace().arrivals()) {
    EXPECT_NEAR(std::fmod(t, link.cycle_time), 0.0, 1e-9);
  }
  EXPECT_EQ(service.available(35.0), 10u);
  service.stop();  // a parked service settles its waste at stop()
  EXPECT_GT(service.wasted_buffer_full(), 0u);
}

TEST(GenerationService, TraceOptOutSkipsRecordingOnly) {
  // Same physics with record_trace off: deposits, counters and buffer
  // occupancy are untouched; only the arrival log stays empty.
  LinkParams link = paper_link();
  link.p_succ = 1.0;

  des::Simulator sim_on;
  Rng rng_on(1);
  GenerationService on(sim_on, link, rng_on, ServiceMode::Buffered);
  on.start();
  sim_on.run_until(35.0);

  link.record_trace = false;
  des::Simulator sim_off;
  Rng rng_off(1);
  GenerationService off(sim_off, link, rng_off, ServiceMode::Buffered);
  off.start();
  sim_off.run_until(35.0);

  EXPECT_GT(on.trace().count(), 0u);
  EXPECT_EQ(off.trace().count(), 0u);
  EXPECT_EQ(on.attempts(), off.attempts());
  EXPECT_EQ(on.successes(), off.successes());
  EXPECT_EQ(on.wasted_buffer_full(), off.wasted_buffer_full());
  EXPECT_EQ(on.available(35.0), off.available(35.0));
}

TEST(GenerationService, TraceOptOutAppliesOnDemandToo) {
  LinkParams link = paper_link();
  link.p_succ = 1.0;
  link.record_trace = false;
  des::Simulator sim;
  Rng rng(1);
  GenerationService service(sim, link, rng, ServiceMode::OnDemand);
  service.start();
  sim.run_until(25.0);
  EXPECT_GT(service.successes(), 0u);
  EXPECT_EQ(service.trace().count(), 0u);
}

TEST(GenerationService, AsyncOffsetsAreStaggered) {
  des::Simulator sim;
  Rng rng(2);
  LinkParams link = paper_link();
  link.schedule = AttemptSchedule::Asynchronous;
  link.async_subgroups = 10;
  GenerationService service(sim, link, rng, ServiceMode::Buffered);
  // Pair p belongs to subgroup p%10 with offset p%10 * cycle/10.
  EXPECT_DOUBLE_EQ(service.offset_of(0), 0.0);
  EXPECT_DOUBLE_EQ(service.offset_of(3), 3.0);
  EXPECT_DOUBLE_EQ(service.offset_of(9), 9.0);
}

TEST(GenerationService, SubgroupCountControlsSpacing) {
  des::Simulator sim;
  Rng rng(2);
  LinkParams link = paper_link();
  link.schedule = AttemptSchedule::Asynchronous;
  link.async_subgroups = 4;  // the paper's Fig. 3 example
  GenerationService service(sim, link, rng, ServiceMode::Buffered);
  EXPECT_DOUBLE_EQ(service.offset_of(0), 0.0);
  EXPECT_DOUBLE_EQ(service.offset_of(1), 2.5);
  EXPECT_DOUBLE_EQ(service.offset_of(5), 2.5);  // wraps by subgroup
  EXPECT_DOUBLE_EQ(service.offset_of(3), 7.5);
}

TEST(GenerationService, SyncOffsetsAllZero) {
  des::Simulator sim;
  Rng rng(2);
  GenerationService service(sim, paper_link(), rng, ServiceMode::Buffered);
  for (int p = 0; p < 10; ++p) EXPECT_DOUBLE_EQ(service.offset_of(p), 0.0);
}

TEST(GenerationService, SuccessRateMatchesPSucc) {
  des::Simulator sim;
  Rng rng(3);
  LinkParams link = paper_link();
  link.buffer_capacity = 1000000;  // never reject
  GenerationService service(sim, link, rng, ServiceMode::Buffered);
  service.start();
  sim.run_until(10000.0);
  const double rate = static_cast<double>(service.successes()) /
                      static_cast<double>(service.attempts());
  EXPECT_NEAR(rate, link.p_succ, 0.02);
  // Throughput: num_pairs * p_succ / cycle pairs per unit time.
  const double expected_pairs = 10 * 0.4 / 10.0 * 10000.0;
  EXPECT_NEAR(static_cast<double>(service.successes()), expected_pairs,
              expected_pairs * 0.1);
}

TEST(GenerationService, BufferedArrivalsDelayedBySwap) {
  des::Simulator sim;
  Rng rng(4);
  LinkParams link = paper_link();
  link.p_succ = 1.0;
  link.swap_latency = 1.0;
  GenerationService service(sim, link, rng, ServiceMode::Buffered);
  service.start();
  sim.run_until(12.0);
  ASSERT_FALSE(service.trace().arrivals().empty());
  // Completion at 10, deposit at 11.
  EXPECT_DOUBLE_EQ(service.trace().arrivals().front(), 11.0);
}

TEST(GenerationService, OnDemandUnconsumedPairsAreWasted) {
  des::Simulator sim;
  Rng rng(5);
  LinkParams link = paper_link();
  link.p_succ = 1.0;
  GenerationService service(sim, link, rng, ServiceMode::OnDemand);
  service.set_arrival_handler([](des::SimTime) { return false; });
  service.start();
  sim.run_until(20.0);
  EXPECT_EQ(service.wasted_unconsumed(), service.successes());
  EXPECT_GT(service.successes(), 0u);
}

TEST(GenerationService, OnDemandConsumedPairsAreNotWasted) {
  des::Simulator sim;
  Rng rng(6);
  LinkParams link = paper_link();
  link.p_succ = 1.0;
  GenerationService service(sim, link, rng, ServiceMode::OnDemand);
  int consumed = 0;
  service.set_arrival_handler([&](des::SimTime) {
    ++consumed;
    return true;
  });
  service.start();
  sim.run_until(20.0);
  EXPECT_EQ(service.wasted_unconsumed(), 0u);
  EXPECT_EQ(static_cast<std::size_t>(consumed), service.successes());
}

TEST(GenerationService, PreFillTopsUpBuffer) {
  des::Simulator sim;
  Rng rng(7);
  GenerationService service(sim, paper_link(), rng, ServiceMode::Buffered);
  service.pre_fill_buffer();
  EXPECT_EQ(service.available(0.0), 10u);
}

TEST(GenerationService, PreFillRequiresBufferedMode) {
  des::Simulator sim;
  Rng rng(8);
  GenerationService service(sim, paper_link(), rng, ServiceMode::OnDemand);
  EXPECT_THROW(service.pre_fill_buffer(), PreconditionError);
}

TEST(GenerationService, StopCeasesGeneration) {
  des::Simulator sim;
  Rng rng(9);
  LinkParams link = paper_link();
  link.p_succ = 1.0;
  GenerationService service(sim, link, rng, ServiceMode::Buffered);
  service.start();
  sim.run_until(15.0);
  const std::size_t attempts_then = service.attempts();
  service.stop();
  sim.run(); // drain remaining events
  EXPECT_EQ(service.attempts(), attempts_then);
}

TEST(GenerationService, StartIsIdempotent) {
  des::Simulator sim;
  Rng rng(10);
  LinkParams link = paper_link();
  link.p_succ = 1.0;
  GenerationService service(sim, link, rng, ServiceMode::Buffered);
  service.start();
  service.start();
  sim.run_until(10.5);
  // Exactly one completion batch (10 pairs), not two.
  EXPECT_EQ(service.attempts(), 10u);
}

TEST(GenerationService, DeterministicForFixedSeed) {
  const auto run_once = [] {
    des::Simulator sim;
    Rng rng(77);
    GenerationService service(sim, paper_link(), rng, ServiceMode::Buffered);
    service.start();
    sim.run_until(500.0);
    return service.trace().arrivals();
  };
  EXPECT_EQ(run_once(), run_once());
}

// --------------------------------------------------------- ArrivalTrace ----

TEST(ArrivalTrace, BinsArrivals) {
  ArrivalTrace trace;
  trace.record(0.5);
  trace.record(1.5);
  trace.record(1.7);
  trace.record(9.0);
  const auto counts = trace.binned_counts(1.0, 10.0);
  ASSERT_EQ(counts.size(), 10u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[9], 1u);
}

TEST(ArrivalTrace, SyncIsBurstierThanAsync) {
  // The quantitative heart of the paper's Fig. 3: identical rates, very
  // different temporal patterns.
  const auto burstiness_of = [](AttemptSchedule schedule) {
    des::Simulator sim;
    Rng rng(42);
    LinkParams link;
    link.schedule = schedule;
    link.buffer_capacity = 1000000;
    link.swap_latency = 0.0;
    GenerationService service(sim, link, rng, ServiceMode::Buffered);
    service.start();
    sim.run_until(2000.0);
    return service.trace().burstiness(1.0, 2000.0);
  };
  const double sync = burstiness_of(AttemptSchedule::Synchronous);
  const double async = burstiness_of(AttemptSchedule::Asynchronous);
  EXPECT_GT(sync, 2.0 * async);
}

TEST(GenerationService, ResetReplaysIdentically) {
  // A reset service on a reset simulator must reproduce a fresh service's
  // event stream exactly — the contract the reusable RunContext rests on.
  des::Simulator sim;
  Rng rng(7);
  const LinkParams link = paper_link();
  const auto run_once = [&](GenerationService& service) {
    service.start();
    sim.run_until(200.0);
    service.stop();
    return std::tuple{service.attempts(), service.successes(),
                      service.trace().count(),
                      service.buffer().raw_size()};
  };
  GenerationService service(sim, link, rng, ServiceMode::Buffered);
  const auto first = run_once(service);
  sim.reset();
  rng = Rng(7);
  service.reset(link, ServiceMode::Buffered);
  EXPECT_EQ(service.attempts(), 0u);
  EXPECT_EQ(service.trace().count(), 0u);
  EXPECT_EQ(service.buffer().raw_size(), 0u);
  EXPECT_EQ(run_once(service), first);
}

TEST(GenerationService, ResetCanSwitchModeAndParams) {
  des::Simulator sim;
  Rng rng(3);
  GenerationService service(sim, paper_link(), rng, ServiceMode::Buffered);
  service.start();
  sim.run_until(100.0);
  service.stop();
  sim.reset();
  LinkParams narrow = paper_link();
  narrow.buffer_capacity = 2;
  service.reset(narrow, ServiceMode::OnDemand);
  EXPECT_EQ(service.mode(), ServiceMode::OnDemand);
  EXPECT_EQ(service.buffer().capacity(), 2u);
  std::size_t offered = 0;
  service.set_arrival_handler([&offered](des::SimTime) {
    ++offered;
    return true;
  });
  service.start();
  sim.run_until(100.0);
  EXPECT_EQ(offered, service.successes());
  EXPECT_EQ(service.wasted_unconsumed(), 0u);
}

TEST(ArrivalTrace, RejectsBadBins) {
  ArrivalTrace trace;
  trace.record(1.0);
  EXPECT_THROW(trace.binned_counts(0.0, 10.0), PreconditionError);
  EXPECT_THROW(trace.binned_counts(1.0, 0.0), PreconditionError);
  EXPECT_THROW(trace.record(-1.0), PreconditionError);
}

TEST(ArrivalTrace, BurstinessZeroWhenEmpty) {
  ArrivalTrace trace;
  EXPECT_DOUBLE_EQ(trace.burstiness(1.0, 10.0), 0.0);
}

// ----------------------------------------------- degraded-mode primitives ----

TEST(BufferPool, FlushDropsEverythingAndReportsCount) {
  BufferPool pool(4, 0.99, 0.002, 1e9);
  pool.deposit(1.0);
  pool.deposit(2.0);
  pool.deposit(3.0);
  EXPECT_EQ(pool.flush(4.0), 3u);
  EXPECT_EQ(pool.size(4.0), 0u);
  EXPECT_FALSE(pool.pop_oldest(4.0).has_value());
  EXPECT_TRUE(pool.deposit(5.0));  // pool remains usable
  EXPECT_EQ(pool.flush(6.0), 1u);
}

TEST(GenerationService, MaxDeliveryGapTracksSuccessDroughts) {
  LinkParams link = paper_link();
  link.p_succ = 1.0;
  link.num_comm_pairs = 1;
  link.buffer_capacity = 1;  // full buffer still counts as a success
  des::Simulator sim;
  Rng rng(1);
  GenerationService svc(sim, link, rng, ServiceMode::Buffered);
  EXPECT_DOUBLE_EQ(svc.max_delivery_gap(100.0), 0.0);  // not started
  svc.start();
  sim.run_until(95.0);
  svc.stop();  // the parked service settles its skipped successes
  // Every window succeeds: the widest gap is one cycle (start -> first).
  EXPECT_DOUBLE_EQ(svc.max_delivery_gap(sim.now()), link.cycle_time);

  // A service that never succeeds reports the whole span since start.
  LinkParams dead = link;
  dead.p_succ = 1e-12;
  des::Simulator sim2;
  Rng rng2(1);
  GenerationService never(sim2, dead, rng2, ServiceMode::Buffered);
  never.start();
  sim2.run_until(95.0);
  never.stop();
  EXPECT_DOUBLE_EQ(never.max_delivery_gap(sim2.now()), sim2.now());
}

// ------------------------------------------------- lazy generation (v4) ----

/// A down segment [from, until) of a service's effective link.
struct DownSegment {
  double from = 0.0;
  double until = 0.0;
};

/// Windows of a `link` service completed at or before `t` on the grid:
/// pair p's window n ends at first_p + n * cycle (first_p as in start()).
/// A window completing inside `down` is not attempted.
std::size_t grid_windows(const GenerationService& svc, const LinkParams& link,
                         double t, DownSegment down = {}) {
  std::size_t total = 0;
  for (int p = 0; p < link.num_comm_pairs; ++p) {
    const double offset = svc.offset_of(p);
    const double first = offset > 0.0 ? offset : link.cycle_time;
    for (double w = first; w <= t; w += link.cycle_time) {
      if (!(w >= down.from && w < down.until)) ++total;
    }
  }
  return total;
}

/// Push `down` to `svc` as two segment changes, queued before any of the
/// service's own events at the same instants.
void schedule_down_segment(des::Simulator& sim, GenerationService& svc,
                           const LinkParams& link, DownSegment down) {
  if (!(down.until > down.from)) return;
  sim.schedule_at(down.from, [&svc, link] {
    svc.set_effective({link.p_succ, link.f0, false});
  });
  sim.schedule_at(down.until, [&svc, link] {
    svc.set_effective({link.p_succ, link.f0, true});
  });
}

/// The per-window chain the lazy service replaces (replay format v1): one
/// DES event and one Bernoulli draw per pair per window, each success
/// SWAPped into a buffer that no consumer drains.
struct PerWindowRun {
  std::size_t events = 0;
  std::size_t attempts = 0;
  std::size_t successes = 0;
  std::size_t wasted = 0;
  double max_gap = 0.0;  ///< longest gap between successes, to the horizon
};

PerWindowRun run_per_window(const LinkParams& link, std::uint64_t seed,
                            double horizon) {
  des::Simulator sim;
  Rng rng(seed);
  BufferPool buffer(link.buffer_capacity, link.f0, link.kappa, link.cutoff);
  PerWindowRun run;
  double last_success = 0.0;
  std::function<void(int)> complete = [&](int pair) {
    const double now = sim.now();
    ++run.attempts;
    if (rng.bernoulli(link.p_succ)) {
      ++run.successes;
      run.max_gap = std::max(run.max_gap, now - last_success);
      last_success = now;
      sim.schedule_at(now + link.swap_latency, [&] {
        if (!buffer.deposit(sim.now(), link.f0)) ++run.wasted;
      });
    }
    sim.schedule_at(now + link.cycle_time, [&complete, pair] {
      complete(pair);
    });
  };
  const int groups = std::min(link.async_subgroups, link.num_comm_pairs);
  for (int p = 0; p < link.num_comm_pairs; ++p) {
    const double offset =
        link.schedule == AttemptSchedule::Synchronous
            ? 0.0
            : link.cycle_time * (p % groups) / static_cast<double>(groups);
    sim.schedule_at(offset > 0.0 ? offset : link.cycle_time,
                    [&complete, p] { complete(p); });
  }
  sim.run_until(horizon);
  run.events = sim.executed_events();
  run.max_gap = std::max(run.max_gap, horizon - last_success);
  return run;
}

TEST(LazyGeneration, ParkedServiceWithoutConsumerRunsNoEvents) {
  // No consumer: the buffer fills, then every success is waste. The
  // per-window chain pays one event per pair per window for the whole
  // horizon; the lazy service parks and pays O(successes until full).
  const LinkParams link = paper_link();
  // Off the window grid, so no success is still in its SWAP at stop().
  const double horizon = 1e4 * link.cycle_time + 5.0;
  des::Simulator sim;
  Rng rng(5);
  GenerationService svc(sim, link, rng, ServiceMode::Buffered);
  svc.start();
  sim.run_until(horizon);
  EXPECT_LT(sim.executed_events(), 5u * static_cast<std::size_t>(
                                            link.buffer_capacity));
  EXPECT_EQ(svc.available(horizon), 10u);
  svc.stop();
  EXPECT_EQ(svc.attempts(), 100000u);
  EXPECT_NEAR(static_cast<double>(svc.successes()), 0.4 * 100000.0, 1000.0);
  // Every success past the ten that filled the buffer was wasted.
  EXPECT_EQ(svc.wasted_buffer_full(), svc.successes() - 10u);

  const PerWindowRun eager = run_per_window(link, 5, horizon);
  EXPECT_GE(eager.events, 100000u);
  EXPECT_EQ(eager.attempts, svc.attempts());
  EXPECT_NEAR(static_cast<double>(eager.successes), 0.4 * 100000.0, 1000.0);
  EXPECT_EQ(eager.wasted, eager.successes - 10u);
}

TEST(LazyGeneration, AttemptsMidRunCountCompletedGridWindows) {
  LinkParams link = paper_link();
  link.schedule = AttemptSchedule::Asynchronous;
  link.async_subgroups = 4;
  // Stationary, then up -> down -> up with both edges on pair grids.
  for (const DownSegment down : {DownSegment{}, DownSegment{1000.0, 2502.5}}) {
    SCOPED_TRACE(down.from);
    des::Simulator sim;
    Rng rng(8);
    GenerationService svc(sim, link, rng, ServiceMode::Buffered);
    schedule_down_segment(sim, svc, link, down);
    svc.start();
    for (const double t : {0.5, 2.5, 9.99, 10.0, 123.4, 777.7, 1000.0, 1500.0,
                           2502.5, 5000.25}) {
      sim.run_until(t);  // the buffer is full and parked for most of these
      EXPECT_EQ(svc.attempts(), grid_windows(svc, link, t, down))
          << "t = " << t;
    }
    svc.stop();
    EXPECT_EQ(svc.attempts(), grid_windows(svc, link, 5000.25, down));
  }
}

TEST(LazyGeneration, SetEffectiveSettlesAParkedGapAtTheOldRate) {
  // Every window succeeds until the boundary at 95: the parked gap 20..90
  // holds eight successes that met the full buffer, all settled at p = 1
  // before the new p applies.
  LinkParams link = paper_link();
  link.p_succ = 1.0;
  link.num_comm_pairs = 1;
  link.buffer_capacity = 1;
  des::Simulator sim;
  Rng rng(2);
  GenerationService svc(sim, link, rng, ServiceMode::Buffered);
  sim.schedule_at(95.0, [&] { svc.set_effective({1e-12, link.f0, true}); });
  svc.start();
  sim.run_until(200.0);
  svc.stop();
  EXPECT_EQ(svc.successes(), 9u);  // t = 10, 20, ..., 90
  EXPECT_EQ(svc.wasted_buffer_full(), 8u);
  EXPECT_EQ(svc.attempts(), 20u);
}

TEST(LazyGeneration, F0OnlyChangeRedrawsNothing) {
  // A new f0 reaches the next deposit without touching the main stream.
  const auto run = [](bool drift) {
    LinkParams link = paper_link();
    link.buffer_capacity = 100;
    des::Simulator sim;
    Rng rng(9);
    GenerationService svc(sim, link, rng, ServiceMode::Buffered);
    if (drift) {
      sim.schedule_at(50.0,
                      [&] { svc.set_effective({link.p_succ, 0.9, true}); });
    }
    svc.start();
    sim.run_until(200.0);
    svc.stop();
    const BufferedPair freshest = *svc.pop(200.0, ConsumeOrder::FreshestFirst);
    return std::tuple(svc.successes(), freshest.deposited, freshest.f0, rng());
  };
  const auto [successes, deposited, f0, next_draw] = run(true);
  const auto [successes0, deposited0, f00, next_draw0] = run(false);
  EXPECT_EQ(successes, successes0);
  EXPECT_EQ(deposited, deposited0);
  EXPECT_EQ(next_draw, next_draw0);
  EXPECT_DOUBLE_EQ(f00, 0.99);
  EXPECT_DOUBLE_EQ(f0, 0.9);
}

TEST(LazyGeneration, FlushWakesAParkedService) {
  // Parked since the t = 20 herald; a node-outage flush at 95 empties the
  // buffer, and the t = 100 success refills it at 101.
  LinkParams link = paper_link();
  link.p_succ = 1.0;
  link.num_comm_pairs = 1;
  link.buffer_capacity = 1;
  des::Simulator sim;
  Rng rng(2);
  GenerationService svc(sim, link, rng, ServiceMode::Buffered);
  std::size_t flushed = 0;
  sim.schedule_at(95.0, [&] { flushed = svc.flush_buffer(95.0); });
  svc.start();
  sim.run_until(105.0);
  EXPECT_EQ(flushed, 1u);
  EXPECT_EQ(svc.wasted_buffer_full(), 8u);  // 20 .. 90 met a full buffer
  ASSERT_EQ(svc.trace().count(), 2u);
  EXPECT_DOUBLE_EQ(svc.trace().arrivals().back(), 101.0);
  EXPECT_EQ(svc.available(105.0), 1u);
}

TEST(LazyGeneration, PopWakesParkedServiceAndNextDepositLands) {
  LinkParams link = paper_link();
  link.p_succ = 1.0;
  link.num_comm_pairs = 1;
  link.buffer_capacity = 2;
  des::Simulator sim;
  Rng rng(2);
  GenerationService svc(sim, link, rng, ServiceMode::Buffered);
  svc.start();
  sim.run_until(95.0);  // deposits at 11 and 21, parked since t = 30
  ASSERT_EQ(svc.trace().count(), 2u);
  std::optional<BufferedPair> popped;
  sim.schedule_at(95.0, [&] {
    popped = svc.pop(95.0, ConsumeOrder::FreshestFirst);
  });
  sim.run_until(125.0);
  ASSERT_TRUE(popped.has_value());
  EXPECT_DOUBLE_EQ(popped->deposited, 21.0);
  // The wake replayed 30..90 as waste; the t = 100 success refills the slot.
  ASSERT_EQ(svc.trace().count(), 3u);
  EXPECT_DOUBLE_EQ(svc.trace().arrivals().back(), 101.0);
  EXPECT_EQ(svc.available(125.0), 2u);
  EXPECT_EQ(svc.wasted_buffer_full(), 7u);
  svc.stop();
  EXPECT_EQ(svc.successes(), 12u);  // t = 10, 20, ..., 120
  EXPECT_EQ(svc.wasted_buffer_full(), 9u);  // plus 110 and 120
}

TEST(LazyGeneration, PopWakeTieKeepsQueueOrder) {
  // A success heralded at 90 lands at 91, and a pop wakes the parked
  // service at exactly 91. The per-window chain queues that SWAP at its
  // herald, so FIFO ties order it against the pop's event by when each was
  // queued: a pop queued before 90 frees the slot first and the SWAP
  // deposits; a pop queued after 90 runs second and the SWAP is wasted.
  LinkParams link = paper_link();
  link.p_succ = 1.0;
  link.num_comm_pairs = 1;
  link.buffer_capacity = 1;
  for (const double queued_at : {0.0, 90.5}) {
    SCOPED_TRACE(queued_at);
    des::Simulator sim;
    Rng rng(2);
    GenerationService svc(sim, link, rng, ServiceMode::Buffered);
    svc.start();
    sim.run_until(queued_at);
    sim.schedule_at(91.0,
                    [&] { svc.pop(91.0, ConsumeOrder::FreshestFirst); });
    sim.run_until(95.0);
    if (queued_at < 90.0) {
      EXPECT_DOUBLE_EQ(svc.trace().arrivals().back(), 91.0);
      EXPECT_EQ(svc.available(95.0), 1u);
      EXPECT_EQ(svc.wasted_buffer_full(), 7u);  // 20 .. 80 met a full buffer
    } else {
      EXPECT_DOUBLE_EQ(svc.trace().arrivals().back(), 11.0);
      EXPECT_EQ(svc.available(95.0), 0u);
      EXPECT_EQ(svc.wasted_buffer_full(), 8u);  // 20 .. 90
    }
  }
}

TEST(LazyGeneration, PopWakeHeraldsWindowsQueuedBeforeThePop) {
  // A pop wakes the parked service at 100, the instant a success is due.
  // The per-window chain queued that window's event at 90: a pop queued
  // after 90 runs second, so the SWAP is queued ahead of the pop's own
  // follow-up at 101; a pop queued before 90 runs first, and its follow-up
  // runs before the SWAP lands.
  LinkParams link = paper_link();
  link.p_succ = 1.0;
  link.num_comm_pairs = 1;
  link.buffer_capacity = 1;
  for (const double queued_at : {95.0, 50.0}) {
    SCOPED_TRACE(queued_at);
    des::Simulator sim;
    Rng rng(2);
    GenerationService svc(sim, link, rng, ServiceMode::Buffered);
    svc.start();
    sim.run_until(queued_at);
    std::size_t seen_at_101 = 99;
    sim.schedule_at(100.0, [&] {
      svc.pop(100.0, ConsumeOrder::FreshestFirst);
      sim.schedule_at(101.0, [&] { seen_at_101 = svc.available(101.0); });
    });
    sim.run_until(105.0);
    EXPECT_EQ(seen_at_101, queued_at > 90.0 ? 1u : 0u);
    EXPECT_EQ(svc.available(105.0), 1u);  // the t = 100 success landed
    EXPECT_EQ(svc.successes(), 10u);      // t = 10, 20, ..., 100
  }
}

TEST(LazyGeneration, FiniteCutoffWakesAtExpiry) {
  LinkParams link = paper_link();
  link.p_succ = 1.0;
  link.num_comm_pairs = 1;
  link.buffer_capacity = 1;
  link.cutoff = 25.0;
  des::Simulator sim;
  Rng rng(3);
  GenerationService svc(sim, link, rng, ServiceMode::Buffered);
  svc.start();
  // t = 11 deposit fills the buffer; the t = 20 herald parks until the pair
  // expires just after 36; the 20 and 30 SWAPs were wasted, the t = 40
  // success deposits at 41 without any consumer.
  sim.run_until(45.0);
  ASSERT_EQ(svc.trace().count(), 2u);
  EXPECT_DOUBLE_EQ(svc.trace().arrivals().back(), 41.0);
  EXPECT_EQ(svc.buffer().total_expired(), 1u);
  EXPECT_EQ(svc.wasted_buffer_full(), 2u);
  // Pair deposits and expiry wakes only: no event per window.
  EXPECT_LT(sim.executed_events(), 10u);
}

TEST(LazyGeneration, TracedSpansCoverEveryWindow) {
  // Runs of failures become one GenFail span each and every success one
  // GenOk span, so the spans tile each pair's attempted windows exactly —
  // across parked stretches too, whose successes a wake or stop() settles
  // in bulk and places from the side stream (the last gap is ~1000
  // windows) — and no span covers a window of a down segment.
  LinkParams link = paper_link();
  link.schedule = AttemptSchedule::Asynchronous;
  link.buffer_capacity = 3;
  for (const DownSegment down : {DownSegment{}, DownSegment{1000.0, 2502.5}}) {
    SCOPED_TRACE(down.from);
    obs::TraceBuffer buf;
    buf.reset(1u << 16);
    des::Simulator sim;
    Rng rng(4);
    GenerationService svc(sim, link, rng, ServiceMode::Buffered);
    svc.set_trial_trace(&buf, 7);
    schedule_down_segment(sim, svc, link, down);
    svc.start();
    for (const double t : {250.0, 600.0, 610.0, 1400.0, 9000.0}) {
      sim.schedule_at(t, [&svc, t] {
        svc.pop(t, ConsumeOrder::FreshestFirst);
      });
    }
    sim.run_until(20003.5);
    svc.stop();
    std::size_t ok = 0;
    double covered = 0.0;
    for (const obs::TraceEvent& e : buf.events()) {
      if (e.ev != obs::Ev::GenOk && e.ev != obs::Ev::GenFail) continue;
      EXPECT_EQ(e.track, 7u);
      if (e.ev == obs::Ev::GenOk) ++ok;
      covered += e.t1 - e.t0;
      // The span's windows complete at t0 + cycle .. t1.
      EXPECT_TRUE(e.t1 < down.from || e.t0 + link.cycle_time >= down.until)
          << "span [" << e.t0 << ", " << e.t1 << "] in a down segment";
    }
    EXPECT_EQ(buf.dropped(), 0u);
    EXPECT_EQ(ok, svc.successes());
    EXPECT_DOUBLE_EQ(covered / link.cycle_time,
                     static_cast<double>(svc.attempts()));
    EXPECT_EQ(svc.attempts(), grid_windows(svc, link, 20003.5, down));
    // Bulk settles, not one event or walk step per success.
    EXPECT_GT(svc.successes(), 50u * sim.executed_events());
  }
}

TEST(LazyGeneration, GapTrackingNeverTouchesTheMainStream) {
  // Tracked, the bulk settle also places its successes from the side
  // stream; untracked it only counts. Either way the main stream, and so
  // every counter and the buffer, follow the same draws.
  const auto run = [](bool tracked, std::uint64_t side_seed) {
    des::Simulator sim;
    Rng rng(12);
    GenerationService svc(sim, paper_link(), rng, ServiceMode::Buffered);
    svc.set_gap_tracking(tracked, side_seed);
    svc.start();
    for (const double t : {300.0, 2000.0, 2000.5, 7777.0}) {
      sim.schedule_at(t, [&svc, t] {
        svc.pop(t, ConsumeOrder::FreshestFirst);
      });
    }
    sim.run_until(9000.25);
    svc.stop();
    if (tracked) {
      EXPECT_GT(svc.max_delivery_gap(sim.now()), 0.0);
    } else {
      EXPECT_THROW(svc.max_delivery_gap(sim.now()), PreconditionError);
    }
    return std::tuple(svc.attempts(), svc.successes(), svc.wasted_buffer_full(),
                      svc.available(sim.now()), sim.executed_events(), rng());
  };
  const auto off = run(false, 0);
  EXPECT_EQ(off, run(true, 0));
  EXPECT_EQ(off, run(true, 99));
}

TEST(LazyGeneration, BulkPlacementMatchesPerWindowGaps) {
  // A parked service with no consumer settles its whole horizon in stop(),
  // placing every success from the side stream. Its longest delivery gap
  // must match the per-window chain's in distribution, on the dense
  // placement path (p = 0.3: a pair places ~60 of ~200 windows) and on
  // the sparse one (p = 0.02), with two pairs on staggered grids.
  LinkParams link = paper_link();
  link.num_comm_pairs = 2;
  link.schedule = AttemptSchedule::Asynchronous;
  link.buffer_capacity = 1;
  for (const double p : {0.3, 0.02}) {
    SCOPED_TRACE(p);
    link.p_succ = p;
    const auto mean_and_se2 = [&](bool lazy) {
      constexpr int kTrials = 2000;
      double sum = 0.0;
      double sum2 = 0.0;
      for (int t = 0; t < kTrials; ++t) {
        const auto seed = static_cast<std::uint64_t>(t);
        double gap = 0.0;
        if (lazy) {
          des::Simulator sim;
          Rng rng(100 + seed);
          GenerationService svc(sim, link, rng, ServiceMode::Buffered);
          svc.set_gap_tracking(true, 7 + seed);
          svc.start();
          sim.run_until(2000.5);
          svc.stop();
          gap = svc.max_delivery_gap(sim.now());
        } else {
          gap = run_per_window(link, 100 + seed, 2000.5).max_gap;
        }
        sum += gap;
        sum2 += gap * gap;
      }
      const double mean = sum / kTrials;
      return std::pair{mean, (sum2 / kTrials - mean * mean) / kTrials};
    };
    const auto [lazy_mean, lazy_se2] = mean_and_se2(true);
    const auto [eager_mean, eager_se2] = mean_and_se2(false);
    EXPECT_LE(std::abs(lazy_mean - eager_mean),
              4.0 * std::sqrt(lazy_se2 + eager_se2))
        << lazy_mean << " vs " << eager_mean;
  }
}

TEST(LazyGeneration, OnDemandSkipsAheadWithoutParking) {
  LinkParams link = paper_link();
  link.schedule = AttemptSchedule::Asynchronous;  // one pair per instant
  des::Simulator sim;
  Rng rng(6);
  GenerationService svc(sim, link, rng, ServiceMode::OnDemand);
  std::size_t offered = 0;
  svc.set_arrival_handler([&offered](des::SimTime) {
    ++offered;
    return false;
  });
  svc.start();
  sim.run_until(10000.0);
  // One event per success (no failed-window events), every one offered.
  EXPECT_EQ(sim.executed_events(), svc.successes());
  EXPECT_EQ(offered, svc.successes());
  svc.stop();
  EXPECT_EQ(svc.wasted_unconsumed(), svc.successes());
}

}  // namespace
}  // namespace dqcsim::ent
