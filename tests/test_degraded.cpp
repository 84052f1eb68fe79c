/// Engine-level tests for degraded-mode delivery under faults: mid-flight
/// pair salvage (swap-as-you-go and composed), boundary capacity
/// re-sharing, retry/backoff wiring, the link_stalled watchdog, the trial
/// sim-time budget, and the determinism contract for every new knob
/// combination (thread-count invariance under drift + outages).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "ent/link_params.hpp"
#include "expect_identical.hpp"
#include "net/topology.hpp"
#include "runtime/arch_config.hpp"
#include "runtime/engine.hpp"
#include "runtime/experiment.hpp"
#include "scenario/scenario.hpp"

namespace dqcsim::runtime {
namespace {

using dqcsim::Circuit;
using scenario::DriftField;
using scenario::DriftKind;
using scenario::DriftTrack;
using scenario::FailureBurst;
using scenario::Scenario;

RunResult run_once(const Circuit& qc, const std::vector<int>& nodes,
                   const ArchConfig& config, DesignKind design,
                   std::uint64_t seed = 1) {
  ExecutionEngine engine(qc, nodes, config, design, seed);
  return engine.run();
}

// ------------------------------------------------------------ validation ----

TEST(DegradedConfig, ReshareRequiresSharedCapacity) {
  ArchConfig config;
  config.num_nodes = 4;
  config.set_topology(net::Topology::ring(4));
  config.reshare_at_boundaries = true;
  EXPECT_THROW(config.validate(), ConfigError);
  config.share_edge_capacity = true;
  EXPECT_NO_THROW(config.validate());
}

TEST(DegradedConfig, ValidateCatchesBadKnobs) {
  ArchConfig config;
  config.stall_windows = -1;
  EXPECT_THROW(config.validate(), ConfigError);
  config.stall_windows = 0;
  config.max_trial_sim_time = 0.0;
  EXPECT_THROW(config.validate(), ConfigError);
  config.max_trial_sim_time = 1.0;
  EXPECT_NO_THROW(config.validate());
  config.retry_policy.kind = ent::RetryKind::Fixed;
  config.retry_policy.interval = -1.0;
  EXPECT_THROW(config.validate(), ConfigError);
}

// -------------------------------------------------------------- salvage -----

/// Chain(3) with qubit 0's wire busy on local work for ~30 time units, then
/// three serialized remote gates between the end nodes. The edge buffers
/// fill before the outage at t=15 severs the route; the remote gates only
/// become ready mid-outage, so they either salvage the pre-outage stock or
/// stall until the repair at t=2015.
Circuit salvage_circuit() {
  Circuit qc(6);
  for (int i = 0; i < 300; ++i) qc.h(0);  // 30 units on wire 0
  for (int i = 0; i < 3; ++i) qc.rzz(0, 4, 0.1);
  return qc;
}

ArchConfig salvage_config(bool swap_go, bool salvage) {
  ArchConfig config;
  config.num_nodes = 3;
  config.set_topology(net::Topology::chain(3));
  config.p_succ = 0.9;  // buffers fill within the first window or two
  Scenario scn;
  scn.link_outages.push_back({0, 1, 15.0, 2000.0});
  config.set_scenario(scn);
  config.swap_as_you_go = swap_go;
  config.salvage_pairs = salvage;
  return config;
}

TEST(Salvage, SwapGoServesSeveredRouteFromSurvivingStock) {
  const Circuit qc = salvage_circuit();
  const std::vector<int> nodes = {0, 0, 1, 1, 2, 2};

  const RunResult off = run_once(qc, nodes, salvage_config(true, false),
                                 DesignKind::AsyncBuf);
  const RunResult on = run_once(qc, nodes, salvage_config(true, true),
                                DesignKind::AsyncBuf);

  // Without salvage the gates stall until the repair window ends.
  EXPECT_EQ(off.pairs_salvaged, 0u);
  EXPECT_GT(off.depth, 2000.0);
  // With salvage every gate completes on pre-outage stock: all three pairs
  // are rescued and the trial ends orders of magnitude earlier.
  EXPECT_GE(on.pairs_salvaged, 3u);
  EXPECT_LT(on.depth, 100.0);
  // The route itself stays severed either way — salvage shortens the
  // trial, which is what bounds the accrued downtime.
  EXPECT_GT(off.outage_downtime, 10.0 * on.outage_downtime);
}

TEST(Salvage, SwapGoStockDiesWithADownNode) {
  // Same shape, but the *middle node* goes down: its stored halves are
  // lost (flushed and counted as discarded), so nothing can be salvaged.
  const Circuit qc = salvage_circuit();
  const std::vector<int> nodes = {0, 0, 1, 1, 2, 2};
  ArchConfig config = salvage_config(true, true);
  Scenario scn;
  scn.node_outages.push_back({1, 15.0, 2000.0});
  config.set_scenario(scn);

  const RunResult r = run_once(qc, nodes, config, DesignKind::AsyncBuf);
  EXPECT_EQ(r.pairs_salvaged, 0u);
  EXPECT_GT(r.pairs_discarded, 0u);
  EXPECT_GT(r.depth, 2000.0);  // gates wait for the node to come back
}

TEST(Salvage, ComposedModeCountsSalvageWithoutChangingResults) {
  // The composed engine never discards stock at boundaries, so the knob is
  // pure accounting there: bit-identical depth/fidelity, with consumption
  // while routeless now reported as salvage.
  const Circuit qc = salvage_circuit();
  const std::vector<int> nodes = {0, 0, 1, 1, 2, 2};

  const RunResult off = run_once(qc, nodes, salvage_config(false, false),
                                 DesignKind::AsyncBuf);
  const RunResult on = run_once(qc, nodes, salvage_config(false, true),
                                DesignKind::AsyncBuf);
  EXPECT_EQ(off.depth, on.depth);
  EXPECT_EQ(off.fidelity, on.fidelity);
  EXPECT_EQ(off.epr_attempts, on.epr_attempts);
  EXPECT_EQ(off.pairs_salvaged, 0u);
  EXPECT_GE(on.pairs_salvaged, 3u);
}

// -------------------------------------------------------------- reshare -----

/// Ring(6) with two *disjoint* two-hop links (0-2 via 0-1-2, 3-5 via
/// 3-4-5): at t=0 every edge load is 1, so t=0 shares equal the full
/// budget. A long outage on edge {4, 5} then detours 3-5 onto
/// 3-2-1-0-5, which shares edges {1, 2} and {0, 1} with the 0-2 link.
Circuit disjoint_then_overlapping_circuit() {
  Circuit qc(12);
  for (int rep = 0; rep < 20; ++rep) {
    qc.rzz(0, 4, 0.1);   // nodes 0-2
    qc.rzz(6, 10, 0.1);  // nodes 3-5
  }
  return qc;
}

TEST(Reshare, BoundaryReshareThrottlesRoutesSharingASurvivingEdge) {
  const Circuit qc = disjoint_then_overlapping_circuit();
  const std::vector<int> nodes = {0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5};
  ArchConfig frozen;
  frozen.num_nodes = 6;
  frozen.set_topology(net::Topology::ring(6));
  frozen.share_edge_capacity = true;
  Scenario scn;
  scn.link_outages.push_back({4, 5, 15.0, 1500.0});
  frozen.set_scenario(scn);
  ArchConfig reshared = frozen;
  reshared.reshare_at_boundaries = true;

  const RunResult a = run_once(qc, nodes, frozen, DesignKind::AsyncBuf);
  const RunResult b = run_once(qc, nodes, reshared, DesignKind::AsyncBuf);
  // Frozen shares keep both links drawing their full t=0 budgets over the
  // now-shared edges; resharing shrinks the comm-pair grants for the
  // whole fault window, so strictly fewer generation attempts run.
  EXPECT_LT(b.epr_attempts, a.epr_attempts);
  EXPECT_GT(b.reroutes, 0u);
}

// -------------------------------------------------------- retry/watchdog ----

TEST(RetryKnob, BackoffReducesProbingOnAFailingLink) {
  // Backoff changes the attempt *rate*, not the attempts-per-success law
  // (the Bernoulli stream per pair is untouched), so the observable is
  // probing over a fixed sim-time horizon on a link that effectively
  // never succeeds: every-window probes each cycle, backoff stretches
  // the gaps up to the ceiling.
  Circuit qc(4);
  qc.rzz(0, 2, 0.1);
  const std::vector<int> nodes = {0, 0, 1, 1};
  ArchConfig every;
  every.num_nodes = 2;
  every.set_topology(net::Topology::chain(2));
  every.p_succ = 1e-7;  // dead-in-practice link
  every.max_trial_sim_time = 2000.0;
  ArchConfig backoff = every;
  backoff.retry_policy.kind = ent::RetryKind::ExponentialBackoff;
  backoff.retry_policy.interval = backoff.lat.epr_cycle;
  backoff.retry_policy.growth = 2.0;
  backoff.retry_policy.max_interval = 16.0 * backoff.lat.epr_cycle;

  const RunResult a = run_once(qc, nodes, every, DesignKind::AsyncBuf);
  const RunResult b = run_once(qc, nodes, backoff, DesignKind::AsyncBuf);
  EXPECT_TRUE(a.truncated);
  EXPECT_TRUE(b.truncated);
  EXPECT_GT(a.epr_attempts, 2u * b.epr_attempts);
  EXPECT_GT(b.epr_attempts, 0u);
}

TEST(StallWatchdog, LongOutageTripsTheWatchdog) {
  Circuit qc(4);
  for (int i = 0; i < 10; ++i) qc.rzz(0, 2, 0.1);
  const std::vector<int> nodes = {0, 0, 1, 1};
  ArchConfig config;
  config.num_nodes = 2;
  config.set_topology(net::Topology::chain(2));
  Scenario scn;
  scn.link_outages.push_back({0, 1, 12.0, 200.0});
  config.set_scenario(scn);

  // Watchdog off: nothing reported.
  const RunResult off = run_once(qc, nodes, config, DesignKind::AsyncBuf);
  EXPECT_EQ(off.links_stalled, 0u);

  // A 200-unit success drought beats 10 attempt windows (100 units).
  config.stall_windows = 10;
  const RunResult tight = run_once(qc, nodes, config, DesignKind::AsyncBuf);
  EXPECT_EQ(tight.links_stalled, 1u);
  // The watchdog is observation only: identical trial results.
  EXPECT_EQ(off.depth, tight.depth);
  EXPECT_EQ(off.fidelity, tight.fidelity);

  // A lenient threshold stays quiet.
  config.stall_windows = 50;
  const RunResult loose = run_once(qc, nodes, config, DesignKind::AsyncBuf);
  EXPECT_EQ(loose.links_stalled, 0u);
}

TEST(StallWatchdog, TruncatedDeadLinkTripsTheWatchdog) {
  // The gates that can run finish early; the dead link's success drought
  // runs on to the budget, where the truncated trial ends. The watchdog
  // measures the open gap up to there, not up to the last event.
  Circuit qc(4);
  qc.rzz(0, 2, 0.1);
  const std::vector<int> nodes = {0, 0, 1, 1};
  ArchConfig config;
  config.p_succ = 1e-7;  // dead-in-practice link
  config.max_trial_sim_time = 2000.0;
  config.stall_windows = 10;
  const RunResult r = run_once(qc, nodes, config, DesignKind::AsyncBuf);
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.links_stalled, 1u);
}

// ------------------------------------------------------------ truncation ----

TEST(Truncation, PermanentOutageTerminatesAtTheBudget) {
  Circuit qc(4);
  qc.rzz(0, 2, 0.1);
  const std::vector<int> nodes = {0, 0, 1, 1};
  ArchConfig config;
  config.num_nodes = 2;
  config.set_topology(net::Topology::chain(2));
  Scenario scn;
  scn.link_outages.push_back({0, 1, 0.0, 1e9});  // down from t=0, forever
  config.set_scenario(scn);
  config.max_trial_sim_time = 500.0;

  const RunResult r = run_once(qc, nodes, config, DesignKind::AsyncBuf);
  EXPECT_TRUE(r.truncated);
  // Depth reports the budget horizon (local-CNOT latency is 1.0) and the
  // severed link accrued downtime over the whole truncated trial.
  EXPECT_DOUBLE_EQ(r.depth, 500.0);
  EXPECT_DOUBLE_EQ(r.outage_downtime, 500.0);
}

TEST(Truncation, ParkedStationaryServiceTruncatesAtTheBudget) {
  // A state-teleported gate needs two pairs, but one buffer qubit per node
  // holds one: the lazy service parks on its full buffer with no event, so
  // the queue empties long before the budget. That counts as reaching it.
  Circuit qc(4);
  qc.rzz(0, 2, 0.1);
  const std::vector<int> nodes = {0, 0, 1, 1};
  ArchConfig config;
  config.buffer_per_node = 1;
  config.remote_impl = RemoteImpl::StateTeleport;
  config.max_trial_sim_time = 500.0;
  for (const DesignKind design :
       {DesignKind::SyncBuf, DesignKind::AsyncBuf, DesignKind::InitBuf}) {
    SCOPED_TRACE(design_name(design));
    const RunResult r = run_once(qc, nodes, config, design);
    EXPECT_TRUE(r.truncated);
    EXPECT_DOUBLE_EQ(r.depth, 500.0);
    EXPECT_GT(r.fidelity, 0.0);
  }
}

TEST(Truncation, NeverSucceedingStationaryLinkTruncatesAtTheBudget) {
  // p_succ = 1e-25 saturates every geometric draw: no pair ever succeeds,
  // so the lazy services schedule nothing at all. (init_buf's pre-filled
  // buffer would serve the one remote gate.)
  Circuit qc(4);
  qc.rzz(0, 2, 0.1);
  const std::vector<int> nodes = {0, 0, 1, 1};
  ArchConfig config;
  config.p_succ = 1e-25;
  config.max_trial_sim_time = 500.0;
  for (const DesignKind design :
       {DesignKind::Original, DesignKind::SyncBuf, DesignKind::AsyncBuf,
        DesignKind::AdaptBuf}) {
    SCOPED_TRACE(design_name(design));
    const RunResult r = run_once(qc, nodes, config, design);
    EXPECT_TRUE(r.truncated);
    EXPECT_DOUBLE_EQ(r.depth, 500.0);
    EXPECT_EQ(r.epr_successes, 0u);
    // Every window up to the budget was attempted: 10 pairs, 50 windows.
    EXPECT_EQ(r.epr_attempts, 500u);
  }
}

TEST(Truncation, GenerousBudgetIsBitIdenticalToNoBudget) {
  Circuit qc(4);
  for (int i = 0; i < 6; ++i) qc.rzz(0, 2, 0.1);
  const std::vector<int> nodes = {0, 0, 1, 1};
  ArchConfig unbounded;
  unbounded.num_nodes = 2;
  unbounded.set_topology(net::Topology::chain(2));
  ArchConfig bounded = unbounded;
  bounded.max_trial_sim_time = 1e9;

  for (const DesignKind design : distributed_designs()) {
    SCOPED_TRACE(design_name(design));
    const RunResult a = run_once(qc, nodes, unbounded, design);
    const RunResult b = run_once(qc, nodes, bounded, design);
    EXPECT_FALSE(b.truncated);
    expect_identical(a, b);
  }
}

// ----------------------------------------------------------- determinism ----

/// 8 qubits over 4 nodes with remote traffic on four node pairs.
Circuit four_node_circuit() {
  Circuit qc(8);
  for (int rep = 0; rep < 3; ++rep) {
    qc.rzz(1, 2, 0.1);  // nodes 0-1
    qc.rzz(3, 4, 0.1);  // nodes 1-2
    qc.rzz(5, 6, 0.1);  // nodes 2-3
    qc.rzz(7, 0, 0.1);  // nodes 3-0
    qc.rzz(0, 1, 0.1);  // local on node 0
    qc.h(2);
  }
  return qc;
}

/// Drift + deterministic and stochastic outages, exercising every scenario
/// component the degraded knobs interact with.
Scenario faulty_scenario() {
  Scenario scn;
  DriftTrack walk;
  walk.field = DriftField::PSucc;
  walk.kind = DriftKind::RandomWalk;
  walk.walk_interval = 25.0;
  walk.walk_step = 0.15;
  scn.drift.push_back(walk);
  scn.link_outages.push_back({1, 2, 60.0, 40.0});
  scn.node_outages.push_back({3, 150.0, 30.0});
  scn.random_failures.mtbf = 500.0;
  scn.random_failures.duration = 35.0;
  return scn;
}

TEST(DegradedDeterminism, EveryKnobComboIsThreadCountInvariant) {
  const Circuit qc = four_node_circuit();
  const std::vector<int> nodes = {0, 0, 1, 1, 2, 2, 3, 3};
  constexpr int kRuns = 6;
  constexpr std::uint64_t kSeed = 1200;

  struct Combo {
    const char* name;
    bool swap_go, salvage, share, reshare, retry, jitter;
    int stall;
    double budget;
  };
  const Combo combos[] = {
      {"salvage_swap_go", true, true, false, false, false, false, 0, 1e18},
      {"salvage_composed", false, true, false, false, false, false, 0, 1e18},
      {"reshare", false, false, true, true, false, false, 0, 1e18},
      {"retry_jitter", false, false, false, false, true, true, 0, 1e18},
      {"stall_budget", false, false, false, false, false, false, 5, 900.0},
      {"all_swap_go", true, true, false, false, true, true, 5, 900.0},
      {"all_composed", false, true, true, true, true, true, 5, 900.0},
  };
  for (const Combo& combo : combos) {
    ArchConfig config;
    config.num_nodes = 4;
    config.set_topology(net::Topology::ring(4));
    config.set_scenario(faulty_scenario());
    config.swap_as_you_go = combo.swap_go;
    config.salvage_pairs = combo.salvage;
    config.share_edge_capacity = combo.share;
    config.reshare_at_boundaries = combo.reshare;
    if (combo.retry) {
      config.retry_policy.kind = ent::RetryKind::ExponentialBackoff;
      config.retry_policy.interval = config.lat.epr_cycle;
      config.retry_policy.growth = 2.0;
      config.retry_policy.max_interval = 8.0 * config.lat.epr_cycle;
      config.retry_policy.attempt_cutoff = 6;
      if (combo.jitter) config.retry_policy.jitter = 0.3;
    }
    config.stall_windows = combo.stall;
    config.max_trial_sim_time = combo.budget;
    for (const DesignKind design : distributed_designs()) {
      const AggregateResult serial =
          run_design(qc, nodes, config, design, kRuns, kSeed, /*threads=*/1);
      for (const int threads : {0, 2, 4}) {
        SCOPED_TRACE(std::string(combo.name) + " " + design_name(design) +
                     " @ " + std::to_string(threads) + " threads");
        const AggregateResult parallel =
            run_design(qc, nodes, config, design, kRuns, kSeed, threads);
        expect_identical(serial, parallel);
      }
    }
  }
}

}  // namespace
}  // namespace dqcsim::runtime
