/// Engine-level tests for degraded-mode delivery under faults: mid-flight
/// pair salvage (swap-as-you-go and composed), the link_stalled watchdog,
/// the trial sim-time budget, and the determinism contract for every knob
/// combination (thread-count invariance under drift + outages).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
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
  return RunContext().execute(qc, nodes, config, design, seed);
}

// ------------------------------------------------------------ validation ----

TEST(DegradedConfig, ValidateCatchesBadKnobs) {
  ArchConfig config;
  config.stall_windows = -1;
  EXPECT_THROW(config.validate(), ConfigError);
  config.stall_windows = 0;
  config.max_trial_sim_time = 0.0;
  EXPECT_THROW(config.validate(), ConfigError);
  config.max_trial_sim_time = 1.0;
  EXPECT_NO_THROW(config.validate());
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

// -------------------------------------------------------------- watchdog ----

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

TEST(DeliverySetup, RejectsABufferBelowOneGatesPairs) {
  // A buffered service that holds fewer pairs than one remote gate
  // consumes can never serve that gate: it parks on its full buffer and
  // the trial stalls. Each delivery rejects such a service at setup, before
  // the first event, with or without a trial budget.
  Circuit qc(4);
  qc.rzz(0, 2, 0.1);
  const std::vector<int> nodes = {0, 0, 1, 1};
  ArchConfig state_tp;  // (a) two pairs per gate, one buffer slot per link
  state_tp.buffer_per_node = 1;
  state_tp.remote_impl = RemoteImpl::StateTeleport;
  ArchConfig purify;  // (b) two raw pairs per purified gate
  purify.buffer_per_node = 1;
  purify.purify_on_consume = true;
  for (const ArchConfig& config : {state_tp, purify}) {
    for (const DesignKind design :
         {DesignKind::SyncBuf, DesignKind::AsyncBuf, DesignKind::AdaptBuf,
          DesignKind::InitBuf}) {
      SCOPED_TRACE(design_name(design));
      EXPECT_THROW(run_once(qc, nodes, config, design), ConfigError);
      ArchConfig bounded = config;
      bounded.max_trial_sim_time = 500.0;
      EXPECT_THROW(run_once(qc, nodes, bounded, design), ConfigError);
    }
  }
  // (c) Swap-as-you-go runs the bufferless design on a degraded one-slot
  // edge buffer, which cannot hold a state-teleported gate's two pairs.
  ArchConfig swap_go;
  swap_go.set_topology(net::Topology::chain(2));
  swap_go.swap_as_you_go = true;
  swap_go.remote_impl = RemoteImpl::StateTeleport;
  EXPECT_THROW(run_once(qc, nodes, swap_go, DesignKind::Original),
               ConfigError);
  // The composed bufferless link holds a gate's pairs across heralds.
  swap_go.swap_as_you_go = false;
  EXPECT_FALSE(run_once(qc, nodes, swap_go, DesignKind::Original).truncated);
  // Enough buffer for the quota runs every shape.
  state_tp.buffer_per_node = 2;
  EXPECT_FALSE(run_once(qc, nodes, state_tp, DesignKind::AsyncBuf).truncated);
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

/// Step drift on both fields plus calibration snapshots: boundaries that
/// change rates without touching the routes.
Scenario step_snapshot_scenario() {
  Scenario scn;
  DriftTrack step;
  step.field = DriftField::PSucc;
  step.kind = DriftKind::Step;
  step.node_a = 0;
  step.node_b = 1;
  step.times = {30.0, 90.0};
  step.levels = {0.5, 1.4};
  scn.drift.push_back(step);
  step.field = DriftField::F0;
  step.node_a = -1;
  step.node_b = -1;
  step.times = {45.0};
  step.levels = {0.97};
  scn.drift.push_back(step);
  scn.snapshots.push_back({2, 60.0, 0.7, 0.99});
  scn.snapshots.push_back({2, 140.0, 1.1, 1.0});
  return scn;
}

/// A random walk on f0 with a node outage that flushes edge buffers.
Scenario walk_node_outage_scenario() {
  Scenario scn;
  DriftTrack walk;
  walk.field = DriftField::F0;
  walk.kind = DriftKind::RandomWalk;
  walk.walk_interval = 12.5;
  walk.walk_step = 0.02;
  scn.drift.push_back(walk);
  scn.node_outages.push_back({1, 40.0, 50.0});
  return scn;
}

TEST(DegradedDeterminism, EveryKnobComboIsThreadCountInvariant) {
  const Circuit qc = four_node_circuit();
  const std::vector<int> nodes = {0, 0, 1, 1, 2, 2, 3, 3};
  constexpr int kRuns = 6;
  constexpr std::uint64_t kSeed = 1200;

  struct Combo {
    const char* name;
    Scenario (*scenario)();
    bool swap_go, salvage, share;
    int stall;
    double budget;
  };
  const Combo combos[] = {
      {"salvage_swap_go", faulty_scenario, true, true, false, 0, 1e18},
      {"salvage_composed", faulty_scenario, false, true, false, 0, 1e18},
      {"step_snapshot_shared", step_snapshot_scenario, false, false, true, 0,
       1e18},
      {"walk_node_outage_swap_go", walk_node_outage_scenario, true, true,
       false, 0, 1e18},
      {"stall_budget", faulty_scenario, false, false, false, 5, 900.0},
      {"all_swap_go", faulty_scenario, true, true, false, 5, 900.0},
      {"all_composed", faulty_scenario, false, true, true, 5, 900.0},
  };
  for (const Combo& combo : combos) {
    ArchConfig config;
    config.num_nodes = 4;
    config.set_topology(net::Topology::ring(4));
    config.set_scenario(combo.scenario());
    config.swap_as_you_go = combo.swap_go;
    config.salvage_pairs = combo.salvage;
    config.share_edge_capacity = combo.share;
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
