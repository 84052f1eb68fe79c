/// Unit tests for the fault & drift scenario engine: ScenarioRuntime
/// schedule evaluation, Scenario/ArchConfig validation, the determinism
/// contract (same seed => bit-identical results across thread counts, with
/// drift and outages enabled), the lazy-generation statistical-equivalence
/// gate (lazy stationary generation vs the per-window no-op-scenario
/// reference), and end-to-end re-routing behavior under outages.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "expect_identical.hpp"
#include "gen/benchmarks.hpp"
#include "net/topology.hpp"
#include "obs/observe.hpp"
#include "runtime/arch_config.hpp"
#include "runtime/engine.hpp"
#include "runtime/experiment.hpp"
#include "scenario/runtime.hpp"
#include "scenario/scenario.hpp"

namespace dqcsim::scenario {
namespace {

using dqcsim::Circuit;
using runtime::AggregateResult;
using runtime::ArchConfig;
using runtime::DesignKind;
using runtime::RunResult;

// ------------------------------------------------- ScenarioRuntime units ----

TEST(ScenarioRuntime, StepDriftScalesFromEachStepTime) {
  const net::Topology topo = net::Topology::ring(4);
  Scenario scn;
  DriftTrack track;
  track.field = DriftField::PSucc;
  track.kind = DriftKind::Step;
  track.node_a = 0;
  track.node_b = 1;
  track.times = {10.0, 20.0};
  track.levels = {0.5, 0.8};
  scn.drift.push_back(track);
  scn.validate(topo);

  ScenarioRuntime rt;
  rt.begin_trial(scn, topo, 1);
  const std::size_t e01 = topo.edge_index(0, 1);
  const std::size_t e12 = topo.edge_index(1, 2);
  EXPECT_DOUBLE_EQ(rt.effective_p_succ(e01, 0.4, 5.0), 0.4);    // before first
  EXPECT_DOUBLE_EQ(rt.effective_p_succ(e01, 0.4, 10.0), 0.2);   // at step
  EXPECT_DOUBLE_EQ(rt.effective_p_succ(e01, 0.4, 15.0), 0.2);
  EXPECT_DOUBLE_EQ(rt.effective_p_succ(e01, 0.4, 25.0), 0.32);  // last level
  // Other edges are untouched by an edge-targeted track.
  EXPECT_DOUBLE_EQ(rt.effective_p_succ(e12, 0.4, 25.0), 0.4);
}

TEST(ScenarioRuntime, RampDriftInterpolatesAndHoldsOutside) {
  const net::Topology topo = net::Topology::chain(2);
  Scenario scn;
  DriftTrack track;
  track.field = DriftField::F0;
  track.kind = DriftKind::Ramp;
  track.t0 = 10.0;
  track.t1 = 20.0;
  track.s0 = 1.0;
  track.s1 = 0.5;
  scn.drift.push_back(track);  // fabric-wide (node_a = node_b = -1)
  scn.validate(topo);

  ScenarioRuntime rt;
  rt.begin_trial(scn, topo, 1);
  EXPECT_DOUBLE_EQ(rt.effective_f0(0, 0.99, 0.0), 0.99);
  EXPECT_DOUBLE_EQ(rt.effective_f0(0, 0.99, 15.0), 0.99 * 0.75);
  EXPECT_DOUBLE_EQ(rt.effective_f0(0, 0.99, 100.0), 0.99 * 0.5);
}

TEST(ScenarioRuntime, EffectiveValuesAreClampedIntoDomain) {
  const net::Topology topo = net::Topology::chain(2);
  Scenario scn;
  DriftTrack up;
  up.field = DriftField::PSucc;
  up.kind = DriftKind::Step;
  up.times = {0.0};
  up.levels = {10.0};
  DriftTrack down = up;
  down.field = DriftField::F0;
  down.levels = {0.01};
  scn.drift = {up, down};
  scn.validate(topo);

  ScenarioRuntime rt;
  rt.begin_trial(scn, topo, 1);
  EXPECT_DOUBLE_EQ(rt.effective_p_succ(0, 0.4, 1.0), 1.0);   // clamped up
  EXPECT_DOUBLE_EQ(rt.effective_f0(0, 0.99, 1.0), 0.25);     // clamped down
}

TEST(ScenarioRuntime, RandomWalkIsSeedDeterministicAndBounded) {
  const net::Topology topo = net::Topology::chain(2);
  Scenario scn;
  DriftTrack track;
  track.field = DriftField::PSucc;
  track.kind = DriftKind::RandomWalk;
  track.walk_interval = 5.0;
  track.walk_step = 0.3;
  track.walk_min = 0.5;
  track.walk_max = 1.5;
  scn.drift.push_back(track);
  scn.validate(topo);

  ScenarioRuntime a;
  ScenarioRuntime b;
  ScenarioRuntime c;
  a.begin_trial(scn, topo, 7);
  b.begin_trial(scn, topo, 7);
  c.begin_trial(scn, topo, 8);
  bool any_different_seed_diff = false;
  for (double t = 0.0; t < 200.0; t += 5.0) {
    const double pa = a.effective_p_succ(0, 0.4, t);
    EXPECT_EQ(pa, b.effective_p_succ(0, 0.4, t)) << "t=" << t;
    EXPECT_GE(pa, 0.4 * track.walk_min);
    EXPECT_LE(pa, 0.4 * track.walk_max);
    if (pa != c.effective_p_succ(0, 0.4, t)) any_different_seed_diff = true;
  }
  EXPECT_TRUE(any_different_seed_diff) << "distinct seeds produced one walk";
  // Random access in past time returns the memoized level, not a re-draw.
  EXPECT_EQ(a.effective_p_succ(0, 0.4, 0.0), b.effective_p_succ(0, 0.4, 0.0));
}

TEST(ScenarioRuntime, LinkOutageIntervalAndBoundaries) {
  const net::Topology topo = net::Topology::ring(4);
  Scenario scn;
  scn.link_outages.push_back({0, 1, 5.0, 3.0});
  scn.validate(topo);

  ScenarioRuntime rt;
  rt.begin_trial(scn, topo, 1);
  const std::size_t e01 = topo.edge_index(0, 1);
  const std::size_t e12 = topo.edge_index(1, 2);
  EXPECT_TRUE(rt.edge_up(e01, 4.9));
  EXPECT_FALSE(rt.edge_up(e01, 5.0));
  EXPECT_FALSE(rt.edge_up(e01, 7.9));
  EXPECT_TRUE(rt.edge_up(e01, 8.0));  // [start, start + duration)
  EXPECT_TRUE(rt.edge_up(e12, 6.0));

  ASSERT_TRUE(rt.next_boundary(0.0).has_value());
  EXPECT_DOUBLE_EQ(*rt.next_boundary(0.0), 5.0);
  EXPECT_DOUBLE_EQ(*rt.next_boundary(5.0), 8.0);
  EXPECT_FALSE(rt.next_boundary(8.0).has_value());
}

TEST(ScenarioRuntime, NodeOutageTakesDownAllIncidentEdges) {
  const net::Topology topo = net::Topology::ring(4);
  Scenario scn;
  scn.node_outages.push_back({0, 2.0, 4.0});
  scn.validate(topo);

  ScenarioRuntime rt;
  rt.begin_trial(scn, topo, 1);
  EXPECT_FALSE(rt.node_up(0, 3.0));
  EXPECT_TRUE(rt.node_up(1, 3.0));
  EXPECT_FALSE(rt.edge_up(topo.edge_index(0, 1), 3.0));
  EXPECT_FALSE(rt.edge_up(topo.edge_index(0, 3), 3.0));
  EXPECT_TRUE(rt.edge_up(topo.edge_index(1, 2), 3.0));
  EXPECT_TRUE(rt.edge_up(topo.edge_index(0, 1), 6.0));
}

TEST(ScenarioRuntime, RandomFailuresAreSeedDeterministicAndHonorHorizon) {
  const net::Topology topo = net::Topology::chain(3);
  Scenario scn;
  scn.random_failures.mtbf = 10.0;
  scn.random_failures.duration = 2.0;
  scn.horizon = 100.0;
  scn.validate(topo);

  ScenarioRuntime a;
  ScenarioRuntime b;
  a.begin_trial(scn, topo, 42);
  b.begin_trial(scn, topo, 42);

  // Walk the full boundary sequence on both; it must match exactly and
  // terminate (every failure starts at or before the horizon).
  std::vector<double> seq_a;
  double t = 0.0;
  while (auto next = a.next_boundary(t)) {
    seq_a.push_back(*next);
    t = *next;
    ASSERT_LT(seq_a.size(), 1000u) << "boundary sequence did not terminate";
  }
  EXPECT_FALSE(seq_a.empty());
  EXPECT_LE(seq_a.back(), scn.horizon + scn.random_failures.duration);

  t = 0.0;
  for (const double expected : seq_a) {
    const auto next = b.next_boundary(t);
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(*next, expected);
    // Availability flips are consistent with the boundary sequence.
    t = *next;
  }
  EXPECT_FALSE(b.next_boundary(t).has_value());
}

TEST(ScenarioRuntime, CalibrationSnapshotScalesIncidentEdgesOnly) {
  const net::Topology topo = net::Topology::ring(4);
  Scenario scn;
  scn.snapshots.push_back({1, 10.0, 0.5, 0.9});
  scn.validate(topo);

  ScenarioRuntime rt;
  rt.begin_trial(scn, topo, 1);
  const std::size_t e01 = topo.edge_index(0, 1);
  const std::size_t e12 = topo.edge_index(1, 2);
  const std::size_t e23 = topo.edge_index(2, 3);
  EXPECT_DOUBLE_EQ(rt.effective_p_succ(e01, 0.4, 5.0), 0.4);  // not yet
  EXPECT_DOUBLE_EQ(rt.effective_p_succ(e01, 0.4, 10.0), 0.2);
  EXPECT_DOUBLE_EQ(rt.effective_p_succ(e12, 0.4, 12.0), 0.2);
  EXPECT_DOUBLE_EQ(rt.effective_p_succ(e23, 0.4, 12.0), 0.4);  // not incident
  EXPECT_DOUBLE_EQ(rt.effective_f0(e01, 0.99, 12.0), 0.99 * 0.9);
}

TEST(ScenarioRuntime, BurstDownsExplicitEdgesTogether) {
  const net::Topology topo = net::Topology::ring(4);
  Scenario scn;
  FailureBurst burst;
  burst.start = 3.0;
  burst.duration = 2.0;
  burst.edges = {{0, 1}, {2, 3}};
  scn.bursts.push_back(burst);
  scn.validate(topo);

  ScenarioRuntime rt;
  rt.begin_trial(scn, topo, 1);
  EXPECT_FALSE(rt.edge_up(topo.edge_index(0, 1), 4.0));
  EXPECT_FALSE(rt.edge_up(topo.edge_index(2, 3), 4.0));
  EXPECT_TRUE(rt.edge_up(topo.edge_index(1, 2), 4.0));
  EXPECT_TRUE(rt.edge_up(topo.edge_index(0, 1), 5.0));
}

// ------------------------------------------------------------ validation ----

TEST(ScenarioValidation, RejectsOutOfDomainSpecs) {
  const net::Topology topo = net::Topology::ring(4);

  {
    Scenario scn;  // outage must recover
    scn.link_outages.push_back({0, 1, 5.0, 0.0});
    EXPECT_THROW(scn.validate(topo), ConfigError);
  }
  {
    Scenario scn;  // edge absent from the topology
    scn.link_outages.push_back({0, 2, 5.0, 1.0});
    EXPECT_THROW(scn.validate(topo), ConfigError);
  }
  {
    Scenario scn;  // node out of range
    scn.node_outages.push_back({7, 5.0, 1.0});
    EXPECT_THROW(scn.validate(topo), ConfigError);
  }
  {
    Scenario scn;  // mismatched step times/levels
    DriftTrack track;
    track.kind = DriftKind::Step;
    track.times = {1.0, 2.0};
    track.levels = {0.5};
    scn.drift.push_back(track);
    EXPECT_THROW(scn.validate(topo), ConfigError);
  }
  {
    Scenario scn;  // non-increasing step times
    DriftTrack track;
    track.kind = DriftKind::Step;
    track.times = {2.0, 2.0};
    track.levels = {0.5, 0.6};
    scn.drift.push_back(track);
    EXPECT_THROW(scn.validate(topo), ConfigError);
  }
  {
    Scenario scn;  // ramp with t1 <= t0
    DriftTrack track;
    track.kind = DriftKind::Ramp;
    track.t0 = 5.0;
    track.t1 = 5.0;
    scn.drift.push_back(track);
    EXPECT_THROW(scn.validate(topo), ConfigError);
  }
  {
    Scenario scn;  // walk without an interval
    DriftTrack track;
    track.kind = DriftKind::RandomWalk;
    track.walk_interval = 0.0;
    track.walk_step = 0.1;
    scn.drift.push_back(track);
    EXPECT_THROW(scn.validate(topo), ConfigError);
  }
  {
    Scenario scn;  // burst with neither explicit nor random edges
    FailureBurst burst;
    burst.start = 1.0;
    burst.duration = 1.0;
    scn.bursts.push_back(burst);
    EXPECT_THROW(scn.validate(topo), ConfigError);
  }
  {
    Scenario scn;  // more random edges than the topology has
    FailureBurst burst;
    burst.start = 1.0;
    burst.duration = 1.0;
    burst.random_edges = 99;
    scn.bursts.push_back(burst);
    EXPECT_THROW(scn.validate(topo), ConfigError);
  }
}

TEST(ScenarioValidation, ArchConfigRequiresTopologyForScenario) {
  ArchConfig config;
  config.num_nodes = 4;
  Scenario scn;
  scn.link_outages.push_back({0, 1, 5.0, 1.0});
  config.set_scenario(scn);
  EXPECT_THROW(config.validate(), ConfigError);  // no topology set

  config.set_topology(net::Topology::all_to_all(4));
  EXPECT_NO_THROW(config.validate());

  // Validation runs against the configured topology.
  config.set_topology(net::Topology::chain(4));
  Scenario bad;
  bad.link_outages.push_back({0, 3, 5.0, 1.0});  // not a chain edge
  config.set_scenario(bad);
  EXPECT_THROW(config.validate(), ConfigError);
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

std::vector<int> four_node_assignment() { return {0, 0, 1, 1, 2, 2, 3, 3}; }

/// A scenario exercising every component class at once.
Scenario rich_scenario() {
  Scenario scn;
  DriftTrack step;
  step.field = DriftField::PSucc;
  step.kind = DriftKind::Step;
  step.node_a = 0;
  step.node_b = 1;
  step.times = {40.0, 120.0};
  step.levels = {0.7, 0.9};
  scn.drift.push_back(step);

  DriftTrack ramp;
  ramp.field = DriftField::F0;
  ramp.kind = DriftKind::Ramp;
  ramp.t0 = 0.0;
  ramp.t1 = 300.0;
  ramp.s0 = 1.0;
  ramp.s1 = 0.97;
  scn.drift.push_back(ramp);

  DriftTrack walk;
  walk.field = DriftField::PSucc;
  walk.kind = DriftKind::RandomWalk;
  walk.walk_interval = 25.0;
  walk.walk_step = 0.15;
  scn.drift.push_back(walk);

  scn.link_outages.push_back({1, 2, 60.0, 40.0});
  scn.node_outages.push_back({3, 150.0, 30.0});

  FailureBurst burst;
  burst.start = 220.0;
  burst.duration = 25.0;
  burst.random_edges = 2;
  scn.bursts.push_back(burst);

  scn.random_failures.mtbf = 500.0;
  scn.random_failures.duration = 35.0;
  scn.snapshots.push_back({2, 90.0, 0.8, 0.99});
  return scn;
}

TEST(ScenarioDeterminism, ParallelRunsAreBitIdenticalToSerialForEveryDesign) {
  const Circuit qc = four_node_circuit();
  const std::vector<int> nodes = four_node_assignment();
  ArchConfig config;
  config.num_nodes = 4;
  config.set_topology(net::Topology::ring(4));
  config.set_scenario(rich_scenario());
  constexpr int kRuns = 8;
  constexpr std::uint64_t kSeed = 1000;

  for (const DesignKind design : runtime::distributed_designs()) {
    const AggregateResult serial = runtime::run_design(
        qc, nodes, config, design, kRuns, kSeed, /*threads=*/1);
    for (const int threads : {0, 2, 4}) {
      SCOPED_TRACE(runtime::design_name(design) + " @ " +
                   std::to_string(threads) + " threads");
      const AggregateResult parallel = runtime::run_design(
          qc, nodes, config, design, kRuns, kSeed, threads);
      expect_identical(serial, parallel);
    }
  }
}

// ---------------------------------------- lazy replay format equivalence ----
//
// Stationary links generate lazily (replay format v3: one geometric draw
// per success, parked full buffers settled in bulk); any installed provider
// keeps the per-window chain of replay format v1. The suite keeps its
// ReplayFormatV2 name. A no-op scenario installs providers while scaling
// nothing, so it is the in-process v1 reference: the two formats draw
// different random streams, and these gates check that the streams
// describe the same physics. Seeds are fixed, so every gate is
// deterministic.

/// A scenario whose tracks scale by exactly 1.0: it exercises the full
/// effective-parameter pipeline (provider calls, composed-route folds)
/// without perturbing the fabric.
Scenario noop_scenario() {
  Scenario noop;
  DriftTrack step;
  step.field = DriftField::PSucc;
  step.kind = DriftKind::Step;
  step.times = {0.0};
  step.levels = {1.0};
  noop.drift.push_back(step);
  DriftTrack ramp;
  ramp.field = DriftField::F0;
  ramp.kind = DriftKind::Ramp;
  ramp.t0 = 0.0;
  ramp.t1 = 100.0;
  ramp.s0 = 1.0;
  ramp.s1 = 1.0;
  noop.drift.push_back(ramp);
  return noop;
}

/// Per-trial samples of the compared metrics.
struct TrialSamples {
  std::vector<double> depth, fidelity, attempts, successes, wasted, expired,
      stalled;
  double reroutes = 0.0;  ///< summed over trials
  double downtime = 0.0;  ///< summed over trials
};

TrialSamples run_trials(const Circuit& qc, const std::vector<int>& nodes,
                        const ArchConfig& config, DesignKind design,
                        int trials) {
  TrialSamples s;
  runtime::RunContext ctx;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t seed = 0xC0FFEEULL + static_cast<std::uint64_t>(t);
    const RunResult r = ctx.execute(qc, nodes, config, design, seed);
    s.depth.push_back(r.depth);
    s.fidelity.push_back(r.fidelity);
    s.attempts.push_back(static_cast<double>(r.epr_attempts));
    s.successes.push_back(static_cast<double>(r.epr_successes));
    s.wasted.push_back(static_cast<double>(r.epr_wasted));
    s.expired.push_back(static_cast<double>(r.epr_expired));
    s.stalled.push_back(static_cast<double>(r.links_stalled));
    s.reroutes += static_cast<double>(r.reroutes);
    s.downtime += r.outage_downtime;
  }
  return s;
}

/// Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|.
double ks_statistic(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::size_t i = 0;
  std::size_t j = 0;
  double d = 0.0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] <= x) ++i;
    while (j < b.size() && b[j] <= x) ++j;
    d = std::max(d, std::abs(static_cast<double>(i) / a.size() -
                             static_cast<double>(j) / b.size()));
  }
  return d;
}

/// KS test at alpha = 1e-3: D_crit = c(alpha) * sqrt((n + m) / (n m)) with
/// c(alpha) = sqrt(-ln(alpha / 2) / 2). Ties (discrete depths) only make
/// the test conservative.
void expect_same_distribution(const std::vector<double>& a,
                              const std::vector<double>& b,
                              const char* what) {
  const double n = static_cast<double>(a.size());
  const double m = static_cast<double>(b.size());
  const double c_alpha = std::sqrt(-std::log(1e-3 / 2.0) / 2.0);
  const double d_crit = c_alpha * std::sqrt((n + m) / (n * m));
  EXPECT_LT(ks_statistic(a, b), d_crit) << what;
}

/// Means agree within 4 standard errors of their difference.
void expect_same_mean(const std::vector<double>& a,
                      const std::vector<double>& b, const char* what) {
  const auto moments = [](const std::vector<double>& v) {
    double mean = 0.0;
    for (const double x : v) mean += x;
    mean /= static_cast<double>(v.size());
    double var = 0.0;
    for (const double x : v) var += (x - mean) * (x - mean);
    var /= static_cast<double>(v.size() - 1);
    return std::pair{mean, var / static_cast<double>(v.size())};
  };
  const auto [mean_a, se2_a] = moments(a);
  const auto [mean_b, se2_b] = moments(b);
  EXPECT_LE(std::abs(mean_a - mean_b), 4.0 * std::sqrt(se2_a + se2_b))
      << what << ": " << mean_a << " vs " << mean_b;
}

/// Runs `trials` seeds of `design` with and without the no-op scenario and
/// gates the lazy (null) samples against the per-window (no-op) reference.
/// Returns the lazy samples.
TrialSamples expect_replay_equivalent(const Circuit& qc,
                                      const std::vector<int>& nodes,
                                      const ArchConfig& null_config,
                                      DesignKind design, int trials) {
  SCOPED_TRACE(runtime::design_name(design) + " on " +
               std::to_string(qc.num_qubits()) + " qubits");
  ArchConfig noop_config = null_config;
  noop_config.set_scenario(noop_scenario());
  const TrialSamples lazy = run_trials(qc, nodes, null_config, design, trials);
  const TrialSamples eager =
      run_trials(qc, nodes, noop_config, design, trials);
  // The formats draw different streams; identical samples would mean the
  // gate compared one path against itself.
  EXPECT_TRUE(lazy.successes != eager.successes ||
              lazy.fidelity != eager.fidelity);
  // The no-op scenario perturbs nothing: no reroute, no downtime.
  EXPECT_EQ(eager.reroutes, 0.0);
  EXPECT_EQ(eager.downtime, 0.0);
  expect_same_distribution(lazy.depth, eager.depth, "depth");
  expect_same_distribution(lazy.fidelity, eager.fidelity, "fidelity");
  expect_same_mean(lazy.attempts, eager.attempts, "attempts");
  expect_same_mean(lazy.successes, eager.successes, "successes");
  expect_same_mean(lazy.wasted, eager.wasted, "wasted");
  expect_same_mean(lazy.expired, eager.expired, "expired");
  expect_same_mean(lazy.stalled, eager.stalled, "links_stalled");
  return lazy;
}

/// 8 qubits on 2 nodes, remote-bound: remote gates arrive faster than the
/// link generates, so depth follows the generation stream.
Circuit remote_bound_circuit() {
  Circuit qc(8);
  for (int rep = 0; rep < 4; ++rep) {
    qc.rzz(0, 4, 0.1);
    qc.rzz(1, 5, 0.1);
    qc.h(0);
    qc.rzz(0, 1, 0.1);
    qc.rzz(4, 5, 0.1);
    qc.rzz(2, 6, 0.1);
    qc.rzz(3, 7, 0.1);
    qc.h(3);
  }
  return qc;
}

/// 8 qubits on 2 nodes, buffer-bound: one remote gate per long stretch of
/// local work, so buffers fill, services park, and most successes are
/// wasted (or expire under a cutoff). On the default latency grid many of
/// its pops share their instant with a SWAP landing or a success falling
/// due, so these cells also gate how a wake orders same-instant ties.
Circuit buffer_bound_circuit() {
  Circuit qc(8);
  for (int rep = 0; rep < 8; ++rep) {
    qc.rzz(rep % 4, 4 + (rep + 1) % 4, 0.1);
    for (int k = 0; k < 4; ++k) {
      qc.rzz(0, 1, 0.1);
      qc.rzz(2, 3, 0.1);
      qc.rzz(4, 5, 0.1);
      qc.rzz(6, 7, 0.1);
      qc.rzz(1, 2, 0.1);
      qc.rzz(5, 6, 0.1);
    }
  }
  return qc;
}

std::vector<int> two_node_assignment() { return {0, 0, 0, 0, 1, 1, 1, 1}; }

/// The buffer-bound shape with ~300 time units of local work after each of
/// its 6 remote gates: at the defaults a parked service's gap is ~30
/// windows per pair, so each wake settles ~120 successes in bulk against
/// the link's 10 pairs.
Circuit long_gap_circuit() {
  Circuit qc(8);
  for (int rep = 0; rep < 6; ++rep) {
    qc.rzz(rep % 4, 4 + (rep + 1) % 4, 0.1);
    for (int k = 0; k < 150; ++k) {
      qc.rzz(0, 1, 0.1);
      qc.rzz(2, 3, 0.1);
      qc.rzz(4, 5, 0.1);
      qc.rzz(6, 7, 0.1);
      qc.rzz(1, 2, 0.1);
      qc.rzz(5, 6, 0.1);
    }
  }
  return qc;
}


/// 12 qubits on chain(6): nearest-neighbour and long-range traffic, so
/// composed links span 1 to 5 hops.
Circuit chain6_circuit() {
  Circuit qc(12);
  for (int rep = 0; rep < 2; ++rep) {
    for (int node = 0; node < 5; ++node) {
      qc.rzz(2 * node + 1, 2 * node + 2, 0.1);
    }
    qc.rzz(0, 11, 0.1);  // nodes 0-5
    qc.rzz(2, 9, 0.1);   // nodes 1-4
  }
  return qc;
}

std::vector<int> chain6_assignment() {
  return {0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5};
}

ArchConfig chain6_config() {
  ArchConfig config;
  config.num_nodes = 6;
  config.set_topology(net::Topology::chain(6));
  return config;
}

TEST(ReplayFormatV2, EveryDesignMatchesPerWindowReference) {
  ArchConfig config;
  config.set_topology(net::Topology::chain(2));  // scenarios need a topology
  const Circuit qaoa = gen::make_benchmark(gen::BenchmarkId::QAOA_R4_32);
  const std::vector<int> qaoa_nodes =
      runtime::partition_circuit(qaoa, 2).assignment;
  ArchConfig ring4;
  ring4.num_nodes = 4;
  ring4.set_topology(net::Topology::ring(4));
  for (const DesignKind design : runtime::distributed_designs()) {
    expect_replay_equivalent(remote_bound_circuit(), two_node_assignment(),
                             config, design, 1000);
    expect_replay_equivalent(four_node_circuit(), four_node_assignment(),
                             ring4, design, 1000);
    expect_replay_equivalent(qaoa, qaoa_nodes, config, design, 1000);
    expect_replay_equivalent(buffer_bound_circuit(), two_node_assignment(),
                             config, design, 1000);
  }
}

TEST(ReplayFormatV2, Chain6ComposedMatchesPerWindowReference) {
  const Circuit qc = chain6_circuit();
  for (const DesignKind design : {DesignKind::AsyncBuf, DesignKind::SyncBuf}) {
    expect_replay_equivalent(qc, chain6_assignment(), chain6_config(), design,
                             1000);
  }
}

TEST(ReplayFormatV2, Chain6SwapAsYouGoMatchesPerWindowReference) {
  ArchConfig config = chain6_config();
  config.swap_as_you_go = true;
  expect_replay_equivalent(chain6_circuit(), chain6_assignment(), config,
                           DesignKind::AsyncBuf, 1000);
}

TEST(ReplayFormatV2, FiniteCutoffMatchesPerWindowReference) {
  // A cutoff of 2.5 windows expires stock between the sparse remote gates:
  // parked services wake at expiries, not only at pops.
  ArchConfig config;
  config.set_topology(net::Topology::chain(2));
  config.buffer_cutoff = 25.0;
  expect_replay_equivalent(buffer_bound_circuit(), two_node_assignment(),
                           config, DesignKind::AsyncBuf, 1000);
}

TEST(ReplayFormatV2, LongGapBulkSettleMatchesPerWindowReference) {
  ArchConfig config;
  config.set_topology(net::Topology::chain(2));
  const Circuit qc = long_gap_circuit();
  for (const DesignKind design : {DesignKind::AsyncBuf, DesignKind::InitBuf}) {
    const TrialSamples lazy = expect_replay_equivalent(
        qc, two_node_assignment(), config, design, 1000);
    // Each of the 6 wakes settles far more successes than the 10 pairs.
    double wasted = 0.0;
    for (const double w : lazy.wasted) wasted += w;
    EXPECT_GT(wasted / static_cast<double>(lazy.wasted.size()), 6.0 * 50.0);
  }
}

TEST(ReplayFormatV2, TruncatedTailMatchesPerWindowReference) {
  // The budget cuts the long-gap circuit about halfway: parked services
  // settle the tail from their last pop to the budget in stop().
  ArchConfig config;
  config.set_topology(net::Topology::chain(2));
  config.max_trial_sim_time = 1000.0;
  for (const DesignKind design : {DesignKind::AsyncBuf, DesignKind::InitBuf}) {
    const TrialSamples lazy = expect_replay_equivalent(
        long_gap_circuit(), two_node_assignment(), config, design, 1000);
    for (const double depth : lazy.depth) EXPECT_DOUBLE_EQ(depth, 1000.0);
  }
}

TEST(ReplayFormatV2, StallWatchdogMatchesPerWindowReference) {
  // Two pairs at p = 0.1 behind a 2-pair buffer: gaps between successes
  // run to tens of windows, and 18 windows sits near the median of a
  // trial's longest gap, so links_stalled (the side-stream placement of
  // every bulk-settled success) is gated where it is most sensitive.
  ArchConfig config;
  config.set_topology(net::Topology::chain(2));
  config.comm_per_node = 2;
  config.buffer_per_node = 2;
  config.p_succ = 0.1;
  config.stall_windows = 18;
  for (const DesignKind design : {DesignKind::AsyncBuf, DesignKind::SyncBuf}) {
    const TrialSamples lazy = expect_replay_equivalent(
        long_gap_circuit(), two_node_assignment(), config, design, 1000);
    double stalled = 0.0;
    for (const double x : lazy.stalled) stalled += x;
    stalled /= static_cast<double>(lazy.stalled.size());
    EXPECT_GT(stalled, 0.2);
    EXPECT_LT(stalled, 0.8);
  }
}

// -------------------------------------- bulk-settle observation identity ----
//
// The bulk settle draws its placement (gap instants, trace spans) from a
// per-service side stream, only when the trial reads the delivery gap or
// traces. On parked-heavy cells, every way of reading it must leave the
// trial's own results bit-identical.

void expect_observation_invisible(const Circuit& qc,
                                  const std::vector<int>& nodes,
                                  const ArchConfig& plain) {
  constexpr int kRuns = 64;
  constexpr std::uint64_t kBase = 500;
  for (const DesignKind design : runtime::distributed_designs()) {
    for (const int threads : {1, 8}) {
      SCOPED_TRACE(runtime::design_name(design) + " @ " +
                   std::to_string(threads) + " threads");
      const AggregateResult off =
          runtime::run_design(qc, nodes, plain, design, kRuns, kBase, threads);

      ArchConfig observed = plain;
      observed.observe = obs::make_observe();
      expect_identical(off, runtime::run_design(qc, nodes, observed, design,
                                                kRuns, kBase, threads));

      ArchConfig traced = plain;
      traced.observe = obs::make_observe();
      traced.observe->metrics = false;
      traced.observe->profile = false;
      traced.observe->trace_seed = kBase + 5;
      expect_identical(off, runtime::run_design(qc, nodes, traced, design,
                                                kRuns, kBase, threads));
      EXPECT_TRUE(traced.observe->collector.has_trace());

      // The watchdog adds links_stalled and changes nothing else.
      ArchConfig watched = plain;
      watched.stall_windows = 1;
      AggregateResult on = runtime::run_design(qc, nodes, watched, design,
                                               kRuns, kBase, threads);
      on.links_stalled = off.links_stalled;
      expect_identical(off, on);
    }
  }
}

TEST(BulkSettleIdentity, BufferBoundTwoNodeObservationIsInvisible) {
  ArchConfig config;
  config.set_topology(net::Topology::chain(2));
  expect_observation_invisible(buffer_bound_circuit(), two_node_assignment(),
                               config);
}

TEST(BulkSettleIdentity, ComposedChain6ObservationIsInvisible) {
  expect_observation_invisible(chain6_circuit(), chain6_assignment(),
                               chain6_config());
}

TEST(ScenarioDeterminism, EmptyScenarioShortCircuitsToStationary) {
  const Circuit qc = four_node_circuit();
  const std::vector<int> nodes = four_node_assignment();
  ArchConfig null_config;
  null_config.num_nodes = 4;
  null_config.set_topology(net::Topology::ring(4));
  ArchConfig empty_config = null_config;
  empty_config.set_scenario(Scenario{});  // empty() == true

  const AggregateResult a = runtime::run_design(
      qc, nodes, null_config, DesignKind::AsyncBuf, 6, 500, 1);
  const AggregateResult b = runtime::run_design(
      qc, nodes, empty_config, DesignKind::AsyncBuf, 6, 500, 1);
  expect_identical(a, b);
}

// --------------------------------------------------------- fault behavior ----

RunResult run_once(const Circuit& qc, const std::vector<int>& nodes,
                   const ArchConfig& config, DesignKind design,
                   std::uint64_t seed = 1) {
  runtime::ExecutionEngine engine(qc, nodes, config, design, seed);
  return engine.run();
}

TEST(ScenarioFaults, RingOutageReroutesOverSurvivingPath) {
  // Ring(4) with edge {0, 1} down from early on: the 0-1 logical link must
  // switch to the 3-hop detour 0-3-2-1 while live, paying entanglement
  // swaps it would never pay on the direct edge.
  const Circuit qc = four_node_circuit();
  const std::vector<int> nodes = four_node_assignment();
  ArchConfig base;
  base.num_nodes = 4;
  base.set_topology(net::Topology::ring(4));

  ArchConfig faulty = base;
  Scenario scn;
  scn.link_outages.push_back({0, 1, 1.0, 1e6});
  faulty.set_scenario(scn);

  const RunResult healthy = run_once(qc, nodes, base, DesignKind::AsyncBuf);
  const RunResult outage = run_once(qc, nodes, faulty, DesignKind::AsyncBuf);

  EXPECT_EQ(healthy.reroutes, 0u);
  EXPECT_GE(outage.reroutes, 1u);
  // The live switch means the link is never routeless: no outage event, no
  // downtime — the detour absorbs the fault.
  EXPECT_EQ(outage.outage_events, 0u);
  EXPECT_DOUBLE_EQ(outage.outage_downtime, 0.0);
  EXPECT_GT(outage.entanglement_swaps, healthy.entanglement_swaps);
  EXPECT_LT(outage.fidelity, healthy.fidelity);
}

TEST(ScenarioFaults, ChainOutageRecoversAndAccruesDowntime) {
  // A chain has a unique path: an outage on a middle edge cannot detour, so
  // the link goes down, traffic stalls, and the recovery at start+duration
  // counts as a reroute with the downtime accrued.
  const Circuit qc = four_node_circuit();
  const std::vector<int> nodes = four_node_assignment();
  ArchConfig config;
  config.num_nodes = 4;
  config.set_topology(net::Topology::chain(4));
  Scenario scn;
  scn.link_outages.push_back({1, 2, 5.0, 80.0});
  config.set_scenario(scn);

  const RunResult result = run_once(qc, nodes, config, DesignKind::AsyncBuf);
  EXPECT_GE(result.reroutes, 1u);
  EXPECT_GE(result.outage_events, 1u);
  EXPECT_GT(result.outage_downtime, 0.0);
}

TEST(ScenarioFaults, ChainAt8WithRandomOutagesReportsReroutes) {
  // Acceptance scenario: QAOA on an 8-node chain under stochastic link
  // failures reports a positive mean reroute count across runs.
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const net::Topology topo = net::Topology::chain(8);
  const auto part = runtime::partition_circuit(qc, topo);
  ArchConfig config;
  config.num_nodes = 8;
  config.set_topology(topo);
  Scenario scn;
  scn.random_failures.mtbf = 400.0;
  scn.random_failures.duration = 60.0;
  config.set_scenario(scn);

  const AggregateResult agg = runtime::run_design(
      qc, part.assignment, config, DesignKind::AsyncBuf, 6, 1000, 0);
  EXPECT_GT(agg.reroutes.mean(), 0.0);
  EXPECT_GT(agg.outage_downtime.mean(), 0.0);
  EXPECT_GT(agg.depth.count(), 0u);
}

TEST(ScenarioFaults, TotalDisconnectionTerminatesUnderTheTrialBudget) {
  // Every node except one goes down at t=0 and never recovers: no route
  // survives and no remote gate can ever complete. The trial sim-time
  // budget turns the would-be infinite run into a clean truncated result
  // with the full downtime on the books — and the truncated trials stay
  // bit-identical across thread counts.
  const Circuit qc = four_node_circuit();
  const std::vector<int> nodes = four_node_assignment();
  ArchConfig config;
  config.num_nodes = 4;
  config.set_topology(net::Topology::ring(4));
  Scenario scn;
  scn.node_outages.push_back({1, 0.0, 1e9});
  scn.node_outages.push_back({3, 0.0, 1e9});  // isolates every node pair
  config.set_scenario(scn);
  config.max_trial_sim_time = 400.0;

  const RunResult r = run_once(qc, nodes, config, DesignKind::AsyncBuf);
  EXPECT_TRUE(r.truncated);
  EXPECT_DOUBLE_EQ(r.depth, 400.0);
  EXPECT_GT(r.outage_downtime, 0.0);
  EXPECT_GE(r.outage_events, 1u);

  const AggregateResult serial = runtime::run_design(
      qc, nodes, config, DesignKind::AsyncBuf, 6, 800, /*threads=*/1);
  EXPECT_EQ(serial.truncated.mean(), 1.0);
  for (const int threads : {0, 2, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const AggregateResult parallel = runtime::run_design(
        qc, nodes, config, DesignKind::AsyncBuf, 6, 800, threads);
    expect_identical(serial, parallel);
  }
}

TEST(ScenarioFaults, DriftOnlyScenarioDegradesFidelityWithoutReroutes) {
  // Quality drift perturbs pair statistics but never invalidates a route.
  const Circuit qc = four_node_circuit();
  const std::vector<int> nodes = four_node_assignment();
  ArchConfig base;
  base.num_nodes = 4;
  base.set_topology(net::Topology::ring(4));

  ArchConfig drifty = base;
  Scenario scn;
  DriftTrack track;
  track.field = DriftField::F0;
  track.kind = DriftKind::Step;
  track.times = {0.0};
  track.levels = {0.96};
  scn.drift.push_back(track);
  drifty.set_scenario(scn);

  const AggregateResult a =
      runtime::run_design(qc, nodes, base, DesignKind::AsyncBuf, 6, 300, 1);
  const AggregateResult b =
      runtime::run_design(qc, nodes, drifty, DesignKind::AsyncBuf, 6, 300, 1);
  EXPECT_LT(b.fidelity.mean(), a.fidelity.mean());
  EXPECT_EQ(b.reroutes.mean(), 0.0);
  EXPECT_EQ(b.outage_downtime.mean(), 0.0);
}

}  // namespace
}  // namespace dqcsim::scenario
