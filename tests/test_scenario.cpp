/// Unit tests for the fault & drift scenario engine: ScenarioRuntime
/// schedule evaluation, Scenario/ArchConfig validation, the determinism
/// contract (same seed => bit-identical results across thread counts, with
/// drift and outages enabled), the replay-format statistical-equivalence
/// gate (lazy generation vs the frozen per-window samples under
/// tests/data/replay_v1/), and end-to-end re-routing behavior under
/// outages.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
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

TEST(ScenarioRuntime, NextBoundaryCoversEveryScaleChange) {
  // Outage flips, step times, snapshot times and random-walk grid points
  // (up to the horizon) are boundaries, and between two boundaries every
  // effective value is constant.
  const net::Topology topo = net::Topology::chain(3);
  Scenario scn;
  DriftTrack step;
  step.kind = DriftKind::Step;
  step.times = {7.0, 30.0};
  step.levels = {0.5, 0.8};
  DriftTrack walk;
  walk.kind = DriftKind::RandomWalk;
  walk.walk_interval = 12.5;
  walk.walk_step = 0.2;
  scn.drift = {step, walk};
  scn.snapshots.push_back({1, 20.0, 0.9, 1.0});
  scn.link_outages.push_back({0, 1, 5.0, 3.0});
  scn.horizon = 40.0;
  scn.validate(topo);

  ScenarioRuntime rt;
  rt.begin_trial(scn, topo, 3);
  std::vector<double> seq = {0.0};
  while (const auto next = rt.next_boundary(seq.back())) {
    seq.push_back(*next);
  }
  EXPECT_EQ(seq, (std::vector<double>{0.0, 5.0, 7.0, 8.0, 12.5, 20.0, 25.0,
                                      30.0, 37.5}));
  for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
    const double last = std::nextafter(seq[i + 1], 0.0);
    for (std::size_t e = 0; e < topo.num_edges(); ++e) {
      EXPECT_EQ(rt.effective_p_succ(e, 0.4, seq[i]),
                rt.effective_p_succ(e, 0.4, last))
          << "edge " << e << " in [" << seq[i] << ", " << seq[i + 1] << ")";
      EXPECT_EQ(rt.edge_up(e, seq[i]), rt.edge_up(e, last));
    }
  }
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

  DriftTrack f0_step;
  f0_step.field = DriftField::F0;
  f0_step.kind = DriftKind::Step;
  f0_step.times = {0.0, 150.0, 300.0};
  f0_step.levels = {1.0, 0.985, 0.97};
  scn.drift.push_back(f0_step);

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

// ------------------------------------------ replay format v4 equivalence ----
//
// Every link generates lazily (replay format v4: one geometric draw per
// success, redrawn when a scenario boundary changes the link's rate, parked
// full buffers settled in bulk). The per-window chain of replay format v1,
// one event and one draw per pair per window, is the physics the lazy
// service must reproduce. Its per-seed samples are frozen under
// tests/data/replay_v1/ (see the README there), one file per cell, and each
// cell below gates today's engine against its file: stationary cells
// against the v1 run of the same cell under a unit-scale scenario, scenario
// cells against the v1 run of the same scenario. The suite keeps its
// ReplayFormatV2 name. Seeds are fixed, so every gate is deterministic.
//
// Setting DQCSIM_REPLAY_V1_WRITE=<dir> turns the suite into the fixture
// writer: each cell runs its reference configuration and writes
// <dir>/<cell>.csv instead of gating, with DQCSIM_REPLAY_V1_COMMIT naming
// the commit in its header. Only a commit that still has the per-window
// chain writes v1 samples.

/// Scale tracks of exactly 1.0. Under the v1 engine any installed scenario
/// moved its links to the per-window chain, so this is the configuration
/// the stationary cells' references were recorded with.
Scenario unit_step_scenario() {
  Scenario unit;
  DriftTrack step;
  step.field = DriftField::PSucc;
  step.kind = DriftKind::Step;
  step.times = {0.0};
  step.levels = {1.0};
  unit.drift.push_back(step);
  step.field = DriftField::F0;
  unit.drift.push_back(step);
  return unit;
}

/// Per-trial samples of the compared metrics.
struct TrialSamples {
  std::vector<double> depth, fidelity, attempts, successes, wasted, expired,
      stalled, reroutes, downtime;
};

/// The fixture's columns, in file order.
constexpr std::vector<double> TrialSamples::*kColumns[] = {
    &TrialSamples::depth,    &TrialSamples::fidelity, &TrialSamples::attempts,
    &TrialSamples::successes, &TrialSamples::wasted,  &TrialSamples::expired,
    &TrialSamples::stalled,  &TrialSamples::reroutes, &TrialSamples::downtime};
constexpr const char* kFixtureHeader =
    "depth,fidelity,attempts,successes,wasted,expired,stalled,reroutes,"
    "downtime";

constexpr int kGateTrials = 1000;
constexpr std::uint64_t kGateSeed = 0xC0FFEEULL;

void run_trials(const Circuit& qc, const std::vector<int>& nodes,
                const ArchConfig& config, DesignKind design,
                TrialSamples& s) {
  runtime::RunContext ctx;
  for (int t = 0; t < kGateTrials; ++t) {
    const RunResult r = ctx.execute(qc, nodes, config, design,
                                    kGateSeed + static_cast<std::uint64_t>(t));
    s.depth.push_back(r.depth);
    s.fidelity.push_back(r.fidelity);
    s.attempts.push_back(static_cast<double>(r.epr_attempts));
    s.successes.push_back(static_cast<double>(r.epr_successes));
    s.wasted.push_back(static_cast<double>(r.epr_wasted));
    s.expired.push_back(static_cast<double>(r.epr_expired));
    s.stalled.push_back(static_cast<double>(r.links_stalled));
    s.reroutes.push_back(static_cast<double>(r.reroutes));
    s.downtime.push_back(r.outage_downtime);
  }
}

std::string fixture_path(const std::string& dir, const std::string& cell) {
  return dir + "/" + cell + ".csv";
}

void write_fixture(const std::string& path, const std::string& cell,
                   const TrialSamples& s) {
  const char* commit = std::getenv("DQCSIM_REPLAY_V1_COMMIT");
  std::ofstream out(path);
  ASSERT_TRUE(out) << path;
  out << "# replay format v1 reference (per-window generation chain), cell "
      << cell << "\n"
      << "# commit " << (commit != nullptr ? commit : "unknown")
      << "; generator: tests/test_scenario.cpp run_trials with "
         "DQCSIM_REPLAY_V1_WRITE\n"
      << "# seeds 0xC0FFEE + 0.." << kGateTrials - 1 << "\n"
      << kFixtureHeader << "\n";
  char buf[32];
  for (std::size_t t = 0; t < s.depth.size(); ++t) {
    const char* sep = "";
    for (const auto column : kColumns) {
      std::snprintf(buf, sizeof buf, "%.17g", (s.*column)[t]);
      out << sep << buf;
      sep = ",";
    }
    out << "\n";
  }
}

void read_fixture(const std::string& path, TrialSamples& s) {
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing fixture " << path;
  std::string line;
  bool header_seen = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (!header_seen) {
      ASSERT_EQ(line, kFixtureHeader) << path;
      header_seen = true;
      continue;
    }
    std::istringstream row(line);
    std::string field;
    for (const auto column : kColumns) {
      ASSERT_TRUE(std::getline(row, field, ',')) << path << ": " << line;
      (s.*column).push_back(std::stod(field));
    }
  }
  ASSERT_EQ(s.depth.size(), static_cast<std::size_t>(kGateTrials)) << path;
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

double mean_of(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Runs `kGateTrials` seeds of `design` under `config` into `lazy` and
/// gates them against the frozen v1 samples of `cell`. A cell without a
/// scenario was recorded under unit_step_scenario().
void expect_matches_v1(const std::string& cell, const Circuit& qc,
                       const std::vector<int>& nodes, const ArchConfig& config,
                       DesignKind design, TrialSamples& lazy) {
  SCOPED_TRACE(cell);
  if (const char* dir = std::getenv("DQCSIM_REPLAY_V1_WRITE")) {
    ArchConfig reference = config;
    if (!reference.scenario) reference.set_scenario(unit_step_scenario());
    run_trials(qc, nodes, reference, design, lazy);
    write_fixture(fixture_path(dir, cell), cell, lazy);
    return;
  }
  TrialSamples v1;
  read_fixture(fixture_path(DQCSIM_TEST_DATA_DIR "/replay_v1", cell), v1);
  run_trials(qc, nodes, config, design, lazy);
  // The formats draw different streams; identical samples would mean the
  // gate compared one path against itself.
  EXPECT_TRUE(lazy.successes != v1.successes || lazy.fidelity != v1.fidelity);
  expect_same_distribution(lazy.depth, v1.depth, "depth");
  expect_same_distribution(lazy.fidelity, v1.fidelity, "fidelity");
  expect_same_mean(lazy.attempts, v1.attempts, "attempts");
  expect_same_mean(lazy.successes, v1.successes, "successes");
  expect_same_mean(lazy.wasted, v1.wasted, "wasted");
  expect_same_mean(lazy.expired, v1.expired, "expired");
  expect_same_mean(lazy.stalled, v1.stalled, "links_stalled");
  expect_same_mean(lazy.reroutes, v1.reroutes, "reroutes");
  expect_same_mean(lazy.downtime, v1.downtime, "downtime");
}

void expect_matches_v1(const std::string& cell, const Circuit& qc,
                       const std::vector<int>& nodes, const ArchConfig& config,
                       DesignKind design) {
  TrialSamples lazy;
  expect_matches_v1(cell, qc, nodes, config, design, lazy);
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
  config.set_topology(net::Topology::chain(2));
  const Circuit qaoa = gen::make_benchmark(gen::BenchmarkId::QAOA_R4_32);
  const std::vector<int> qaoa_nodes =
      runtime::partition_circuit(qaoa, 2).assignment;
  ArchConfig ring4;
  ring4.num_nodes = 4;
  ring4.set_topology(net::Topology::ring(4));
  for (const DesignKind design : runtime::distributed_designs()) {
    const std::string name = runtime::design_name(design);
    expect_matches_v1("remote_bound_" + name, remote_bound_circuit(),
                      two_node_assignment(), config, design);
    expect_matches_v1("ring4_" + name, four_node_circuit(),
                      four_node_assignment(), ring4, design);
    expect_matches_v1("qaoa_r4_32_" + name, qaoa, qaoa_nodes, config, design);
    expect_matches_v1("buffer_bound_" + name, buffer_bound_circuit(),
                      two_node_assignment(), config, design);
  }
}

TEST(ReplayFormatV2, Chain6ComposedMatchesPerWindowReference) {
  const Circuit qc = chain6_circuit();
  for (const DesignKind design : {DesignKind::AsyncBuf, DesignKind::SyncBuf}) {
    expect_matches_v1("chain6_composed_" + runtime::design_name(design), qc,
                      chain6_assignment(), chain6_config(), design);
  }
}

TEST(ReplayFormatV2, Chain6SwapAsYouGoMatchesPerWindowReference) {
  ArchConfig config = chain6_config();
  config.swap_as_you_go = true;
  expect_matches_v1("chain6_swapgo", chain6_circuit(), chain6_assignment(),
                    config, DesignKind::AsyncBuf);
}

TEST(ReplayFormatV2, FiniteCutoffMatchesPerWindowReference) {
  // A cutoff of 2.5 windows expires stock between the sparse remote gates:
  // parked services wake at expiries, not only at pops.
  ArchConfig config;
  config.set_topology(net::Topology::chain(2));
  config.buffer_cutoff = 25.0;
  expect_matches_v1("finite_cutoff", buffer_bound_circuit(),
                    two_node_assignment(), config, DesignKind::AsyncBuf);
}

TEST(ReplayFormatV2, LongGapBulkSettleMatchesPerWindowReference) {
  ArchConfig config;
  config.set_topology(net::Topology::chain(2));
  const Circuit qc = long_gap_circuit();
  for (const DesignKind design : {DesignKind::AsyncBuf, DesignKind::InitBuf}) {
    TrialSamples lazy;
    expect_matches_v1("long_gap_" + runtime::design_name(design), qc,
                      two_node_assignment(), config, design, lazy);
    // Each of the 6 wakes settles far more successes than the 10 pairs.
    EXPECT_GT(mean_of(lazy.wasted), 6.0 * 50.0);
  }
}

TEST(ReplayFormatV2, TruncatedTailMatchesPerWindowReference) {
  // The budget cuts the long-gap circuit about halfway: parked services
  // settle the tail from their last pop to the budget in stop().
  ArchConfig config;
  config.set_topology(net::Topology::chain(2));
  config.max_trial_sim_time = 1000.0;
  for (const DesignKind design : {DesignKind::AsyncBuf, DesignKind::InitBuf}) {
    TrialSamples lazy;
    expect_matches_v1("truncated_tail_" + runtime::design_name(design),
                      long_gap_circuit(), two_node_assignment(), config,
                      design, lazy);
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
    TrialSamples lazy;
    expect_matches_v1("stall_watchdog_" + runtime::design_name(design),
                      long_gap_circuit(), two_node_assignment(), config,
                      design, lazy);
    EXPECT_GT(mean_of(lazy.stalled), 0.2);
    EXPECT_LT(mean_of(lazy.stalled), 0.8);
  }
}

// Scenario cells: v1 pulled every window's parameters from the scenario;
// v4 changes them only at scenario boundaries.

/// 10 qubits on star(5) (hub 0): every leaf-to-leaf link crosses the hub.
Circuit star5_circuit() {
  Circuit qc(10);
  for (int rep = 0; rep < 3; ++rep) {
    qc.rzz(1, 2, 0.1);  // nodes 0-1
    qc.rzz(3, 5, 0.1);  // nodes 1-2
    qc.rzz(4, 7, 0.1);  // nodes 2-3
    qc.rzz(6, 9, 0.1);  // nodes 3-4
    qc.rzz(8, 0, 0.1);  // nodes 4-0
    qc.h(0);
  }
  return qc;
}

TEST(ReplayFormatV2, RandomLinkFailuresMatchPerWindowReference) {
  // Outages every ~100 time units of a ~40-unit repair on every edge:
  // links re-route, stall and recover several times per trial.
  Scenario scn;
  scn.random_failures.mtbf = 100.0;
  scn.random_failures.duration = 40.0;
  ArchConfig config;
  config.num_nodes = 4;
  config.set_scenario(scn);
  config.set_topology(net::Topology::chain(4));
  expect_matches_v1("failures_chain4_async_buf", four_node_circuit(),
                    four_node_assignment(), config, DesignKind::AsyncBuf);
  config.set_topology(net::Topology::ring(4));
  expect_matches_v1("failures_ring4_original", four_node_circuit(),
                    four_node_assignment(), config, DesignKind::Original);
  config.num_nodes = 5;
  config.set_topology(net::Topology::star(5));
  expect_matches_v1("failures_star5_init_buf", star5_circuit(),
                    {0, 0, 1, 1, 2, 2, 3, 3, 4, 4}, config,
                    DesignKind::InitBuf);
}

TEST(ReplayFormatV2, Chain6SwapAsYouGoSalvageMatchesPerWindowReference) {
  ArchConfig config = chain6_config();
  config.swap_as_you_go = true;
  config.salvage_pairs = true;
  Scenario scn;
  scn.random_failures.mtbf = 150.0;
  scn.random_failures.duration = 30.0;
  config.set_scenario(scn);
  expect_matches_v1("failures_chain6_swapgo_salvage", chain6_circuit(),
                    chain6_assignment(), config, DesignKind::AsyncBuf);
}

TEST(ReplayFormatV2, NodeOutageFlushMatchesPerWindowReference) {
  // Buffer-bound swap-as-you-go on chain(2): the edge buffer is full, and
  // in about a fifth of the trials its service is parked, when node 1 goes
  // down at t = 40 and the outage flushes it.
  ArchConfig config;
  config.set_topology(net::Topology::chain(2));
  config.swap_as_you_go = true;
  config.salvage_pairs = true;
  Scenario scn;
  scn.node_outages.push_back({1, 40.0, 30.0});
  config.set_scenario(scn);
  TrialSamples lazy;
  expect_matches_v1("node_outage_flush", buffer_bound_circuit(),
                    two_node_assignment(), config, DesignKind::AsyncBuf, lazy);
  EXPECT_GT(mean_of(lazy.downtime), 0.0);
}

TEST(ReplayFormatV2, GridAlignedLinkOutageMatchesPerWindowReference) {
  // Both ends of the outage fall on the synchronous window grid (cycle
  // 10): windows completing at 60 and at 110 meet the boundary at their
  // own instant, which is the same-instant tie rule's case.
  ArchConfig config;
  config.set_topology(net::Topology::chain(2));
  Scenario scn;
  scn.link_outages.push_back({0, 1, 60.0, 50.0});
  config.set_scenario(scn);
  for (const DesignKind design : {DesignKind::SyncBuf, DesignKind::Original}) {
    expect_matches_v1("grid_outage_" + runtime::design_name(design),
                      remote_bound_circuit(), two_node_assignment(), config,
                      design);
  }
}

TEST(ReplayFormatV2, StepDriftMatchesPerWindowReference) {
  ArchConfig config;
  config.set_topology(net::Topology::chain(2));
  Scenario scn;
  DriftTrack step;
  step.field = DriftField::PSucc;
  step.kind = DriftKind::Step;
  step.times = {25.0, 80.0, 143.0};
  step.levels = {0.3, 1.6, 0.7};
  scn.drift.push_back(step);
  config.set_scenario(scn);
  expect_matches_v1("step_drift_async_buf", remote_bound_circuit(),
                    two_node_assignment(), config, DesignKind::AsyncBuf);
}

TEST(ReplayFormatV2, RandomWalkDriftMatchesPerWindowReference) {
  ArchConfig config;
  config.num_nodes = 4;
  config.set_topology(net::Topology::ring(4));
  Scenario scn;
  DriftTrack walk;
  walk.field = DriftField::PSucc;
  walk.kind = DriftKind::RandomWalk;
  walk.walk_interval = 15.0;
  walk.walk_step = 0.3;
  walk.walk_min = 0.3;
  walk.walk_max = 1.5;
  scn.drift.push_back(walk);
  config.set_scenario(scn);
  expect_matches_v1("random_walk_sync_buf", four_node_circuit(),
                    four_node_assignment(), config, DesignKind::SyncBuf);
}

TEST(ReplayFormatV2, CalibrationSnapshotMatchesPerWindowReference) {
  ArchConfig config;
  config.num_nodes = 4;
  config.set_topology(net::Topology::ring(4));
  Scenario scn;
  scn.snapshots.push_back({1, 30.0, 0.4, 0.97});
  scn.snapshots.push_back({1, 90.0, 1.2, 1.0});
  config.set_scenario(scn);
  expect_matches_v1("snapshot_adapt_buf", four_node_circuit(),
                    four_node_assignment(), config, DesignKind::AdaptBuf);
}

TEST(ReplayFormatV2, F0OnlyDriftMatchesPerWindowReference) {
  // Only the birth fidelity moves: no redraw, but deposits and on-demand
  // heralds must carry the fidelity of their own instant.
  ArchConfig config;
  config.set_topology(net::Topology::chain(2));
  Scenario scn;
  DriftTrack step;
  step.field = DriftField::F0;
  step.kind = DriftKind::Step;
  step.times = {30.0, 70.0, 120.0};
  step.levels = {0.97, 0.93, 0.99};
  scn.drift.push_back(step);
  config.set_scenario(scn);
  for (const DesignKind design : {DesignKind::AsyncBuf, DesignKind::Original}) {
    expect_matches_v1("f0_drift_" + runtime::design_name(design),
                      remote_bound_circuit(), two_node_assignment(), config,
                      design);
  }
}

TEST(ScenarioDeterminism, UnitScaleScenarioIsBitIdenticalToStationary) {
  // Tracks and snapshots that scale by exactly 1.0 leave every service's
  // effective link bitwise unchanged, so each boundary's push is a no-op
  // and the trial draws the stationary stream, composed or swap-as-you-go.
  Scenario unit = unit_step_scenario();
  DriftTrack step;
  step.field = DriftField::PSucc;
  step.kind = DriftKind::Step;
  step.node_a = 1;
  step.node_b = 2;
  step.times = {0.0, 35.0, 90.0};
  step.levels = {1.0, 1.0, 1.0};
  unit.drift.push_back(step);
  DriftTrack walk;
  walk.field = DriftField::F0;
  walk.kind = DriftKind::RandomWalk;
  walk.walk_interval = 20.0;
  walk.walk_step = 0.0;
  unit.drift.push_back(walk);
  unit.snapshots.push_back({3, 45.0, 1.0, 1.0});
  for (const bool swap_go : {false, true}) {
    ArchConfig plain = chain6_config();
    plain.swap_as_you_go = swap_go;
    ArchConfig scenario = plain;
    scenario.set_scenario(unit);
    for (const DesignKind design : runtime::distributed_designs()) {
      SCOPED_TRACE(runtime::design_name(design) +
                   (swap_go ? " swap-as-you-go" : " composed"));
      expect_identical(
          runtime::run_design(chain6_circuit(), chain6_assignment(), plain,
                              design, 32, 77, 1),
          runtime::run_design(chain6_circuit(), chain6_assignment(), scenario,
                              design, 32, 77, 1));
    }
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
  return runtime::RunContext().execute(qc, nodes, config, design, seed);
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
  EXPECT_GE(r.outage_events, 1u);
  // The end-of-trial close: every logical link is routeless from t = 0 and
  // accrues its downtime up to the 400 horizon, exactly.
  std::set<std::pair<int, int>> link_pairs;  // node pairs with remote gates
  for (std::size_t g = 0; g < qc.num_gates(); ++g) {
    const Gate& gate = qc.gate(g);
    if (gate.arity() != 2) continue;
    const int a = nodes[static_cast<std::size_t>(gate.q0())];
    const int b = nodes[static_cast<std::size_t>(gate.q1())];
    if (a != b) link_pairs.insert(std::minmax(a, b));
  }
  EXPECT_EQ(r.outage_downtime,
            400.0 * static_cast<double>(link_pairs.size()));

  // Traced, the same trial exports one outage span per logical link and
  // per ring edge, each opened at t = 0 and closed at the horizon.
  ArchConfig traced = config;
  traced.observe = obs::make_observe();
  traced.observe->trace_seed = 1;  // run_once's seed
  runtime::run_design(qc, nodes, traced, DesignKind::AsyncBuf, 1, 1, 1);
  const std::string json = traced.observe->collector.trace_json();
  std::size_t opened = 0;
  std::size_t closed = 0;
  for (std::size_t at = json.find("\"outage\""); at != std::string::npos;
       at = json.find("\"outage\"", at + 1)) {
    const std::string event = json.substr(at, json.find('}', at) - at);
    if (event.find("\"ph\": \"b\"") != std::string::npos) {
      ++opened;
      EXPECT_NE(event.find("\"ts\": 0,"), std::string::npos) << event;
    } else {
      ++closed;
      EXPECT_NE(event.find("\"ph\": \"e\""), std::string::npos) << event;
      EXPECT_NE(event.find("\"ts\": 400,"), std::string::npos) << event;
    }
  }
  EXPECT_EQ(opened, link_pairs.size() + 4);
  EXPECT_EQ(closed, opened);

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
