/// Unit tests for the runtime: design enumeration, architecture config,
/// and the execution engine on small hand-analyzable circuits.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "expect_identical.hpp"
#include "gen/benchmarks.hpp"
#include "runtime/arch_config.hpp"
#include "runtime/design.hpp"
#include "runtime/engine.hpp"
#include "runtime/experiment.hpp"
#include "runtime/metrics.hpp"

namespace dqcsim::runtime {
namespace {

ArchConfig paper_config() { return ArchConfig{}; }

/// 2 data qubits on different nodes plus one remote CX.
Circuit single_remote_cx() {
  Circuit qc(2);
  qc.cx(0, 1);
  return qc;
}

RunResult run_once(const Circuit& qc, const std::vector<int>& assignment,
                   const ArchConfig& config, DesignKind design,
                   std::uint64_t seed = 1) {
  return RunContext().execute(qc, assignment, config, design, seed);
}

/// 24 two-qubit gates on a 2|2 split, half of them remote.
Circuit gen_heavy_circuit() {
  Circuit qc(4);
  for (int rep = 0; rep < 6; ++rep) {
    qc.rzz(0, 2, 0.1);
    qc.rzz(1, 3, 0.1);
    qc.rzz(0, 1, 0.1);
    qc.rzz(2, 3, 0.1);
  }
  return qc;
}

std::vector<int> heavy_assignment() { return {0, 0, 1, 1}; }

// ----------------------------------------------------------------- design ----

TEST(Design, NamesMatchPaper) {
  EXPECT_EQ(design_name(DesignKind::Original), "original");
  EXPECT_EQ(design_name(DesignKind::SyncBuf), "sync_buf");
  EXPECT_EQ(design_name(DesignKind::AsyncBuf), "async_buf");
  EXPECT_EQ(design_name(DesignKind::AdaptBuf), "adapt_buf");
  EXPECT_EQ(design_name(DesignKind::InitBuf), "init_buf");
  EXPECT_EQ(design_name(DesignKind::IdealMono), "ideal");
}

TEST(Design, FeatureMatrix) {
  EXPECT_FALSE(design_uses_buffer(DesignKind::Original));
  EXPECT_TRUE(design_uses_buffer(DesignKind::SyncBuf));
  EXPECT_FALSE(design_uses_async(DesignKind::SyncBuf));
  EXPECT_TRUE(design_uses_async(DesignKind::AsyncBuf));
  EXPECT_FALSE(design_uses_adaptive(DesignKind::AsyncBuf));
  EXPECT_TRUE(design_uses_adaptive(DesignKind::AdaptBuf));
  EXPECT_TRUE(design_uses_adaptive(DesignKind::InitBuf));
  EXPECT_TRUE(design_uses_prefill(DesignKind::InitBuf));
  EXPECT_FALSE(design_uses_prefill(DesignKind::AdaptBuf));
}

TEST(Design, EnumerationsCoverAll) {
  EXPECT_EQ(all_designs().size(), 6u);
  EXPECT_EQ(distributed_designs().size(), 5u);
}

// ------------------------------------------------------------- ArchConfig ----

TEST(ArchConfig, PaperDefaultsAreValid) {
  EXPECT_NO_THROW(paper_config().validate());
}

TEST(ArchConfig, ValidateCatchesBadFields) {
  const auto expect_bad = [](auto mutate) {
    ArchConfig config;
    mutate(config);
    EXPECT_THROW(config.validate(), ConfigError);
  };
  expect_bad([](ArchConfig& c) { c.num_nodes = 1; });
  expect_bad([](ArchConfig& c) { c.comm_per_node = 0; });
  expect_bad([](ArchConfig& c) { c.buffer_per_node = -1; });
  expect_bad([](ArchConfig& c) { c.p_succ = 0.0; });
  expect_bad([](ArchConfig& c) { c.kappa = -0.5; });
  expect_bad([](ArchConfig& c) { c.buffer_cutoff = -3.0; });
  expect_bad([](ArchConfig& c) { c.async_subgroups = 0; });
  expect_bad([](ArchConfig& c) { c.lat.local_cnot = 0.0; });
  expect_bad([](ArchConfig& c) { c.fid.local_cnot = 0.0; });
  expect_bad([](ArchConfig& c) { c.fid.epr_f0 = 0.1; });
  // NaN and infinity fail up front, not mid-run. buffer_cutoff and
  // max_trial_sim_time take +inf as their "off" value but reject NaN.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kNan, kInf}) {
    expect_bad([bad](ArchConfig& c) { c.kappa = bad; });
    expect_bad([bad](ArchConfig& c) { c.lat.one_qubit = bad; });
    expect_bad([bad](ArchConfig& c) { c.lat.local_cnot = bad; });
    expect_bad([bad](ArchConfig& c) { c.lat.measurement = bad; });
    expect_bad([bad](ArchConfig& c) { c.lat.epr_cycle = bad; });
    expect_bad([bad](ArchConfig& c) { c.lat.swap_buffer = bad; });
    expect_bad([bad](ArchConfig& c) { c.lat.remote_gate = bad; });
    expect_bad([bad](ArchConfig& c) { c.lat.remote_gate_state = bad; });
    expect_bad([bad](ArchConfig& c) { c.purification_latency = bad; });
  }
  expect_bad([](ArchConfig& c) { c.buffer_cutoff = kNan; });
  expect_bad([](ArchConfig& c) { c.max_trial_sim_time = kNan; });
  ArchConfig off;
  off.buffer_cutoff = kInf;
  off.max_trial_sim_time = kInf;
  EXPECT_NO_THROW(off.validate());
}

TEST(ArchConfig, LinkParamsFollowDesignFeatures) {
  const ArchConfig config = paper_config();
  const auto original = config.link_params(DesignKind::Original);
  EXPECT_EQ(original.buffer_capacity, 0);
  EXPECT_EQ(original.schedule, ent::AttemptSchedule::Synchronous);

  const auto sync = config.link_params(DesignKind::SyncBuf);
  EXPECT_EQ(sync.buffer_capacity, 10);
  EXPECT_EQ(sync.schedule, ent::AttemptSchedule::Synchronous);

  const auto async = config.link_params(DesignKind::AsyncBuf);
  EXPECT_EQ(async.schedule, ent::AttemptSchedule::Asynchronous);
  EXPECT_EQ(async.num_comm_pairs, 10);
  EXPECT_DOUBLE_EQ(async.cycle_time, 10.0);
}

TEST(ArchConfig, EffectiveSegmentSizeUsesPaperDefault) {
  ArchConfig config;
  EXPECT_EQ(config.effective_segment_size(), 4u);  // 10 * 0.4
  config.segment_size = 7;
  EXPECT_EQ(config.effective_segment_size(), 7u);
  config.segment_size = 0;
  config.comm_per_node = 20;
  EXPECT_EQ(config.effective_segment_size(), 8u);
}

// -------------------------------------------------------------- ideal runs ----

TEST(Engine, IdealDepthOfSerialCnotChain) {
  Circuit qc(3);
  qc.cx(0, 1);
  qc.cx(1, 2);
  qc.cx(0, 1);
  const double depth = ideal_depth(qc, paper_config());
  EXPECT_DOUBLE_EQ(depth, 3.0);
}

TEST(Engine, IdealDepthUsesGateLatencies) {
  Circuit qc(2);
  qc.h(0);       // 0.1
  qc.cx(0, 1);   // 1.0
  qc.measure(1); // 5.0
  EXPECT_NEAR(ideal_depth(qc, paper_config()), 6.1, 1e-9);
}

TEST(Engine, IdealFidelityIsGateProductTimesIdling) {
  Circuit qc(2);
  qc.h(0);
  qc.cx(0, 1);
  const ArchConfig config = paper_config();
  const double expected =
      0.9999 * 0.999 * std::exp(-config.kappa * 1.1);
  EXPECT_NEAR(ideal_fidelity(qc, config), expected, 1e-9);
}

TEST(Engine, FidelityBelowTheDoubleRangeStaysPositive) {
  // exp(-kappa * t) for kappa * t = 1e4 underflows to 0; the trial still
  // reports a positive fidelity, the smallest double.
  Circuit qc(2);
  qc.cx(0, 1);
  ArchConfig config = paper_config();
  config.kappa = 1e4;
  const RunResult r = run_once(qc, {}, config, DesignKind::IdealMono);
  EXPECT_EQ(r.fidelity, std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(r.fidelity_idling, 0.0);  // the breakdown is not floored
}

TEST(Engine, IdealTreatsRemotePairsAsLocal) {
  const Circuit qc = single_remote_cx();
  const RunResult r = run_once(qc, {}, paper_config(), DesignKind::IdealMono);
  EXPECT_DOUBLE_EQ(r.depth, 1.0);
  EXPECT_EQ(r.remote_gates, 0u);
  EXPECT_EQ(r.epr_attempts, 0u);
}

// ----------------------------------------------------------- remote timing ----

TEST(Engine, SyncBufSingleRemoteGateWaitsForFirstPair) {
  // First sync completion at t=10, swap 1 -> pair available at 11; the
  // remote gate then occupies its data qubits for 1 unit -> depth 12.
  const Circuit qc = single_remote_cx();
  ArchConfig config = paper_config();
  config.p_succ = 1.0;  // deterministic first window
  const RunResult r = run_once(qc, {0, 1}, config, DesignKind::SyncBuf);
  EXPECT_NEAR(r.depth, 12.0, 1e-9);
  EXPECT_EQ(r.remote_gates, 1u);
  EXPECT_NEAR(r.avg_remote_wait, 11.0, 1e-9);
}

TEST(Engine, InitBufSingleRemoteGateStartsImmediately) {
  const Circuit qc = single_remote_cx();
  ArchConfig config = paper_config();
  config.p_succ = 1.0;
  const RunResult r = run_once(qc, {0, 1}, config, DesignKind::InitBuf);
  EXPECT_NEAR(r.depth, 1.0, 1e-9);
  EXPECT_NEAR(r.avg_remote_wait, 0.0, 1e-9);
  EXPECT_NEAR(r.avg_pair_age, 0.0, 1e-9);
}

TEST(Engine, AsyncBufFirstPairArrivesEarlier) {
  // Async steady-state offsets put the earliest completion at t=1
  // (subgroup 1), deposit at 2 -> depth 3.
  const Circuit qc = single_remote_cx();
  ArchConfig config = paper_config();
  config.p_succ = 1.0;
  const RunResult r = run_once(qc, {0, 1}, config, DesignKind::AsyncBuf);
  EXPECT_NEAR(r.depth, 3.0, 1e-9);
}

TEST(Engine, OriginalConsumesAtHeraldingInstant) {
  // No buffer: the pair is consumed exactly at the t=10 completion; the
  // gate runs [10, 11].
  const Circuit qc = single_remote_cx();
  ArchConfig config = paper_config();
  config.p_succ = 1.0;
  const RunResult r = run_once(qc, {0, 1}, config, DesignKind::Original);
  EXPECT_NEAR(r.depth, 11.0, 1e-9);
  // 9 of the 10 simultaneous successes found no pending gate -> wasted.
  EXPECT_EQ(r.epr_wasted, 9u);
  EXPECT_EQ(r.epr_consumed, 1u);
}

TEST(Engine, LocalGatesBeforeRemoteOverlapGeneration) {
  // A long local prefix means the buffered pair (available at 11) is
  // already waiting when the remote gate becomes ready at t=20.
  Circuit qc(3);
  for (int i = 0; i < 20; ++i) qc.cx(0, 1);  // qubits 0,1 stay on node 0
  qc.cx(1, 2);                               // remote
  ArchConfig config = paper_config();
  config.p_succ = 1.0;
  const RunResult r = run_once(qc, {0, 0, 1}, config, DesignKind::SyncBuf);
  EXPECT_NEAR(r.depth, 21.0, 1e-9);
  EXPECT_NEAR(r.avg_remote_wait, 0.0, 1e-9);
  EXPECT_NEAR(r.avg_pair_age, 9.0, 1e-9);  // deposited at 11, used at 20
}

TEST(Engine, RemoteFidelityReflectsPairAge) {
  // Same circuit as above: the consumed pair is 9 units old, so the
  // remote-gate fidelity must be below the fresh-pair teleport fidelity.
  Circuit qc(3);
  for (int i = 0; i < 20; ++i) qc.cx(0, 1);
  qc.cx(1, 2);
  ArchConfig config = paper_config();
  config.p_succ = 1.0;
  const RunResult aged = run_once(qc, {0, 0, 1}, config, DesignKind::SyncBuf);
  const RunResult fresh =
      run_once(qc, {0, 0, 1}, config, DesignKind::InitBuf);
  // init_buf consumes a fresh pre-filled pair... which has age 20 at use.
  // Compare against the single-gate fresh case instead:
  const RunResult baseline =
      run_once(single_remote_cx(), {0, 1}, config, DesignKind::Original);
  EXPECT_LT(aged.fidelity_remote, baseline.fidelity_remote);
  (void)fresh;
}

// --------------------------------------------------------------- counters ----

TEST(Engine, EntanglementAccountingBalances) {
  const Circuit qc = gen_heavy_circuit();
  ArchConfig config = paper_config();
  const RunResult r =
      run_once(qc, heavy_assignment(), config, DesignKind::SyncBuf, 7);
  // successes = consumed + wasted + expired + still-buffered.
  EXPECT_GE(r.epr_successes,
            r.epr_consumed + r.epr_wasted + r.epr_expired);
  EXPECT_EQ(r.epr_consumed, r.remote_gates);
  EXPECT_GT(r.epr_attempts, r.epr_successes);
}

TEST(Engine, DeterministicForFixedSeed) {
  const Circuit qc = gen_heavy_circuit();
  const ArchConfig config = paper_config();
  const RunResult a =
      run_once(qc, heavy_assignment(), config, DesignKind::AsyncBuf, 42);
  const RunResult b =
      run_once(qc, heavy_assignment(), config, DesignKind::AsyncBuf, 42);
  expect_identical(a, b);
}

TEST(Engine, DifferentSeedsVaryOutcomes) {
  const Circuit qc = gen_heavy_circuit();
  const ArchConfig config = paper_config();
  const RunResult a =
      run_once(qc, heavy_assignment(), config, DesignKind::SyncBuf, 1);
  const RunResult b =
      run_once(qc, heavy_assignment(), config, DesignKind::SyncBuf, 2);
  // Stochastic generation: depths should differ at least sometimes.
  EXPECT_TRUE(a.depth != b.depth || a.epr_attempts != b.epr_attempts);
}

TEST(Engine, RejectsBadAssignments) {
  const Circuit qc = single_remote_cx();
  RunContext ctx;
  EXPECT_THROW(ctx.execute(qc, {0}, paper_config(), DesignKind::SyncBuf, 1),
               PreconditionError);
  EXPECT_THROW(
      ctx.execute(qc, {0, 2}, paper_config(), DesignKind::SyncBuf, 1),
      PreconditionError);
}

TEST(Engine, BufferedDesignNeedsBufferQubits) {
  const Circuit qc = single_remote_cx();
  ArchConfig config = paper_config();
  config.buffer_per_node = 0;
  EXPECT_THROW(run_once(qc, {0, 1}, config, DesignKind::SyncBuf),
               ConfigError);
  // The bufferless original design is fine without buffer qubits.
  EXPECT_NO_THROW(run_once(qc, {0, 1}, config, DesignKind::Original));
}

TEST(Engine, FidelityDecomposesMultiplicatively) {
  const Circuit qc = gen_heavy_circuit();
  const RunResult r = run_once(qc, heavy_assignment(), paper_config(),
                               DesignKind::AsyncBuf, 3);
  EXPECT_NEAR(
      r.fidelity,
      r.fidelity_local * r.fidelity_remote * r.fidelity_idling, 1e-9);
  EXPECT_GT(r.fidelity, 0.0);
  EXPECT_LE(r.fidelity, 1.0);
}

TEST(Engine, AdaptiveCountsSegmentDecisions) {
  const Circuit qc = gen_heavy_circuit();
  const RunResult r = run_once(qc, heavy_assignment(), paper_config(),
                               DesignKind::AdaptBuf, 5);
  const std::size_t total =
      r.segments_asap + r.segments_alap + r.segments_original;
  // 12 remote gates at m = 4 -> 3 segments.
  EXPECT_EQ(total, 3u);
}

TEST(Engine, NonAdaptiveDesignsMakeNoSegmentDecisions) {
  const Circuit qc = gen_heavy_circuit();
  const RunResult r = run_once(qc, heavy_assignment(), paper_config(),
                               DesignKind::AsyncBuf, 5);
  EXPECT_EQ(r.segments_asap + r.segments_alap + r.segments_original, 0u);
}

TEST(Engine, CutoffExpiresBufferedPairs) {
  // Long local prefix, tiny cutoff: the early pairs must expire.
  Circuit qc(3);
  for (int i = 0; i < 40; ++i) qc.cx(0, 1);
  qc.cx(1, 2);
  ArchConfig config = paper_config();
  config.p_succ = 1.0;
  config.buffer_cutoff = 5.0;
  const RunResult r = run_once(qc, {0, 0, 1}, config, DesignKind::SyncBuf);
  EXPECT_GT(r.epr_expired, 0u);
}

// ------------------------------------------------- state teleportation ----

TEST(StateTeleportRuntime, ConsumesTwoPairsPerRemoteGate) {
  const Circuit qc = single_remote_cx();
  ArchConfig config = paper_config();
  config.remote_impl = RemoteImpl::StateTeleport;
  config.p_succ = 1.0;
  const RunResult r = run_once(qc, {0, 1}, config, DesignKind::InitBuf);
  EXPECT_EQ(r.epr_consumed, 2u);
  EXPECT_NEAR(r.depth, config.lat.remote_gate_state, 1e-9);
}

TEST(StateTeleportRuntime, BufferedGateWaitsForBothPairs) {
  // sync_buf with one comm pair: deposits at 11, 21 -> gate starts at 21.
  const Circuit qc = single_remote_cx();
  ArchConfig config = paper_config();
  config.remote_impl = RemoteImpl::StateTeleport;
  config.comm_per_node = 1;
  config.p_succ = 1.0;
  const RunResult r = run_once(qc, {0, 1}, config, DesignKind::SyncBuf);
  EXPECT_NEAR(r.depth, 21.0 + config.lat.remote_gate_state, 1e-9);
}

TEST(StateTeleportRuntime, OriginalCollectsPairsAcrossHeralds) {
  // Bufferless design, one comm pair: heralds at 10 and 20; the first pair
  // is held (decaying) until the second completes the quota.
  const Circuit qc = single_remote_cx();
  ArchConfig config = paper_config();
  config.remote_impl = RemoteImpl::StateTeleport;
  config.comm_per_node = 1;
  config.p_succ = 1.0;
  const RunResult r = run_once(qc, {0, 1}, config, DesignKind::Original);
  EXPECT_NEAR(r.depth, 20.0 + config.lat.remote_gate_state, 1e-9);
  EXPECT_EQ(r.epr_consumed, 2u);
  EXPECT_NEAR(r.avg_pair_age, 5.0, 1e-9);  // ages 10 and 0
}

TEST(StateTeleportRuntime, LowerFidelityThanGateTeleport) {
  const Circuit qc = gen_heavy_circuit();
  ArchConfig gate_cfg = paper_config();
  ArchConfig state_cfg = paper_config();
  state_cfg.remote_impl = RemoteImpl::StateTeleport;
  const auto gate_agg = run_design(qc, heavy_assignment(), gate_cfg,
                                   DesignKind::AsyncBuf, 8);
  const auto state_agg = run_design(qc, heavy_assignment(), state_cfg,
                                    DesignKind::AsyncBuf, 8);
  EXPECT_LT(state_agg.fidelity.mean(), gate_agg.fidelity.mean());
  EXPECT_GT(state_agg.depth.mean(), gate_agg.depth.mean());
}

// -------------------------------------------------------------- multi-node ----

TEST(MultiNode, LinkParamsSplitResourcesAcrossLinks) {
  ArchConfig config = paper_config();
  config.num_nodes = 3;
  config.comm_per_node = 10;
  config.buffer_per_node = 10;
  const auto link = config.link_params(DesignKind::SyncBuf);
  EXPECT_EQ(link.num_comm_pairs, 5);  // 10 comm qubits over 2 links
  EXPECT_EQ(link.buffer_capacity, 5);
}

TEST(MultiNode, RejectsMoreLinksThanCommQubits) {
  ArchConfig config = paper_config();
  config.num_nodes = 12;
  config.comm_per_node = 10;
  EXPECT_THROW(config.link_params(DesignKind::SyncBuf), ConfigError);
}

TEST(MultiNode, LinkSplittingCoversEveryNodeCount) {
  // k-node all-to-all: each node splits its budget over k-1 links. Sweep
  // k = 2..16 at the paper's 10+10 budget: valid up to k = 11 (10 links),
  // ConfigError beyond.
  for (int k = 2; k <= 16; ++k) {
    ArchConfig config = paper_config();
    config.num_nodes = k;
    const int links = k - 1;
    if (links > config.comm_per_node) {
      EXPECT_THROW(config.link_params(DesignKind::SyncBuf), ConfigError)
          << "k=" << k;
      continue;
    }
    const auto link = config.link_params(DesignKind::SyncBuf);
    EXPECT_EQ(link.num_comm_pairs, 10 / links) << "k=" << k;
    EXPECT_EQ(link.buffer_capacity, std::max(1, 10 / links)) << "k=" << k;
    EXPECT_NO_THROW(link.validate()) << "k=" << k;
  }
}

TEST(MultiNode, UnevenSplitsRoundDownButStayPositive) {
  ArchConfig config = paper_config();
  // 10 comm over 3 links -> 3 pairs each (1 qubit idle per node).
  config.num_nodes = 4;
  const auto four = config.link_params(DesignKind::SyncBuf);
  EXPECT_EQ(four.num_comm_pairs, 3);
  EXPECT_EQ(four.buffer_capacity, 3);
  // 10 comm over 7 links -> 1 pair each; buffer clamps to >= 1 for
  // buffered designs even though 10 / 7 = 1 anyway.
  config.num_nodes = 8;
  const auto eight = config.link_params(DesignKind::SyncBuf);
  EXPECT_EQ(eight.num_comm_pairs, 1);
  EXPECT_EQ(eight.buffer_capacity, 1);
  // Exactly one comm qubit per link is the edge of validity.
  config.num_nodes = 11;
  EXPECT_EQ(config.link_params(DesignKind::SyncBuf).num_comm_pairs, 1);
  // Buffer clamp: a buffered design with a tiny buffer budget still gets
  // one slot per link; bufferless designs get none.
  config.num_nodes = 4;
  config.buffer_per_node = 1;
  EXPECT_EQ(config.link_params(DesignKind::SyncBuf).buffer_capacity, 1);
  EXPECT_EQ(config.link_params(DesignKind::Original).buffer_capacity, 0);
}

TEST(MultiNode, EngineSurfacesTheLinkSplittingError) {
  // The ConfigError must also fire end-to-end, not just in link_params.
  ArchConfig config = paper_config();
  config.num_nodes = 12;
  config.comm_per_node = 10;
  Circuit wide(12);
  for (int i = 0; i < 12; ++i) wide.h(i);
  wide.cx(0, 11);
  std::vector<int> nodes(12);
  for (int i = 0; i < 12; ++i) nodes[static_cast<std::size_t>(i)] = i;
  EXPECT_THROW(run_once(wide, nodes, config, DesignKind::SyncBuf),
               ConfigError);
}

TEST(MultiNode, FourNodeRingExecutes) {
  // 8 qubits over 4 nodes; ring of remote RZZ between adjacent nodes.
  Circuit qc(8);
  for (int rep = 0; rep < 3; ++rep) {
    qc.rzz(1, 2, 0.1);  // link 0-1
    qc.rzz(3, 4, 0.1);  // link 1-2
    qc.rzz(5, 6, 0.1);  // link 2-3
    qc.rzz(7, 0, 0.1);  // link 3-0
    qc.rzz(0, 1, 0.1);  // local on node 0
  }
  const std::vector<int> nodes{0, 0, 1, 1, 2, 2, 3, 3};
  ArchConfig config = paper_config();
  config.num_nodes = 4;
  const RunResult r = run_once(qc, nodes, config, DesignKind::AsyncBuf, 3);
  EXPECT_EQ(r.remote_gates, 12u);
  EXPECT_EQ(r.epr_consumed, 12u);
  EXPECT_GT(r.fidelity, 0.0);
}

TEST(MultiNode, IndependentLinksServeInParallel) {
  // Two remote gates on DIFFERENT links with deterministic generation both
  // start at their link's first deposit; a shared link would serialize.
  Circuit qc(4);
  qc.rzz(0, 1, 0.1);  // link 0-1
  qc.rzz(2, 3, 0.1);  // link 2-3
  const std::vector<int> nodes{0, 1, 2, 3};
  ArchConfig config = paper_config();
  config.num_nodes = 4;
  config.comm_per_node = 3;
  config.buffer_per_node = 3;
  config.p_succ = 1.0;
  const RunResult r = run_once(qc, nodes, config, DesignKind::SyncBuf, 1);
  // Both gates wait for their own link's first pair (t = 11) and run in
  // parallel: makespan 12, not 12 + another generation round.
  EXPECT_NEAR(r.depth, 12.0, 1e-9);
}

TEST(MultiNode, SharedLinkSerializesUnderScarcity) {
  // Two remote gates on the SAME link with a single comm pair: the second
  // gate must wait a full extra cycle.
  Circuit qc(4);
  qc.rzz(0, 2, 0.1);
  qc.rzz(1, 3, 0.1);
  const std::vector<int> nodes{0, 0, 1, 1};
  ArchConfig config = paper_config();
  config.comm_per_node = 1;
  config.buffer_per_node = 1;
  config.p_succ = 1.0;
  const RunResult r = run_once(qc, nodes, config, DesignKind::SyncBuf, 1);
  EXPECT_NEAR(r.depth, 22.0, 1e-9);  // deposits at 11 and 21
}

TEST(MultiNode, FourWayPartitionOfBenchmarkRuns) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = partition_circuit(qc, 4);
  ArchConfig config = paper_config();
  config.num_nodes = 4;
  const auto agg = run_design(qc, part.assignment, config,
                              DesignKind::AsyncBuf, 4);
  EXPECT_GT(agg.depth.mean(), 0.0);
  EXPECT_GT(agg.fidelity.mean(), 0.0);
  EXPECT_LE(agg.fidelity.max(), 1.0);
}

// ------------------------------------------------------------ purification ----

TEST(PurificationRuntime, ConsumesTwoPairsAndDelaysStart) {
  const Circuit qc = single_remote_cx();
  ArchConfig config = paper_config();
  config.purify_on_consume = true;
  config.p_succ = 1.0;
  // init_buf: both pairs available at t=0; BBPSSW at F0=0.99 succeeds with
  // probability ~0.987, so pick a seed where the first roll succeeds.
  const RunResult r = run_once(qc, {0, 1}, config, DesignKind::InitBuf, 3);
  ASSERT_EQ(r.purification_failures, 0u);
  EXPECT_EQ(r.purification_rounds, 1u);
  EXPECT_EQ(r.epr_consumed, 2u);
  EXPECT_NEAR(r.depth, config.purification_latency + config.lat.remote_gate,
              1e-9);
}

TEST(PurificationRuntime, ImprovesRemoteFidelityForNoisyPairs) {
  // With f0 = 0.9 the purified pair is markedly better; compare the remote
  // fidelity factor of the same workload with and without purification.
  const Circuit qc = gen_heavy_circuit();
  ArchConfig plain = paper_config();
  plain.fid.epr_f0 = 0.9;
  ArchConfig purified = plain;
  purified.purify_on_consume = true;
  const auto base = run_design(qc, heavy_assignment(), plain,
                               DesignKind::InitBuf, 10);
  const auto pure = run_design(qc, heavy_assignment(), purified,
                               DesignKind::InitBuf, 10);
  // Depth cost is real (2x demand + local rounds)...
  EXPECT_GT(pure.depth.mean(), base.depth.mean());
  // ...but the average consumed-pair quality must rise; check via a direct
  // single-run comparison of the remote-fidelity product.
  const double per_gate_base = std::pow(
      run_once(qc, heavy_assignment(), plain, DesignKind::InitBuf, 7)
          .fidelity_remote,
      1.0 / 12.0);
  const double per_gate_pure = std::pow(
      run_once(qc, heavy_assignment(), purified, DesignKind::InitBuf, 7)
          .fidelity_remote,
      1.0 / 12.0);
  EXPECT_GT(per_gate_pure, per_gate_base);
}

TEST(PurificationRuntime, FailuresAreCountedAndRetried) {
  // Force failures: f0 = 0.5 gives success probability ~0.56 per round, so
  // across enough gates some rounds must fail — and every gate still
  // completes (retry logic).
  const Circuit qc = gen_heavy_circuit();
  ArchConfig config = paper_config();
  config.fid.epr_f0 = 0.5;
  config.purify_on_consume = true;
  const auto agg = run_design(qc, heavy_assignment(), config,
                              DesignKind::AsyncBuf, 10);
  EXPECT_EQ(agg.depth.count(), 10u);  // all runs completed
  const RunResult one =
      run_once(qc, heavy_assignment(), config, DesignKind::AsyncBuf, 11);
  EXPECT_GE(one.purification_rounds, 12u);  // >= one round per remote gate
  EXPECT_EQ(one.purification_rounds - one.purification_failures, 12u);
}

// ------------------------------------------------------------- experiment ----

TEST(Experiment, RunDesignAggregates) {
  const Circuit qc = gen_heavy_circuit();
  const AggregateResult agg = run_design(qc, heavy_assignment(),
                                         paper_config(),
                                         DesignKind::SyncBuf, 10);
  EXPECT_EQ(agg.depth.count(), 10u);
  EXPECT_GT(agg.depth.mean(), 0.0);
  EXPECT_GT(agg.fidelity.mean(), 0.0);
  EXPECT_LE(agg.fidelity.max(), 1.0);
}

TEST(Experiment, PartitionCircuitBalances) {
  Circuit qc(4);
  qc.cx(0, 1);
  qc.cx(0, 1);
  qc.cx(2, 3);
  qc.cx(2, 3);
  qc.cx(1, 2);
  const auto part = partition_circuit(qc, 2);
  EXPECT_EQ(part.k, 2);
  EXPECT_EQ(part.cut, 1);
  EXPECT_DOUBLE_EQ(part.balance, 1.0);
  // The heavy pairs stay together.
  EXPECT_EQ(part.assignment[0], part.assignment[1]);
  EXPECT_EQ(part.assignment[2], part.assignment[3]);
  EXPECT_NE(part.assignment[0], part.assignment[2]);
}

}  // namespace
}  // namespace dqcsim::runtime
