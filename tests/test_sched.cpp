/// Unit tests for the scheduler: remote-gate classification, segmentation,
/// ASAP/ALAP variant generation, and the adaptive policy. Includes unitary-
/// equivalence property tests of the variants via the density-matrix
/// simulator.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>

#include "circuit/commutation.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "gen/benchmarks.hpp"
#include "gen/qaoa.hpp"
#include "gen/tlim.hpp"
#include "qsim/density_matrix.hpp"
#include "runtime/experiment.hpp"
#include "sched/adaptive_policy.hpp"
#include "sched/fusible_chains.hpp"
#include "sched/remote_gates.hpp"
#include "sched/segmentation.hpp"
#include "sched/variants.hpp"

namespace dqcsim::sched {
namespace {

/// 4 qubits split 2|2; RZZ(1,2) and CX(1,2) style gates are remote.
const std::vector<int> kSplit22{0, 0, 1, 1};

Circuit mixed_circuit() {
  Circuit qc(4);
  qc.h(0);            // 0 local 1q
  qc.rzz(0, 1, 0.3);  // 1 local 2q
  qc.rzz(1, 2, 0.3);  // 2 REMOTE
  qc.rx(3, 0.2);      // 3 local 1q
  qc.rzz(2, 3, 0.3);  // 4 local 2q
  qc.rzz(0, 2, 0.3);  // 5 REMOTE
  qc.rzz(1, 3, 0.3);  // 6 REMOTE
  qc.rx(0, 0.2);      // 7
  return qc;
}

// --------------------------------------------------------- classification ----

TEST(RemoteGates, ClassifiesByPartition) {
  const Circuit qc = mixed_circuit();
  const GatePlacement placement = classify_gates(qc, kSplit22);
  EXPECT_EQ(placement.num_remote_2q, 3u);
  EXPECT_EQ(placement.num_local_2q, 2u);
  EXPECT_EQ(placement.num_1q, 3u);
  EXPECT_FALSE(placement.remote(1));
  EXPECT_TRUE(placement.remote(2));
  EXPECT_TRUE(placement.remote(5));
  EXPECT_TRUE(placement.remote(6));
}

TEST(RemoteGates, MeasurementsAreCountedSeparately) {
  Circuit qc(2);
  qc.measure(0);
  qc.measure(1);
  const GatePlacement placement = classify_gates(qc, {0, 1});
  EXPECT_EQ(placement.num_measure, 2u);
  EXPECT_EQ(placement.num_1q, 0u);
}

TEST(RemoteGates, RequiresFullAssignment) {
  const Circuit qc = mixed_circuit();
  EXPECT_THROW(classify_gates(qc, {0, 1}), PreconditionError);
}

TEST(RemoteGates, DistanceStatsFollowTheRouter) {
  // Qubits on chain nodes {0, 1, 1, 3}: one adjacent remote gate, one
  // 3-hop remote gate, one local gate.
  Circuit qc(4);
  qc.cx(0, 1);  // nodes 0-1: 1 hop
  qc.cx(0, 3);  // nodes 0-3: 3 hops
  qc.cx(1, 2);  // both on node 1: local
  qc.h(0);
  const std::vector<int> assignment{0, 1, 1, 3};
  const GatePlacement placement = classify_gates(qc, assignment);
  const net::Router router(net::Topology::chain(4));
  const RemoteDistanceStats stats =
      remote_distance_stats(qc, assignment, placement, router);
  EXPECT_EQ(stats.multihop_gates, 1u);
  EXPECT_EQ(stats.total_hops, 4u);
  EXPECT_EQ(stats.total_swaps, 2u);
  EXPECT_EQ(stats.max_hops, 3);

  // All-to-all: every remote gate is one hop, no swaps.
  const net::Router full(net::Topology::all_to_all(4));
  const RemoteDistanceStats flat =
      remote_distance_stats(qc, assignment, placement, full);
  EXPECT_EQ(flat.multihop_gates, 0u);
  EXPECT_EQ(flat.total_swaps, 0u);
  EXPECT_EQ(flat.max_hops, 1);
}

// ------------------------------------------------------------ segmentation ----

TEST(Segmentation, SplitsAtRemoteQuota) {
  const Circuit qc = mixed_circuit();
  const GatePlacement placement = classify_gates(qc, kSplit22);
  const auto segments = segment_by_remote_gates(placement, 1);
  // Remote gates at indices 2, 5, 6 -> boundaries before 5 and before 6.
  ASSERT_EQ(segments.size(), 3u);
  EXPECT_EQ(segments[0].begin, 0u);
  EXPECT_EQ(segments[0].end, 5u);
  EXPECT_EQ(segments[0].num_remote, 1u);
  EXPECT_EQ(segments[1].begin, 5u);
  EXPECT_EQ(segments[1].end, 6u);
  EXPECT_EQ(segments[2].begin, 6u);
  EXPECT_EQ(segments[2].end, 8u);
}

TEST(Segmentation, LargeQuotaGivesSingleSegment) {
  const Circuit qc = mixed_circuit();
  const GatePlacement placement = classify_gates(qc, kSplit22);
  const auto segments = segment_by_remote_gates(placement, 10);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].size(), qc.num_gates());
  EXPECT_EQ(segments[0].num_remote, 3u);
}

TEST(Segmentation, NoRemoteGatesGivesSingleSegment) {
  Circuit qc(2);
  qc.h(0);
  qc.cx(0, 1);
  const GatePlacement placement = classify_gates(qc, {0, 0});
  const auto segments = segment_by_remote_gates(placement, 1);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].num_remote, 0u);
}

class SegmentationProperty
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(SegmentationProperty, SegmentsPartitionTheCircuitExactly) {
  const auto [degree, quota] = GetParam();
  Rng rng(1000 + static_cast<std::uint64_t>(degree));
  const Circuit qc = gen::make_qaoa_regular(16, degree, rng);
  std::vector<int> assignment(16);
  for (int i = 0; i < 16; ++i) assignment[static_cast<std::size_t>(i)] = i / 8;
  const GatePlacement placement = classify_gates(qc, assignment);
  const auto segments = segment_by_remote_gates(placement, quota);

  // Coverage: contiguous, ordered, exact.
  std::size_t expected_begin = 0;
  std::size_t total_remote = 0;
  for (const Segment& s : segments) {
    EXPECT_EQ(s.begin, expected_begin);
    EXPECT_LT(s.begin, s.end);
    expected_begin = s.end;
    total_remote += s.num_remote;
    EXPECT_LE(s.num_remote, quota);
  }
  EXPECT_EQ(expected_begin, qc.num_gates());
  EXPECT_EQ(total_remote, placement.num_remote_2q);
  // All segments except possibly the last hit the quota exactly.
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    EXPECT_EQ(segments[i].num_remote, quota);
  }
}

INSTANTIATE_TEST_SUITE_P(
    QuotaSweep, SegmentationProperty,
    ::testing::Combine(::testing::Values(2, 4, 6),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{4}, std::size_t{8})));

TEST(Segmentation, DefaultSizeFollowsPaperFormula) {
  EXPECT_EQ(default_segment_size(10, 0.4), 4u);
  EXPECT_EQ(default_segment_size(20, 0.4), 8u);
  EXPECT_EQ(default_segment_size(1, 0.1), 1u);  // clamped to >= 1
  EXPECT_EQ(default_segment_size(15, 0.4), 6u);
}

TEST(Segmentation, RejectsZeroQuota) {
  const GatePlacement placement;
  EXPECT_THROW(segment_by_remote_gates(placement, 0), PreconditionError);
}

// ---------------------------------------------------------------- variants ----

/// The variant table of the whole circuit as one segment.
SegmentVariantTable whole_circuit_table(const Circuit& qc,
                                        const GatePlacement& placement) {
  return SegmentVariantTable(
      qc, placement, {Segment{0, qc.num_gates(), placement.num_remote_2q}});
}

TEST(Variants, OriginalPreservesProgramOrder) {
  const Circuit qc = mixed_circuit();
  const GatePlacement placement = classify_gates(qc, kSplit22);
  const SegmentVariantTable table = whole_circuit_table(qc, placement);
  const auto& order = table.order(0, SchedulingPolicy::Original);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(Variants, OrdersArePermutationsOfTheSegment) {
  const Circuit qc = mixed_circuit();
  const GatePlacement placement = classify_gates(qc, kSplit22);
  const SegmentVariantTable table = whole_circuit_table(qc, placement);
  for (auto policy : {SchedulingPolicy::Asap, SchedulingPolicy::Alap}) {
    const auto& order = table.order(0, policy);
    std::set<std::size_t> unique(order.begin(), order.end());
    EXPECT_EQ(unique.size(), qc.num_gates());
    EXPECT_EQ(*unique.begin(), 0u);
    EXPECT_EQ(*unique.rbegin(), qc.num_gates() - 1);
  }
}

/// Average position of remote gates within an order (lower = earlier).
double mean_remote_position(const std::vector<std::size_t>& order,
                            const GatePlacement& placement) {
  double sum = 0.0;
  int count = 0;
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    if (placement.remote(order[pos])) {
      sum += static_cast<double>(pos);
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / count;
}

TEST(Variants, AsapHoistsAndAlapSinksRemoteGates) {
  const Circuit qc = mixed_circuit();
  const GatePlacement placement = classify_gates(qc, kSplit22);
  const SegmentVariantTable table = whole_circuit_table(qc, placement);
  const auto& original = table.order(0, SchedulingPolicy::Original);
  const auto& asap = table.order(0, SchedulingPolicy::Asap);
  const auto& alap = table.order(0, SchedulingPolicy::Alap);
  EXPECT_LE(mean_remote_position(asap, placement),
            mean_remote_position(original, placement));
  EXPECT_GE(mean_remote_position(alap, placement),
            mean_remote_position(original, placement));
  EXPECT_LT(mean_remote_position(asap, placement),
            mean_remote_position(alap, placement));
}

/// Apply the gates of `qc` in `order` to a fresh density matrix.
qsim::DensityMatrix evaluate_in_order(const Circuit& qc,
                                      const std::vector<std::size_t>& order) {
  qsim::DensityMatrix rho(qc.num_qubits());
  // Give each qubit a distinct, non-symmetric initial rotation so ordering
  // bugs cannot hide behind state symmetries.
  for (int q = 0; q < qc.num_qubits(); ++q) {
    rho.apply_1q(qsim::gate_unitary_1q(GateKind::RY, 0.3 + 0.4 * q), q);
  }
  for (std::size_t i : order) rho.apply_gate(qc.gate(i));
  return rho;
}

TEST(Variants, ReorderedCircuitsImplementTheSameUnitary) {
  const Circuit qc = mixed_circuit();
  const GatePlacement placement = classify_gates(qc, kSplit22);
  const SegmentVariantTable table = whole_circuit_table(qc, placement);
  const qsim::DensityMatrix ref =
      evaluate_in_order(qc, table.order(0, SchedulingPolicy::Original));
  for (auto policy : {SchedulingPolicy::Asap, SchedulingPolicy::Alap}) {
    const auto& order = table.order(0, policy);
    const qsim::DensityMatrix got = evaluate_in_order(qc, order);
    for (std::size_t r = 0; r < ref.dim(); ++r) {
      for (std::size_t c = 0; c < ref.dim(); ++c) {
        EXPECT_NEAR(std::abs(got.element(r, c) - ref.element(r, c)), 0.0,
                    1e-10)
            << policy_name(policy);
      }
    }
  }
}

TEST(Variants, RandomQaoaSegmentsStayEquivalent) {
  // Property sweep: QAOA segments under both policies implement the
  // original unitary (RZZ commutation is heavily exercised here).
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(9000 + seed);
    const Circuit qc = gen::make_qaoa_regular(8, 4, rng);
    std::vector<int> assignment(8);
    for (int i = 0; i < 8; ++i) assignment[static_cast<std::size_t>(i)] = i / 4;
    const GatePlacement placement = classify_gates(qc, assignment);
    const auto segments = segment_by_remote_gates(placement, 2);
    const SegmentVariantTable table(qc, placement, segments);

    for (auto policy : {SchedulingPolicy::Asap, SchedulingPolicy::Alap}) {
      // Concatenate per-segment variant orders into one execution order.
      std::vector<std::size_t> order;
      for (std::size_t s = 0; s < table.num_segments(); ++s) {
        const auto& seg_order = table.order(s, policy);
        order.insert(order.end(), seg_order.begin(), seg_order.end());
      }
      const SegmentVariantTable whole = whole_circuit_table(qc, placement);
      const qsim::DensityMatrix ref = evaluate_in_order(
          qc, whole.order(0, SchedulingPolicy::Original));
      const qsim::DensityMatrix got = evaluate_in_order(qc, order);
      for (std::size_t r = 0; r < ref.dim(); ++r) {
        for (std::size_t c = 0; c < ref.dim(); ++c) {
          ASSERT_NEAR(std::abs(got.element(r, c) - ref.element(r, c)), 0.0,
                      1e-9)
              << "seed " << seed << " policy " << policy_name(policy);
        }
      }
    }
  }
}

TEST(Variants, TableExposesAllPolicies) {
  const Circuit qc = mixed_circuit();
  const GatePlacement placement = classify_gates(qc, kSplit22);
  const auto segments = segment_by_remote_gates(placement, 2);
  const SegmentVariantTable table(qc, placement, segments);
  EXPECT_EQ(table.num_segments(), segments.size());
  for (std::size_t s = 0; s < table.num_segments(); ++s) {
    EXPECT_EQ(table.order(s, SchedulingPolicy::Original).size(),
              segments[s].size());
    EXPECT_EQ(table.order(s, SchedulingPolicy::Asap).size(),
              segments[s].size());
    EXPECT_EQ(table.order(s, SchedulingPolicy::Alap).size(),
              segments[s].size());
  }
  EXPECT_THROW(table.order(table.num_segments(), SchedulingPolicy::Asap),
               PreconditionError);
  // A segment past the circuit's end, and a placement of another circuit.
  EXPECT_THROW(SegmentVariantTable(qc, placement,
                                   {Segment{2, qc.num_gates() + 1, 0}}),
               PreconditionError);
  EXPECT_THROW(SegmentVariantTable(qc, GatePlacement{}, segments),
               PreconditionError);
}

/// Kahn's algorithm over the pairwise edge rule (j -> l iff j < l, the
/// gates share a qubit and do not provably commute), choosing each step by
/// a linear scan in traversal order: the first ready remote gate, else the
/// first ready gate. ALAP traverses the reversed edges and reverses the
/// result.
std::vector<std::size_t> reference_order(const Circuit& qc,
                                         const GatePlacement& placement,
                                         const Segment& seg, bool alap) {
  const std::size_t n = seg.size();
  std::vector<std::vector<std::size_t>> out(n);
  std::vector<std::size_t> indegree(n, 0);
  for (std::size_t l = 0; l < n; ++l) {
    const Gate& later = qc.gate(seg.begin + l);
    for (std::size_t j = 0; j < l; ++j) {
      const Gate& earlier = qc.gate(seg.begin + j);
      if (!later.overlaps(earlier) || gates_commute(later, earlier)) continue;
      out[alap ? l : j].push_back(alap ? j : l);
      ++indegree[alap ? j : l];
    }
  }
  std::vector<char> done(n, 0);
  std::vector<std::size_t> order;
  for (std::size_t step = 0; step < n; ++step) {
    std::size_t best = n;
    for (std::size_t c = 0; c < n; ++c) {
      const std::size_t l = alap ? n - 1 - c : c;
      if (done[l] || indegree[l] != 0) continue;
      if (best == n || (placement.remote(seg.begin + l) &&
                        !placement.remote(seg.begin + best))) {
        best = l;
      }
    }
    if (best == n) return {};  // cycle: cannot happen for j < l edges
    done[best] = 1;
    order.push_back(seg.begin + best);
    for (const std::size_t next : out[best]) --indegree[next];
  }
  if (alap) std::reverse(order.begin(), order.end());
  return order;
}

TEST(Variants, TableMatchesReference) {
  // Every Table-I circuit on 2 and 4 nodes at m in {1, 2, 4, 8, 16, all}.
  std::size_t segments_checked = 0;
  for (const auto id : gen::all_benchmarks()) {
    const Circuit qc = gen::make_benchmark(id);
    for (const int nodes : {2, 4}) {
      const auto part = runtime::partition_circuit(qc, nodes);
      const GatePlacement placement = classify_gates(qc, part.assignment);
      const std::size_t all =
          std::max<std::size_t>(1, placement.num_remote_2q);
      for (const std::size_t m : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}, std::size_t{8},
                                  std::size_t{16}, all}) {
        const auto segments = segment_by_remote_gates(placement, m);
        const SegmentVariantTable table(qc, placement, segments);
        for (std::size_t s = 0; s < segments.size(); ++s) {
          const Segment& seg = segments[s];
          std::vector<std::size_t> original(seg.size());
          std::iota(original.begin(), original.end(), seg.begin);
          const std::string where = gen::benchmark_name(id) + " nodes " +
                                    std::to_string(nodes) + " m " +
                                    std::to_string(m) + " segment " +
                                    std::to_string(s);
          ASSERT_EQ(table.order(s, SchedulingPolicy::Original), original)
              << where;
          ASSERT_EQ(table.order(s, SchedulingPolicy::Asap),
                    reference_order(qc, placement, seg, /*alap=*/false))
              << where;
          ASSERT_EQ(table.order(s, SchedulingPolicy::Alap),
                    reference_order(qc, placement, seg, /*alap=*/true))
              << where;
          ++segments_checked;
        }
      }
    }
  }
  EXPECT_GT(segments_checked, 1000u);
}

TEST(Variants, PolicyNames) {
  EXPECT_STREQ(policy_name(SchedulingPolicy::Original), "original");
  EXPECT_STREQ(policy_name(SchedulingPolicy::Asap), "asap");
  EXPECT_STREQ(policy_name(SchedulingPolicy::Alap), "alap");
}

// ----------------------------------------------------------- adaptive rule ----

TEST(AdaptivePolicy, ImplementsPaperThresholds) {
  const AdaptivePolicy policy(4);  // m = 4
  EXPECT_EQ(policy.choose(0), SchedulingPolicy::Alap);
  EXPECT_EQ(policy.choose(1), SchedulingPolicy::Original);
  EXPECT_EQ(policy.choose(4), SchedulingPolicy::Original);
  EXPECT_EQ(policy.choose(5), SchedulingPolicy::Asap);
  EXPECT_EQ(policy.choose(100), SchedulingPolicy::Asap);
}

TEST(AdaptivePolicy, RejectsZeroSegmentSize) {
  EXPECT_THROW(AdaptivePolicy(0), PreconditionError);
}

// --------------------------------------------------------- fusible chains ----
// The one-qubit chain analysis behind ArchConfig::fuse_local_gates.

TEST(FusibleChains, FindsPerWireOneQubitRuns) {
  Circuit qc(2);
  qc.rz(0, 0.1);  // 0
  qc.rz(1, 0.2);  // 1
  qc.rx(0, 0.3);  // 2: follows gate 0 on wire 0
  qc.cx(0, 1);    // 3: breaks both wires
  qc.rx(0, 0.4);  // 4
  qc.measure(0);  // 5: measurement chains too (same scheduling shape)
  const auto next = fusible_1q_chain_next(qc);
  ASSERT_EQ(next.size(), 6u);
  EXPECT_EQ(next[0], 2u);
  EXPECT_EQ(next[1], kNoFusedNext);  // wire 1's next op is the CX
  EXPECT_EQ(next[2], kNoFusedNext);
  EXPECT_EQ(next[3], kNoFusedNext);
  EXPECT_EQ(next[4], 5u);
  EXPECT_EQ(next[5], kNoFusedNext);
}

TEST(FusibleChains, TlimHasRzRxChains) {
  const Circuit qc = gen::make_tlim(8, {});
  const auto next = fusible_1q_chain_next(qc);
  std::size_t links = 0;
  for (const std::size_t n : next) {
    if (n != kNoFusedNext) ++links;
  }
  // Every step's rz layer chains into the rx layer on each wire.
  EXPECT_GE(links, 8u);
}

}  // namespace
}  // namespace dqcsim::sched
