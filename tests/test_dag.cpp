/// Unit tests for commutation analysis and the dependency DAG.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "circuit/commutation.hpp"
#include "circuit/dag.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace dqcsim {
namespace {

// ----------------------------------------------------------- commutation ----

TEST(Commutation, DisjointGatesAlwaysCommute) {
  EXPECT_TRUE(gates_commute(make_gate(GateKind::H, 0),
                            make_gate(GateKind::H, 1)));
  EXPECT_TRUE(gates_commute(make_gate(GateKind::CX, 0, 1),
                            make_gate(GateKind::CX, 2, 3)));
}

TEST(Commutation, DiagonalGatesCommuteOnOverlap) {
  EXPECT_TRUE(gates_commute(make_gate(GateKind::RZZ, 0, 1, 0.3),
                            make_gate(GateKind::RZZ, 1, 2, 0.4)));
  EXPECT_TRUE(gates_commute(make_gate(GateKind::CZ, 0, 1),
                            make_gate(GateKind::RZ, 0, 0.2)));
  EXPECT_TRUE(gates_commute(make_gate(GateKind::CP, 0, 1, 0.1),
                            make_gate(GateKind::CP, 1, 2, 0.2)));
  EXPECT_TRUE(gates_commute(make_gate(GateKind::T, 0),
                            make_gate(GateKind::Z, 0)));
}

TEST(Commutation, HadamardDoesNotCommuteWithOverlap) {
  EXPECT_FALSE(gates_commute(make_gate(GateKind::H, 0),
                             make_gate(GateKind::RZ, 0, 0.2)));
  EXPECT_FALSE(gates_commute(make_gate(GateKind::H, 0),
                             make_gate(GateKind::CX, 0, 1)));
}

TEST(Commutation, CxPairsShareControlCommute) {
  EXPECT_TRUE(gates_commute(make_gate(GateKind::CX, 0, 1),
                            make_gate(GateKind::CX, 0, 2)));
}

TEST(Commutation, CxPairsShareTargetCommute) {
  EXPECT_TRUE(gates_commute(make_gate(GateKind::CX, 0, 2),
                            make_gate(GateKind::CX, 1, 2)));
}

TEST(Commutation, CxChainDoesNotCommute) {
  // Target of the first is control of the second.
  EXPECT_FALSE(gates_commute(make_gate(GateKind::CX, 0, 1),
                             make_gate(GateKind::CX, 1, 2)));
  EXPECT_FALSE(gates_commute(make_gate(GateKind::CX, 1, 2),
                             make_gate(GateKind::CX, 0, 1)));
}

TEST(Commutation, IdenticalCxCommutes) {
  EXPECT_TRUE(gates_commute(make_gate(GateKind::CX, 0, 1),
                            make_gate(GateKind::CX, 0, 1)));
}

TEST(Commutation, ReversedCxDoesNotCommute) {
  EXPECT_FALSE(gates_commute(make_gate(GateKind::CX, 0, 1),
                             make_gate(GateKind::CX, 1, 0)));
}

TEST(Commutation, DiagonalOnCxControlCommutes) {
  EXPECT_TRUE(gates_commute(make_gate(GateKind::RZ, 0, 0.7),
                            make_gate(GateKind::CX, 0, 1)));
  EXPECT_TRUE(gates_commute(make_gate(GateKind::CX, 0, 1),
                            make_gate(GateKind::T, 0)));
  EXPECT_TRUE(gates_commute(make_gate(GateKind::RZZ, 0, 2, 0.3),
                            make_gate(GateKind::CX, 0, 1)));
}

TEST(Commutation, DiagonalOnCxTargetDoesNotCommute) {
  EXPECT_FALSE(gates_commute(make_gate(GateKind::RZ, 1, 0.7),
                             make_gate(GateKind::CX, 0, 1)));
}

TEST(Commutation, XAxisOnCxTargetCommutes) {
  EXPECT_TRUE(gates_commute(make_gate(GateKind::X, 1),
                            make_gate(GateKind::CX, 0, 1)));
  EXPECT_TRUE(gates_commute(make_gate(GateKind::RX, 1, 0.4),
                            make_gate(GateKind::CX, 0, 1)));
}

TEST(Commutation, XAxisOnCxControlDoesNotCommute) {
  EXPECT_FALSE(gates_commute(make_gate(GateKind::X, 0),
                             make_gate(GateKind::CX, 0, 1)));
}

TEST(Commutation, SameAxisOneQubitRotationsCommute) {
  EXPECT_TRUE(gates_commute(make_gate(GateKind::RX, 0, 0.1),
                            make_gate(GateKind::X, 0)));
  EXPECT_FALSE(gates_commute(make_gate(GateKind::RX, 0, 0.1),
                             make_gate(GateKind::RY, 0, 0.1)));
}

TEST(Commutation, MeasurementPinsOrdering) {
  EXPECT_FALSE(gates_commute(make_gate(GateKind::Measure, 0),
                             make_gate(GateKind::Z, 0)));
  EXPECT_TRUE(gates_commute(make_gate(GateKind::Measure, 0),
                            make_gate(GateKind::Z, 1)));
}

TEST(Commutation, IsSymmetric) {
  const Gate gates[] = {
      make_gate(GateKind::H, 0),        make_gate(GateKind::RZ, 0, 0.3),
      make_gate(GateKind::CX, 0, 1),    make_gate(GateKind::CX, 1, 0),
      make_gate(GateKind::RZZ, 0, 1, 1), make_gate(GateKind::X, 1),
      make_gate(GateKind::CZ, 1, 2),    make_gate(GateKind::Measure, 2),
  };
  for (const Gate& a : gates) {
    for (const Gate& b : gates) {
      EXPECT_EQ(gates_commute(a, b), gates_commute(b, a))
          << a.to_string() << " vs " << b.to_string();
    }
  }
}

// ------------------------------------------------------------------ DAG ----

std::vector<std::size_t> as_vector(std::span<const std::size_t> row) {
  return {row.begin(), row.end()};
}

TEST(DependencyDag, CommutationAwareRemovesDiagonalEdges) {
  Circuit qc(3);
  qc.rzz(0, 1, 0.2);  // all three mutually commute
  qc.rzz(1, 2, 0.2);
  qc.rzz(0, 2, 0.2);
  DependencyDag dag;
  dag.build(qc, 0, qc.num_gates());
  EXPECT_EQ(dag.num_nodes(), 3u);
  for (std::size_t l = 0; l < dag.num_nodes(); ++l) {
    EXPECT_TRUE(dag.preds(l).empty());
    EXPECT_TRUE(dag.succs(l).empty());
  }
}

TEST(DependencyDag, CommutationAwareSeesThroughIntermediary) {
  // Z(0), then Z(0) again, then X(0): X must depend on BOTH Z gates even
  // though the second Z "hides" the first on the wire.
  Circuit qc(1);
  qc.z(0);
  qc.z(0);
  qc.x(0);
  DependencyDag dag;
  dag.build(qc, 0, qc.num_gates());
  EXPECT_EQ(as_vector(dag.preds(2)), (std::vector<std::size_t>{0, 1}));
  EXPECT_TRUE(dag.preds(1).empty());  // Z commutes with Z
  EXPECT_EQ(as_vector(dag.succs(0)), (std::vector<std::size_t>{2}));
}

TEST(DependencyDag, CommutationAwareKeepsRealDependencies) {
  Circuit qc(2);
  qc.h(0);      // 0
  qc.cx(0, 1);  // 1 depends on 0
  qc.rz(1, 1);  // 2 depends on 1 (diagonal on target)
  DependencyDag dag;
  dag.build(qc, 0, qc.num_gates());
  EXPECT_EQ(as_vector(dag.preds(1)), (std::vector<std::size_t>{0}));
  EXPECT_EQ(as_vector(dag.preds(2)), (std::vector<std::size_t>{1}));
}

TEST(DependencyDag, QaoaLayerIsFullyParallelUnderCommutation) {
  // One QAOA cost layer: every RZZ commutes with every other.
  Circuit qc(6);
  qc.rzz(0, 1, 0.1);
  qc.rzz(1, 2, 0.1);
  qc.rzz(2, 3, 0.1);
  qc.rzz(3, 4, 0.1);
  qc.rzz(4, 5, 0.1);
  qc.rzz(5, 0, 0.1);
  DependencyDag dag;
  dag.build(qc, 0, qc.num_gates());
  for (std::size_t l = 0; l < dag.num_nodes(); ++l) {
    EXPECT_TRUE(dag.preds(l).empty()) << "gate " << l;
  }
}

TEST(DependencyDag, PredsOutOfRangeThrows) {
  Circuit qc(3);
  qc.h(0);
  qc.cx(0, 1);
  qc.cx(1, 2);
  DependencyDag dag;
  dag.build(qc, 0, qc.num_gates());
  EXPECT_THROW(dag.preds(3), PreconditionError);
  EXPECT_THROW(dag.succs(3), PreconditionError);
  EXPECT_THROW(dag.build(qc, 2, 1), PreconditionError);
  EXPECT_THROW(dag.build(qc, 0, 4), PreconditionError);
}

TEST(DependencyDag, EmptyCircuit) {
  Circuit qc(2);
  DependencyDag dag;
  dag.build(qc, 0, 0);
  EXPECT_EQ(dag.num_nodes(), 0u);
}

/// A random gate of any kind (Measure included) on `num_qubits` qubits.
Gate random_gate(Rng& rng, int num_qubits) {
  const auto kind = static_cast<GateKind>(
      rng.uniform_int(static_cast<std::uint64_t>(GateKind::Measure) + 1));
  const auto q0 = static_cast<QubitId>(
      rng.uniform_int(static_cast<std::uint64_t>(num_qubits)));
  const double theta = rng.uniform(-3.0, 3.0);
  if (gate_arity(kind) == 1) return make_gate(kind, q0, theta);
  auto q1 = static_cast<QubitId>(
      rng.uniform_int(static_cast<std::uint64_t>(num_qubits - 1)));
  if (q1 >= q0) ++q1;
  return make_gate(kind, q0, q1, theta);
}

TEST(DependencyDag, MatchesPairwiseRule) {
  // Every row against the O(n^2) definition: j -> l iff j < l, the gates
  // share a qubit and do not provably commute. One DAG is rebuilt over
  // every range, so stale storage from a larger build would show.
  DependencyDag dag;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(4200 + seed);
    const int num_qubits = 2 + static_cast<int>(rng.uniform_int(5));
    Circuit qc(num_qubits);
    const std::size_t num_gates = rng.uniform_int(60);
    for (std::size_t i = 0; i < num_gates; ++i) {
      qc.append(random_gate(rng, num_qubits));
    }
    for (int range = 0; range < 4; ++range) {
      // The first range is the whole circuit.
      std::size_t begin = 0;
      std::size_t end = num_gates;
      if (range > 0) {
        begin = rng.uniform_int(num_gates + 1);
        end = rng.uniform_int(num_gates + 1);
        if (begin > end) std::swap(begin, end);
      }
      dag.build(qc, begin, end);
      ASSERT_EQ(dag.num_nodes(), end - begin);
      const std::size_t n = end - begin;
      for (std::size_t l = 0; l < n; ++l) {
        std::vector<std::size_t> preds;
        std::vector<std::size_t> succs;
        for (std::size_t j = 0; j < n; ++j) {
          const Gate& a = qc.gate(begin + std::min(j, l));
          const Gate& b = qc.gate(begin + std::max(j, l));
          if (j == l || !a.overlaps(b) || gates_commute(b, a)) continue;
          (j < l ? preds : succs).push_back(j);
        }
        ASSERT_EQ(as_vector(dag.preds(l)), preds)
            << "seed " << seed << " range [" << begin << ", " << end
            << ") node " << l;
        ASSERT_EQ(as_vector(dag.succs(l)), succs)
            << "seed " << seed << " range [" << begin << ", " << end
            << ") node " << l;
      }
    }
  }
}

}  // namespace
}  // namespace dqcsim
