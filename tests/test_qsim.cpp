/// Unit tests for the density-matrix simulator: unitaries, channels,
/// measurement, composition, and canonical states.

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "noise/teleport_fidelity.hpp"
#include "qsim/channels.hpp"
#include "qsim/density_matrix.hpp"
#include "qsim/gates_matrices.hpp"

namespace dqcsim::qsim {
namespace {

constexpr double kTol = 1e-12;

// ------------------------------------------------------------- matrices ----

TEST(GateMatrices, AllOneQubitKindsAreUnitary) {
  for (GateKind k : {GateKind::H, GateKind::X, GateKind::Y, GateKind::Z,
                     GateKind::S, GateKind::Sdg, GateKind::T, GateKind::Tdg}) {
    EXPECT_TRUE(is_unitary(gate_unitary_1q(k))) << gate_name(k);
  }
  for (GateKind k : {GateKind::RX, GateKind::RY, GateKind::RZ}) {
    EXPECT_TRUE(is_unitary(gate_unitary_1q(k, 0.7))) << gate_name(k);
  }
}

TEST(GateMatrices, AllTwoQubitKindsAreUnitary) {
  for (GateKind k : {GateKind::CX, GateKind::CZ, GateKind::SWAP}) {
    EXPECT_TRUE(is_unitary(gate_unitary_2q(k))) << gate_name(k);
  }
  EXPECT_TRUE(is_unitary(gate_unitary_2q(GateKind::CP, 0.9)));
  EXPECT_TRUE(is_unitary(gate_unitary_2q(GateKind::RZZ, 1.3)));
}

TEST(GateMatrices, RejectsWrongArity) {
  EXPECT_THROW(gate_unitary_1q(GateKind::CX), PreconditionError);
  EXPECT_THROW(gate_unitary_1q(GateKind::Measure), PreconditionError);
  EXPECT_THROW(gate_unitary_2q(GateKind::H), PreconditionError);
}

TEST(GateMatrices, HadamardSquaresToIdentity) {
  const Mat2 h = hadamard();
  Mat2 h2{};
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      for (int k = 0; k < 2; ++k) {
        h2[static_cast<std::size_t>(r * 2 + c)] +=
            h[static_cast<std::size_t>(r * 2 + k)] *
            h[static_cast<std::size_t>(k * 2 + c)];
      }
    }
  }
  EXPECT_NEAR(std::abs(h2[0] - Complex{1, 0}), 0.0, kTol);
  EXPECT_NEAR(std::abs(h2[1]), 0.0, kTol);
  EXPECT_NEAR(std::abs(h2[3] - Complex{1, 0}), 0.0, kTol);
}

TEST(GateMatrices, RzzIsDiagonalWithCorrectPhases) {
  const Mat4 u = gate_unitary_2q(GateKind::RZZ, 1.0);
  // Off-diagonal entries vanish.
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      if (r != c) {
        EXPECT_NEAR(std::abs(u[static_cast<std::size_t>(r * 4 + c)]), 0.0,
                    kTol);
      }
    }
  }
  // |00> and |11> get exp(-i/2); |01>, |10> get exp(+i/2).
  EXPECT_NEAR(std::arg(u[0]), -0.5, kTol);
  EXPECT_NEAR(std::arg(u[5]), 0.5, kTol);
  EXPECT_NEAR(std::arg(u[10]), 0.5, kTol);
  EXPECT_NEAR(std::arg(u[15]), -0.5, kTol);
}

// -------------------------------------------------------- density matrix ----

TEST(DensityMatrix, InitialStateIsGround) {
  DensityMatrix rho(2);
  EXPECT_NEAR(rho.element(0, 0).real(), 1.0, kTol);
  EXPECT_NEAR(rho.trace(), 1.0, kTol);
  EXPECT_NEAR(rho.purity(), 1.0, kTol);
  EXPECT_TRUE(rho.is_hermitian());
}

TEST(DensityMatrix, RejectsTooManyQubits) {
  EXPECT_THROW(DensityMatrix(0), PreconditionError);
  EXPECT_THROW(DensityMatrix(13), PreconditionError);
}

TEST(DensityMatrix, FromAmplitudesNormalizes) {
  // Unnormalized |0> + |1>.
  DensityMatrix rho(std::vector<Complex>{{2.0, 0.0}, {2.0, 0.0}});
  EXPECT_NEAR(rho.trace(), 1.0, kTol);
  EXPECT_NEAR(rho.element(0, 1).real(), 0.5, kTol);
}

TEST(DensityMatrix, HadamardCreatesPlusState) {
  DensityMatrix rho(1);
  rho.apply_1q(hadamard(), 0);
  EXPECT_NEAR(rho.element(0, 0).real(), 0.5, kTol);
  EXPECT_NEAR(rho.element(0, 1).real(), 0.5, kTol);
  EXPECT_NEAR(rho.prob_one(0), 0.5, kTol);
}

TEST(DensityMatrix, BellStateViaHAndCnot) {
  DensityMatrix rho(2);
  rho.apply_1q(hadamard(), 0);
  rho.apply_2q(cnot(), 0, 1);  // control = qubit 0 (first operand)
  const DensityMatrix bell = DensityMatrix::bell_phi_plus();
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_NEAR(std::abs(rho.element(r, c) - bell.element(r, c)), 0.0, kTol)
          << r << "," << c;
    }
  }
}

TEST(DensityMatrix, ApplyGateUsesIrKinds) {
  DensityMatrix a(2), b(2);
  a.apply_gate(make_gate(GateKind::H, 0));
  a.apply_gate(make_gate(GateKind::CX, 0, 1));
  b.apply_1q(hadamard(), 0);
  b.apply_2q(cnot(), 0, 1);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_NEAR(std::abs(a.element(r, c) - b.element(r, c)), 0.0, kTol);
    }
  }
}

TEST(DensityMatrix, UnitariesPreserveTraceAndPurity) {
  DensityMatrix rho(3);
  rho.apply_1q(hadamard(), 0);
  rho.apply_2q(cnot(), 0, 1);
  rho.apply_1q(gate_unitary_1q(GateKind::RY, 0.3), 2);
  rho.apply_2q(gate_unitary_2q(GateKind::RZZ, 0.8), 1, 2);
  EXPECT_NEAR(rho.trace(), 1.0, kTol);
  EXPECT_NEAR(rho.purity(), 1.0, kTol);
  EXPECT_TRUE(rho.is_hermitian(1e-10));
}

TEST(DensityMatrix, XFlipsProbability) {
  DensityMatrix rho(2);
  rho.apply_1q(pauli_x(), 1);
  EXPECT_NEAR(rho.prob_one(1), 1.0, kTol);
  EXPECT_NEAR(rho.prob_one(0), 0.0, kTol);
}

// --------------------------------------------------------------- channels ----

TEST(Channels, PauliChannelIsTracePreserving) {
  DensityMatrix rho(2);
  rho.apply_1q(hadamard(), 0);
  rho.pauli_channel(0, 0.1, 0.05, 0.2);
  EXPECT_NEAR(rho.trace(), 1.0, kTol);
  EXPECT_TRUE(rho.is_hermitian(1e-10));
}

TEST(Channels, FullXChannelActsLikeX) {
  DensityMatrix rho(1);
  rho.pauli_channel(0, 1.0, 0.0, 0.0);
  EXPECT_NEAR(rho.prob_one(0), 1.0, kTol);
}

TEST(Channels, FullZChannelPreservesGroundState) {
  DensityMatrix rho(1);
  rho.pauli_channel(0, 0.0, 0.0, 1.0);
  EXPECT_NEAR(rho.element(0, 0).real(), 1.0, kTol);
}

TEST(Channels, ZChannelKillsCoherence) {
  DensityMatrix rho(1);
  rho.apply_1q(hadamard(), 0);
  rho.pauli_channel(0, 0.0, 0.0, 0.5);  // fully dephasing at p_z = 1/2
  EXPECT_NEAR(std::abs(rho.element(0, 1)), 0.0, kTol);
  EXPECT_NEAR(rho.element(0, 0).real(), 0.5, kTol);
}

TEST(Channels, YChannelMatchesXZComposition) {
  // Y rho Y should equal applying the Y unitary.
  DensityMatrix via_channel(1);
  via_channel.apply_1q(hadamard(), 0);
  via_channel.apply_1q(gate_unitary_1q(GateKind::T), 0);
  DensityMatrix via_unitary = via_channel;
  via_channel.pauli_channel(0, 0.0, 1.0, 0.0);
  via_unitary.apply_1q(pauli_y(), 0);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_NEAR(std::abs(via_channel.element(r, c) -
                           via_unitary.element(r, c)),
                  0.0, kTol);
    }
  }
}

TEST(Channels, DepolarizeToMaximallyMixed) {
  DensityMatrix rho(1);
  rho.depolarize_1q(0, 1.0);
  EXPECT_NEAR(rho.element(0, 0).real(), 0.5, kTol);
  EXPECT_NEAR(rho.element(1, 1).real(), 0.5, kTol);
  EXPECT_NEAR(rho.purity(), 0.5, kTol);
}

TEST(Channels, Depolarize2qToMaximallyMixedPair) {
  DensityMatrix rho = DensityMatrix::bell_phi_plus();
  rho.depolarize_2q(0, 1, 1.0);
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_NEAR(rho.element(r, r).real(), 0.25, kTol);
  }
  EXPECT_NEAR(rho.purity(), 0.25, kTol);
}

TEST(Channels, Depolarize2qPartialOnBellGivesWerner) {
  DensityMatrix rho = DensityMatrix::bell_phi_plus();
  const double p = 0.2;
  rho.depolarize_2q(0, 1, p);
  // (1-p) |Phi+><Phi+| + p I/4 is a Werner state with w = 1 - p... up to
  // the identity component of the Bell projector: F = (1-p) + p/4.
  const DensityMatrix werner = DensityMatrix::werner(1.0 - p + p / 4.0);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_NEAR(std::abs(rho.element(r, c) - werner.element(r, c)), 0.0,
                  kTol);
    }
  }
}

TEST(Channels, DepolarizingProbRoundTrip) {
  // p derived from a target average fidelity must reproduce that fidelity
  // when applied to the identity gate (measured via a Bell/Choi state).
  const double f_target = 0.999;
  const double p = noise::depolarizing_prob_for_avg_fidelity(4, f_target);
  EXPECT_GT(p, 0.0);
  EXPECT_LT(p, 0.01);
  // Average fidelity of two-qubit depolarizing: 1 - p*(1 - 1/16)*(4/5).
  const double f_pro = 1.0 - p * (1.0 - 1.0 / 16.0);
  const double f_avg = (4.0 * f_pro + 1.0) / 5.0;
  EXPECT_NEAR(f_avg, f_target, 1e-12);
}

TEST(Channels, DepolarizingProbRejectsOutOfRange) {
  using noise::depolarizing_prob_for_avg_fidelity;
  EXPECT_THROW(depolarizing_prob_for_avg_fidelity(3, 0.9), PreconditionError);
  EXPECT_THROW(depolarizing_prob_for_avg_fidelity(2, 0.2), PreconditionError);
  EXPECT_THROW(depolarizing_prob_for_avg_fidelity(2, 1.1), PreconditionError);
}

// ------------------------------------------------------------ measurement ----

TEST(Measurement, BranchProbabilitiesSumToOne) {
  DensityMatrix rho(2);
  rho.apply_1q(gate_unitary_1q(GateKind::RY, 1.1), 0);
  const auto branches = rho.measure_branches(0);
  EXPECT_NEAR(branches.prob[0] + branches.prob[1], 1.0, kTol);
  EXPECT_NEAR(branches.prob[1], rho.prob_one(0), kTol);
}

TEST(Measurement, BranchesAreProjected) {
  DensityMatrix rho(1);
  rho.apply_1q(hadamard(), 0);
  const auto branches = rho.measure_branches(0);
  EXPECT_NEAR(branches.state[0].prob_one(0), 0.0, kTol);
  EXPECT_NEAR(branches.state[1].prob_one(0), 1.0, kTol);
  EXPECT_NEAR(branches.state[0].trace(), 1.0, kTol);
}

TEST(Measurement, BellMeasurementCollapsesBothQubits) {
  DensityMatrix rho = DensityMatrix::bell_phi_plus();
  const auto branches = rho.measure_branches(0);
  EXPECT_NEAR(branches.prob[0], 0.5, kTol);
  EXPECT_NEAR(branches.state[0].prob_one(1), 0.0, kTol);
  EXPECT_NEAR(branches.state[1].prob_one(1), 1.0, kTol);
}

TEST(Measurement, ZeroProbabilityBranchIsZeroMatrix) {
  DensityMatrix rho(1);  // |0>
  const auto branches = rho.measure_branches(0);
  EXPECT_NEAR(branches.prob[1], 0.0, kTol);
  EXPECT_NEAR(branches.state[1].trace(), 0.0, kTol);
}

TEST(Measurement, DephaseRemovesCrossTerms) {
  DensityMatrix rho(1);
  rho.apply_1q(hadamard(), 0);
  rho.dephase(0);
  EXPECT_NEAR(std::abs(rho.element(0, 1)), 0.0, kTol);
  EXPECT_NEAR(rho.trace(), 1.0, kTol);
}

TEST(Measurement, NoisyMeasureBranchesAreNormalized) {
  DensityMatrix rho(1);
  rho.apply_1q(hadamard(), 0);
  const auto noisy = noisy_measure(rho, 0, 0.9);
  EXPECT_NEAR(noisy.prob[0] + noisy.prob[1], 1.0, kTol);
  EXPECT_NEAR(noisy.state[0].trace(), 1.0, kTol);
  EXPECT_NEAR(noisy.state[1].trace(), 1.0, kTol);
}

TEST(Measurement, NoisyMeasureProbabilitiesAccountForFlips) {
  DensityMatrix rho(1);  // definite |0>
  const auto noisy = noisy_measure(rho, 0, 0.9);
  EXPECT_NEAR(noisy.prob[0], 0.9, kTol);
  EXPECT_NEAR(noisy.prob[1], 0.1, kTol);
  // Given report "1" the underlying state is still |0>.
  EXPECT_NEAR(noisy.state[1].prob_one(0), 0.0, kTol);
}

TEST(Measurement, PerfectReadoutReducesToIdeal) {
  DensityMatrix rho(1);
  rho.apply_1q(hadamard(), 0);
  const auto ideal = rho.measure_branches(0);
  const auto noisy = noisy_measure(rho, 0, 1.0);
  EXPECT_NEAR(noisy.prob[0], ideal.prob[0], kTol);
  EXPECT_NEAR(noisy.prob[1], ideal.prob[1], kTol);
}

// ------------------------------------------------- composition & states ----

TEST(Composition, PartialTraceOfBellIsMaximallyMixed) {
  const DensityMatrix bell = DensityMatrix::bell_phi_plus();
  const DensityMatrix reduced = bell.partial_trace(1);
  EXPECT_EQ(reduced.num_qubits(), 1);
  EXPECT_NEAR(reduced.element(0, 0).real(), 0.5, kTol);
  EXPECT_NEAR(reduced.element(1, 1).real(), 0.5, kTol);
}

TEST(Composition, PartialTraceOfProductRecoversFactor) {
  DensityMatrix a(1);
  a.apply_1q(gate_unitary_1q(GateKind::RY, 0.8), 0);
  DensityMatrix b(1);
  const DensityMatrix product = a.tensor(b);  // a on qubit 0, b on qubit 1
  const DensityMatrix back = product.partial_trace(1);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_NEAR(std::abs(back.element(r, c) - a.element(r, c)), 0.0, kTol);
    }
  }
}

TEST(Composition, TensorDimensions) {
  const DensityMatrix pair =
      DensityMatrix::bell_phi_plus().tensor(DensityMatrix(1));
  EXPECT_EQ(pair.num_qubits(), 3);
  EXPECT_EQ(pair.dim(), 8u);
  EXPECT_NEAR(pair.trace(), 1.0, kTol);
}

TEST(Composition, MixInterpolates) {
  const DensityMatrix a(1);  // |0>
  DensityMatrix b(1);
  b.apply_1q(pauli_x(), 0);  // |1>
  const DensityMatrix half = DensityMatrix::mix(a, 0.5, b, 0.5);
  EXPECT_NEAR(half.element(0, 0).real(), 0.5, kTol);
  EXPECT_NEAR(half.element(1, 1).real(), 0.5, kTol);
}

TEST(States, WernerFidelityIsConsistent) {
  for (double f : {0.25, 0.5, 0.75, 0.99, 1.0}) {
    const DensityMatrix w = DensityMatrix::werner(f);
    // <Phi+| W |Phi+> must equal the nominal fidelity.
    const double s = 1.0 / std::sqrt(2.0);
    const double overlap = w.fidelity_with_pure(
        {Complex{s, 0}, Complex{0, 0}, Complex{0, 0}, Complex{s, 0}});
    EXPECT_NEAR(overlap, f, kTol);
    EXPECT_NEAR(w.trace(), 1.0, kTol);
  }
}

TEST(States, WernerRejectsOutOfRangeFidelity) {
  EXPECT_THROW(DensityMatrix::werner(0.2), PreconditionError);
  EXPECT_THROW(DensityMatrix::werner(1.1), PreconditionError);
}

TEST(States, FidelityWithPureDetectsOrthogonality) {
  DensityMatrix rho(1);  // |0>
  EXPECT_NEAR(rho.fidelity_with_pure({Complex{0, 0}, Complex{1, 0}}), 0.0,
              kTol);
  EXPECT_NEAR(rho.fidelity_with_pure({Complex{1, 0}, Complex{0, 0}}), 1.0,
              kTol);
}

// ------------------------------------------ teleportation sanity (qsim) ----

/// Noiseless state teleportation (paper Fig. 1(b)) implemented directly on
/// the density matrix: the output qubit must carry the input state exactly.
TEST(Teleportation, NoiselessStateTeleportationIsExact) {
  // Qubits: 0 = data, 1 = Bell half A, 2 = Bell half B.
  DensityMatrix rho(1);
  rho.apply_1q(gate_unitary_1q(GateKind::RY, 1.234), 0);  // arbitrary state
  const DensityMatrix input = rho;
  DensityMatrix sys = rho.tensor(DensityMatrix::bell_phi_plus());

  sys.apply_2q(cnot(), 0, 1);
  sys.apply_1q(hadamard(), 0);

  // Measure qubits 0 and 1; apply the textbook corrections on qubit 2.
  DensityMatrix accum = DensityMatrix::mix(sys, 0.0, sys, 0.0);
  const auto m0 = sys.measure_branches(0);
  for (int o0 = 0; o0 < 2; ++o0) {
    if (m0.prob[o0] <= 1e-15) continue;
    const auto m1 = m0.state[static_cast<std::size_t>(o0)].measure_branches(1);
    for (int o1 = 0; o1 < 2; ++o1) {
      if (m1.prob[o1] <= 1e-15) continue;
      DensityMatrix leaf = m1.state[static_cast<std::size_t>(o1)];
      if (o1 == 1) leaf.apply_1q(pauli_x(), 2);
      if (o0 == 1) leaf.apply_1q(pauli_z(), 2);
      accum = DensityMatrix::mix(accum, 1.0, leaf,
                                 m0.prob[o0] * m1.prob[o1]);
    }
  }
  const DensityMatrix out = accum.partial_trace(1).partial_trace(0);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_NEAR(std::abs(out.element(r, c) - input.element(r, c)), 0.0,
                  1e-10);
    }
  }
}

}  // namespace
}  // namespace dqcsim::qsim
