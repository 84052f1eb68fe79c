/// Unit tests for the noisy-channel helpers (qsim/channels.hpp):
/// fidelity-to-depolarizing conversion and trace/hermiticity preservation
/// of every channel.

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "qsim/channels.hpp"

namespace dqcsim::qsim {
namespace {

constexpr double kTol = 1e-12;

DensityMatrix random_ish_state(int qubits) {
  DensityMatrix rho(qubits);
  for (int q = 0; q < qubits; ++q) {
    rho.apply_1q(gate_unitary_1q(GateKind::RY, 0.4 + 0.3 * q), q);
    rho.apply_1q(gate_unitary_1q(GateKind::RZ, 0.9 - 0.2 * q), q);
  }
  for (int q = 0; q + 1 < qubits; ++q) {
    rho.apply_2q(cnot(), q, q + 1);
  }
  // A little mixedness so the state is not pure.
  rho.depolarize_1q(0, 0.1);
  return rho;
}

// ----------------------------------------------- noisy gate application --

TEST(NoisyGates, PerfectFidelityMatchesPureUnitary) {
  DensityMatrix noisy = random_ish_state(3);
  DensityMatrix pure = noisy;
  apply_noisy_1q(noisy, hadamard(), 1, 1.0);
  pure.apply_1q(hadamard(), 1);
  for (std::size_t r = 0; r < pure.dim(); ++r) {
    for (std::size_t c = 0; c < pure.dim(); ++c) {
      EXPECT_NEAR(std::abs(noisy.element(r, c) - pure.element(r, c)), 0.0,
                  kTol);
    }
  }
}

TEST(NoisyGates, Noisy1qPreservesTraceAndHermiticity) {
  DensityMatrix rho = random_ish_state(3);
  apply_noisy_1q(rho, gate_unitary_1q(GateKind::RX, 0.7), 2, 0.991);
  EXPECT_NEAR(rho.trace(), 1.0, kTol);
  EXPECT_TRUE(rho.is_hermitian());
}

TEST(NoisyGates, Noisy2qPreservesTraceAndHermiticity) {
  DensityMatrix rho = random_ish_state(3);
  apply_noisy_2q(rho, gate_unitary_2q(GateKind::RZZ, 0.5), 0, 2, 0.97);
  EXPECT_NEAR(rho.trace(), 1.0, kTol);
  EXPECT_TRUE(rho.is_hermitian());
}

TEST(NoisyGates, NoiseStrictlyReducesPurity) {
  DensityMatrix rho(2);
  rho.apply_1q(hadamard(), 0);  // pure state, purity 1
  DensityMatrix noisy = rho;
  apply_noisy_2q(noisy, cnot(), 0, 1, 0.98);
  EXPECT_LT(noisy.purity(), rho.purity() - 1e-6);
}

TEST(NoisyGates, NoisyCnotAverageFidelityMatchesRequest) {
  // The depolarizing channel is calibrated so the *average gate fidelity*
  // equals f_avg; spot-check via the entanglement fidelity identity
  // F_avg = (d F_e + 1) / (d + 1) evaluated with the Choi-state trick:
  // apply (noisy U) (ideal U)^dag to half of a maximally entangled state.
  const double f_avg = 0.9815;
  DensityMatrix rho = DensityMatrix::bell_phi_plus().tensor(
      DensityMatrix::bell_phi_plus());
  // Qubits: 0,1 = halves of pair A; 2,3 = halves of pair B. Act on (0, 2).
  apply_noisy_2q(rho, cnot(), 0, 2, f_avg);
  rho.apply_2q(cnot(), 0, 2);  // CNOT is self-inverse: ideal undo
  // Entanglement fidelity = overlap with the initial double Bell state.
  std::vector<Complex> phi4(16, Complex{0.0, 0.0});
  const double half = 0.5;
  // |Phi+>_{01} (x) |Phi+>_{23} with qubit 0 least significant:
  for (const std::size_t a : {0u, 3u}) {    // bits of qubits 0,1
    for (const std::size_t b : {0u, 3u}) {  // bits of qubits 2,3
      const std::size_t idx = (a & 1u) | ((a >> 1) << 1) | ((b & 1u) << 2) |
                              ((b >> 1) << 3);
      phi4[idx] = Complex{half, 0.0};
    }
  }
  const double f_e = rho.fidelity_with_pure(phi4);
  const double recovered = (4.0 * f_e + 1.0) / 5.0;
  EXPECT_NEAR(recovered, f_avg, 1e-9);
}

// ------------------------------------------------------- noisy readout --

TEST(NoisyReadout, ProbabilitiesSumToOneAndBranchesStayNormalized) {
  DensityMatrix rho = random_ish_state(2);
  const auto branches = noisy_measure(rho, 0, 0.97);
  EXPECT_NEAR(branches.prob[0] + branches.prob[1], 1.0, kTol);
  for (int o = 0; o < 2; ++o) {
    EXPECT_NEAR(branches.state[static_cast<std::size_t>(o)].trace(), 1.0,
                1e-9);
  }
}

TEST(NoisyReadout, FlipProbabilityMixesIdealOutcomes) {
  DensityMatrix rho(1);
  rho.apply_1q(gate_unitary_1q(GateKind::RY, 1.0), 0);
  const double p1 = rho.prob_one(0);
  const double f = 0.9;
  const auto branches = noisy_measure(rho, 0, f);
  EXPECT_NEAR(branches.prob[1], f * p1 + (1.0 - f) * (1.0 - p1), kTol);
  EXPECT_NEAR(branches.prob[0], f * (1.0 - p1) + (1.0 - f) * p1, kTol);
}

}  // namespace
}  // namespace dqcsim::qsim
