/// A test-only pure-state simulator and its tests, including the
/// end-to-end validation of the QFT generator against the exact DFT and
/// cross-checks against the density-matrix simulator.
///
/// The density-matrix simulator (qsim/density_matrix.hpp) is exact for
/// noisy few-qubit gadgets but scales as 4^n; this statevector simulator
/// scales as 2^n (practical to ~20 qubits) and checks *functional*
/// properties of whole circuits. Qubit 0 is the least significant bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "gen/qaoa.hpp"
#include "gen/qft.hpp"
#include "gen/tlim.hpp"
#include "qsim/density_matrix.hpp"
#include "qsim/gates_matrices.hpp"

namespace dqcsim::qsim {
namespace {

/// Dense 2^n-amplitude pure state.
class Statevector {
 public:
  /// Initialize to |0...0>. Precondition: 1 <= num_qubits <= 24.
  explicit Statevector(int num_qubits);

  /// Initialize to a computational basis state |basis_index>.
  Statevector(int num_qubits, std::size_t basis_index);

  /// Initialize from explicit amplitudes (normalized internally).
  /// Precondition: size is a power of two in [2, 2^24], nonzero norm.
  explicit Statevector(std::vector<Complex> amplitudes);

  int num_qubits() const noexcept { return num_qubits_; }
  std::size_t dim() const noexcept { return amps_.size(); }

  /// Amplitude of basis state |i>.
  Complex amplitude(std::size_t i) const;
  const std::vector<Complex>& amplitudes() const noexcept { return amps_; }

  /// Apply a one-qubit unitary on `q`.
  void apply_1q(const Mat2& u, int q);

  /// Apply a two-qubit unitary (`q_high` = the gate's first operand).
  void apply_2q(const Mat4& u, int q_high, int q_low);

  /// Apply a gate from the circuit IR (unitary kinds only).
  void apply_gate(const Gate& g);

  /// Run an entire circuit (must contain only unitary gates).
  void apply_circuit(const Circuit& qc);

  /// Born-rule probability of measuring qubit `q` in |1>.
  double prob_one(int q) const;

  /// Squared norm (1 for normalized states).
  double norm2() const;

  /// |<other|this>|^2.
  double fidelity_with(const Statevector& other) const;

  /// Max |amp_i - other.amp_i| (for exact-equality tests up to global
  /// phase use fidelity_with instead).
  double max_amplitude_difference(const Statevector& other) const;

 private:
  int num_qubits_;
  std::vector<Complex> amps_;
};

/// Exact output of gen::make_qft on basis state |k>: the discrete Fourier
/// transform with amplitudes exp(2*pi*i*j*rev(k)/2^n)/sqrt(2^n), where
/// rev() bit-reverses k — make_qft omits the final SWAP network and our
/// basis indexing is little-endian, which folds the reversal onto the
/// input index.
Statevector qft_reference_state(int num_qubits, std::size_t k);

Statevector::Statevector(int num_qubits) : Statevector(num_qubits, 0) {}

Statevector::Statevector(int num_qubits, std::size_t basis_index) {
  DQCSIM_EXPECTS_MSG(num_qubits >= 1 && num_qubits <= 24,
                     "statevector limited to 24 qubits");
  num_qubits_ = num_qubits;
  amps_.assign(std::size_t{1} << num_qubits, Complex{0.0, 0.0});
  DQCSIM_EXPECTS(basis_index < amps_.size());
  amps_[basis_index] = Complex{1.0, 0.0};
}

Statevector::Statevector(std::vector<Complex> amplitudes) {
  const std::size_t d = amplitudes.size();
  DQCSIM_EXPECTS_MSG(d >= 2 && d <= (std::size_t{1} << 24) &&
                         (d & (d - 1)) == 0,
                     "amplitude count must be a power of two");
  int n = 0;
  while ((std::size_t{1} << n) < d) ++n;
  double norm2_in = 0.0;
  for (const Complex& a : amplitudes) norm2_in += std::norm(a);
  DQCSIM_EXPECTS_MSG(norm2_in > 0.0, "state must be nonzero");
  const double inv = 1.0 / std::sqrt(norm2_in);
  for (Complex& a : amplitudes) a *= inv;
  num_qubits_ = n;
  amps_ = std::move(amplitudes);
}

Complex Statevector::amplitude(std::size_t i) const {
  DQCSIM_EXPECTS(i < amps_.size());
  return amps_[i];
}

void Statevector::apply_1q(const Mat2& u, int q) {
  DQCSIM_EXPECTS(q >= 0 && q < num_qubits_);
  const std::size_t stride = std::size_t{1} << q;
  Complex* const amp = amps_.data();
  for (std::size_t blk = 0; blk < amps_.size(); blk += 2 * stride) {
    for (std::size_t i = blk; i < blk + stride; ++i) {
      const Complex a = amp[i];
      const Complex b = amp[i + stride];
      amp[i] = u[0] * a + u[1] * b;
      amp[i + stride] = u[2] * a + u[3] * b;
    }
  }
}

void Statevector::apply_2q(const Mat4& u, int q_high, int q_low) {
  DQCSIM_EXPECTS(q_high >= 0 && q_high < num_qubits_);
  DQCSIM_EXPECTS(q_low >= 0 && q_low < num_qubits_);
  DQCSIM_EXPECTS(q_high != q_low);
  const std::size_t mh = std::size_t{1} << q_high;
  const std::size_t ml = std::size_t{1} << q_low;
  const std::size_t lo = mh < ml ? mh : ml;
  const std::size_t hi = mh < ml ? ml : mh;
  Complex* const amp = amps_.data();
  // Enumerate the dim/4 amplitude quadruples: expand a dense counter by
  // inserting zero bits at both operand positions (lowest position first
  // so the higher insertion sees final bit offsets).
  for (std::size_t k = 0; k < amps_.size() >> 2; ++k) {
    const std::size_t i = insert_zero_bit(insert_zero_bit(k, lo), hi);
    const std::size_t idx[4] = {i, i | ml, i | mh, i | mh | ml};
    const Complex old[4] = {amp[idx[0]], amp[idx[1]], amp[idx[2]],
                            amp[idx[3]]};
    for (std::size_t s = 0; s < 4; ++s) {
      Complex acc{0.0, 0.0};
      for (std::size_t t = 0; t < 4; ++t) {
        acc += u[s * 4 + t] * old[t];
      }
      amp[idx[s]] = acc;
    }
  }
}

void Statevector::apply_gate(const Gate& g) {
  if (g.arity() == 1) {
    apply_1q(gate_unitary_1q(g.kind, g.param), g.q0());
  } else {
    apply_2q(gate_unitary_2q(g.kind, g.param), g.q0(), g.q1());
  }
}

void Statevector::apply_circuit(const Circuit& qc) {
  DQCSIM_EXPECTS(qc.num_qubits() <= num_qubits_);
  for (const Gate& g : qc.gates()) apply_gate(g);
}

double Statevector::prob_one(int q) const {
  DQCSIM_EXPECTS(q >= 0 && q < num_qubits_);
  const std::size_t mask = std::size_t{1} << q;
  double p = 0.0;
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    if (i & mask) p += std::norm(amps_[i]);
  }
  return p;
}

double Statevector::norm2() const {
  double n = 0.0;
  for (const Complex& a : amps_) n += std::norm(a);
  return n;
}

double Statevector::fidelity_with(const Statevector& other) const {
  DQCSIM_EXPECTS(other.amps_.size() == amps_.size());
  Complex overlap{0.0, 0.0};
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    overlap += std::conj(other.amps_[i]) * amps_[i];
  }
  return std::norm(overlap);
}

double Statevector::max_amplitude_difference(const Statevector& other) const {
  DQCSIM_EXPECTS(other.amps_.size() == amps_.size());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(amps_[i] - other.amps_[i]));
  }
  return max_diff;
}

Statevector qft_reference_state(int num_qubits, std::size_t k) {
  DQCSIM_EXPECTS(num_qubits >= 1 && num_qubits <= 24);
  const std::size_t dim = std::size_t{1} << num_qubits;
  DQCSIM_EXPECTS(k < dim);
  const double inv_sqrt = 1.0 / std::sqrt(static_cast<double>(dim));
  // make_qft omits the final SWAP network, which is equivalent to the exact
  // DFT applied to the bit-reversed input index (qubit 0 plays the
  // most-significant role in the textbook circuit while our basis indexing
  // is little-endian).
  std::size_t k_rev = 0;
  for (int b = 0; b < num_qubits; ++b) {
    if (k & (std::size_t{1} << b)) {
      k_rev |= std::size_t{1} << (num_qubits - 1 - b);
    }
  }
  std::vector<Complex> amps(dim);
  for (std::size_t j = 0; j < dim; ++j) {
    const double phase = 2.0 * std::numbers::pi * static_cast<double>(j) *
                         static_cast<double>(k_rev) /
                         static_cast<double>(dim);
    amps[j] = Complex{std::cos(phase), std::sin(phase)} * inv_sqrt;
  }
  return Statevector(std::move(amps));
}


constexpr double kTol = 1e-10;

TEST(Statevector, InitialStateIsGround) {
  Statevector psi(3);
  EXPECT_EQ(psi.dim(), 8u);
  EXPECT_NEAR(std::abs(psi.amplitude(0) - Complex{1, 0}), 0.0, kTol);
  EXPECT_NEAR(psi.norm2(), 1.0, kTol);
}

TEST(Statevector, BasisStateConstructor) {
  Statevector psi(3, 5);
  EXPECT_NEAR(std::abs(psi.amplitude(5) - Complex{1, 0}), 0.0, kTol);
  EXPECT_NEAR(psi.prob_one(0), 1.0, kTol);  // bit 0 of 5 is set
  EXPECT_NEAR(psi.prob_one(1), 0.0, kTol);
  EXPECT_NEAR(psi.prob_one(2), 1.0, kTol);
}

TEST(Statevector, AmplitudeConstructorNormalizes) {
  Statevector psi(std::vector<Complex>{{3.0, 0.0}, {4.0, 0.0}});
  EXPECT_NEAR(psi.norm2(), 1.0, kTol);
  EXPECT_NEAR(psi.amplitude(0).real(), 0.6, kTol);
  EXPECT_NEAR(psi.amplitude(1).real(), 0.8, kTol);
}

TEST(Statevector, RejectsBadConstruction) {
  EXPECT_THROW(Statevector(0), PreconditionError);
  EXPECT_THROW(Statevector(25), PreconditionError);
  EXPECT_THROW(Statevector(std::vector<Complex>{{1, 0}, {0, 0}, {0, 0}}),
               PreconditionError);
  EXPECT_THROW(Statevector(std::vector<Complex>{{0, 0}, {0, 0}}),
               PreconditionError);
}

TEST(Statevector, HadamardMakesUniform) {
  Statevector psi(1);
  psi.apply_1q(hadamard(), 0);
  EXPECT_NEAR(psi.prob_one(0), 0.5, kTol);
  EXPECT_NEAR(psi.norm2(), 1.0, kTol);
}

TEST(Statevector, BellStateViaCircuit) {
  Circuit qc(2);
  qc.h(0);
  qc.cx(0, 1);
  Statevector psi(2);
  psi.apply_circuit(qc);
  const double s = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::abs(psi.amplitude(0) - Complex{s, 0}), 0.0, kTol);
  EXPECT_NEAR(std::abs(psi.amplitude(3) - Complex{s, 0}), 0.0, kTol);
  EXPECT_NEAR(std::abs(psi.amplitude(1)), 0.0, kTol);
}

TEST(Statevector, UnitariesPreserveNorm) {
  Rng rng(5);
  const Circuit qc = gen::make_qaoa_regular(8, 4, rng);
  Statevector psi(8);
  psi.apply_circuit(qc);
  EXPECT_NEAR(psi.norm2(), 1.0, 1e-9);
}

TEST(Statevector, FidelityWithSelfIsOne) {
  Circuit qc(3);
  qc.h(0);
  qc.cx(0, 1);
  qc.rz(2, 0.7);
  Statevector a(3), b(3);
  a.apply_circuit(qc);
  b.apply_circuit(qc);
  EXPECT_NEAR(a.fidelity_with(b), 1.0, kTol);
  EXPECT_NEAR(a.max_amplitude_difference(b), 0.0, kTol);
}

TEST(Statevector, FidelityDetectsOrthogonal) {
  Statevector zero(1, 0), one(1, 1);
  EXPECT_NEAR(zero.fidelity_with(one), 0.0, kTol);
}

TEST(Statevector, MatchesDensityMatrixOnRandomCircuit) {
  // Cross-validation of the two simulators on a 4-qubit circuit.
  Circuit qc(4);
  qc.h(0);
  qc.cx(0, 1);
  qc.ry(2, 0.9);
  qc.rzz(1, 2, 0.4);
  qc.cp(3, 0, 0.8);
  qc.swap(2, 3);
  qc.tdg(1);

  Statevector psi(4);
  psi.apply_circuit(qc);
  DensityMatrix rho(4);
  for (const Gate& g : qc.gates()) rho.apply_gate(g);

  // rho must equal |psi><psi|.
  for (std::size_t r = 0; r < 16; ++r) {
    for (std::size_t c = 0; c < 16; ++c) {
      const Complex expected = psi.amplitude(r) * std::conj(psi.amplitude(c));
      EXPECT_NEAR(std::abs(rho.element(r, c) - expected), 0.0, 1e-10);
    }
  }
}

// ------------------------------------------------ functional validation ----

class QftFunctional : public ::testing::TestWithParam<int> {};

TEST_P(QftFunctional, MatchesExactDftOnAllBasisStates) {
  const int n = GetParam();
  const Circuit qft = gen::make_qft(n);
  for (std::size_t k = 0; k < (std::size_t{1} << n); ++k) {
    Statevector psi(n, k);
    psi.apply_circuit(qft);
    const Statevector reference = qft_reference_state(n, k);
    ASSERT_NEAR(psi.fidelity_with(reference), 1.0, 1e-9)
        << "QFT-" << n << " on basis state " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, QftFunctional, ::testing::Values(1, 2, 3, 4,
                                                                  5, 6));

TEST(QftFunctional, SuperpositionInput) {
  // Linearity check: QFT of (|0> + |3>)/sqrt(2) on 3 qubits.
  const int n = 3;
  const Circuit qft = gen::make_qft(n);
  std::vector<Complex> amps(8, Complex{0, 0});
  amps[0] = Complex{1, 0};
  amps[3] = Complex{1, 0};
  Statevector psi(amps);
  psi.apply_circuit(qft);

  const Statevector r0 = qft_reference_state(n, 0);
  const Statevector r3 = qft_reference_state(n, 3);
  std::vector<Complex> expected(8);
  for (std::size_t i = 0; i < 8; ++i) {
    expected[i] = (r0.amplitude(i) + r3.amplitude(i)) / std::sqrt(2.0);
  }
  const Statevector ref(expected);
  EXPECT_NEAR(psi.fidelity_with(ref), 1.0, 1e-9);
}

TEST(TlimFunctional, TrotterStepPreservesNormAndActs) {
  gen::TlimParams params;
  params.steps = 2;
  const Circuit qc = gen::make_tlim(6, params);
  Statevector psi(6);
  psi.apply_circuit(qc);
  EXPECT_NEAR(psi.norm2(), 1.0, 1e-9);
  // The transverse field must move population out of |000000>.
  EXPECT_LT(std::norm(psi.amplitude(0)), 0.999);
}

TEST(QaoaFunctional, PlusStateIsUniformAfterHLayer) {
  Rng rng(3);
  const Circuit qc = gen::make_qaoa_regular(6, 2, rng);
  Statevector psi(6);
  psi.apply_circuit(qc);
  EXPECT_NEAR(psi.norm2(), 1.0, 1e-9);
  // QAOA output magnitudes are symmetric under global bit flip for MaxCut
  // (Z2 symmetry of the cost Hamiltonian and the mixer).
  for (std::size_t i = 0; i < psi.dim(); ++i) {
    EXPECT_NEAR(std::norm(psi.amplitude(i)),
                std::norm(psi.amplitude(psi.dim() - 1 - i)), 1e-9);
  }
}

}  // namespace
}  // namespace dqcsim::qsim
