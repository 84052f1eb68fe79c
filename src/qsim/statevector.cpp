#include "qsim/statevector.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace dqcsim::qsim {

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

}  // namespace dqcsim::qsim
