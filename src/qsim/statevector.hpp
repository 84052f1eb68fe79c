/// \file statevector.hpp
/// \brief Pure-state simulator for functional circuit validation.
///
/// The density-matrix simulator (density_matrix.hpp) is exact for noisy
/// few-qubit gadgets but scales as 4^n; this statevector simulator scales
/// as 2^n (practical to ~20 qubits) and is used by the test suite to check
/// *functional* properties of whole circuits: the QFT against the exact
/// discrete Fourier transform, unitary equivalence of scheduler variants,
/// and Trotter-circuit sanity. Qubit 0 is the least significant bit.

#pragma once

#include <vector>

#include "circuit/circuit.hpp"
#include "qsim/gates_matrices.hpp"

namespace dqcsim::qsim {

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

}  // namespace dqcsim::qsim
