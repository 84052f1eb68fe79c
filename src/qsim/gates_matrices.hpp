/// \file gates_matrices.hpp
/// \brief Unitary matrices for the gate vocabulary, used by the density-
/// matrix simulator to evaluate teleportation gadgets exactly.

#pragma once

#include <array>
#include <complex>
#include <cstddef>

#include "circuit/gate.hpp"

namespace dqcsim::qsim {

using Complex = std::complex<double>;

/// 2x2 unitary in row-major order.
using Mat2 = std::array<Complex, 4>;

/// 4x4 unitary in row-major order. Qubit convention: the first operand is
/// the more significant bit of the 2-bit row/column index.
using Mat4 = std::array<Complex, 16>;

/// Unitary of a one-qubit gate kind. Precondition: arity 1 and unitary
/// (Measure is rejected).
Mat2 gate_unitary_1q(GateKind kind, double param = 0.0);

/// Unitary of a two-qubit gate kind (first operand = high bit).
/// Precondition: arity 2.
Mat4 gate_unitary_2q(GateKind kind, double param = 0.0);

/// Frequently used constants.
Mat2 pauli_x();
Mat2 pauli_y();
Mat2 pauli_z();
Mat2 hadamard();
Mat4 cnot();

/// True when U is unitary to within `tol` (max |(U U^dag - I)_ij|).
bool is_unitary(const Mat2& u, double tol = 1e-12);
bool is_unitary(const Mat4& u, double tol = 1e-12);

/// Widen `k` by inserting a zero bit at the position of `mask` (= 1 << p):
/// bits below p stay, bits at or above p shift up by one. The kernels use
/// it to enumerate amplitude pairs/quadruples branch-free.
inline std::size_t insert_zero_bit(std::size_t k, std::size_t mask) {
  return ((k & ~(mask - 1)) << 1) | (k & (mask - 1));
}

}  // namespace dqcsim::qsim
