#include "qsim/gates_matrices.hpp"

#include <cmath>

#include "common/error.hpp"

namespace dqcsim::qsim {
namespace {

constexpr Complex kI{0.0, 1.0};

Complex cexp(double phi) { return {std::cos(phi), std::sin(phi)}; }

}  // namespace

Mat2 pauli_x() { return {0, 1, 1, 0}; }
Mat2 pauli_y() { return {0, -kI, kI, 0}; }
Mat2 pauli_z() { return {1, 0, 0, -1}; }

Mat2 hadamard() {
  const double s = 1.0 / std::sqrt(2.0);
  return {s, s, s, -s};
}

Mat4 cnot() {
  // First operand (high bit) is the control.
  return {1, 0, 0, 0,  //
          0, 1, 0, 0,  //
          0, 0, 0, 1,  //
          0, 0, 1, 0};
}

Mat2 gate_unitary_1q(GateKind kind, double param) {
  const double half = param / 2.0;
  switch (kind) {
    case GateKind::H: return hadamard();
    case GateKind::X: return pauli_x();
    case GateKind::Y: return pauli_y();
    case GateKind::Z: return pauli_z();
    case GateKind::S: return {1, 0, 0, kI};
    case GateKind::Sdg: return {1, 0, 0, -kI};
    case GateKind::T: return {1, 0, 0, cexp(M_PI / 4.0)};
    case GateKind::Tdg: return {1, 0, 0, cexp(-M_PI / 4.0)};
    case GateKind::RX:
      return {std::cos(half), -kI * std::sin(half),  //
              -kI * std::sin(half), std::cos(half)};
    case GateKind::RY:
      return {std::cos(half), -std::sin(half),  //
              std::sin(half), std::cos(half)};
    case GateKind::RZ:
      return {cexp(-half), 0, 0, cexp(half)};
    default:
      throw PreconditionError("gate_unitary_1q: not a one-qubit unitary: " +
                              gate_name(kind));
  }
}

Mat4 gate_unitary_2q(GateKind kind, double param) {
  switch (kind) {
    case GateKind::CX: return cnot();
    case GateKind::CZ:
      return {1, 0, 0, 0,  //
              0, 1, 0, 0,  //
              0, 0, 1, 0,  //
              0, 0, 0, -1};
    case GateKind::CP:
      return {1, 0, 0, 0,  //
              0, 1, 0, 0,  //
              0, 0, 1, 0,  //
              0, 0, 0, cexp(param)};
    case GateKind::RZZ: {
      // exp(-i param/2 Z (x) Z): diagonal phases on |00>,|01>,|10>,|11>.
      const Complex p = cexp(-param / 2.0);
      const Complex m = cexp(param / 2.0);
      return {p, 0, 0, 0,  //
              0, m, 0, 0,  //
              0, 0, m, 0,  //
              0, 0, 0, p};
    }
    case GateKind::SWAP:
      return {1, 0, 0, 0,  //
              0, 0, 1, 0,  //
              0, 1, 0, 0,  //
              0, 0, 0, 1};
    default:
      throw PreconditionError("gate_unitary_2q: not a two-qubit unitary: " +
                              gate_name(kind));
  }
}

namespace {

template <std::size_t N>
bool unitary_impl(const std::array<Complex, N * N>& u, double tol) {
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t j = 0; j < N; ++j) {
      Complex dot{0.0, 0.0};
      for (std::size_t k = 0; k < N; ++k) {
        dot += u[i * N + k] * std::conj(u[j * N + k]);
      }
      const Complex expected = (i == j) ? Complex{1.0, 0.0} : Complex{0.0, 0.0};
      if (std::abs(dot - expected) > tol) return false;
    }
  }
  return true;
}

}  // namespace

bool is_unitary(const Mat2& u, double tol) { return unitary_impl<2>(u, tol); }
bool is_unitary(const Mat4& u, double tol) { return unitary_impl<4>(u, tol); }

}  // namespace dqcsim::qsim
