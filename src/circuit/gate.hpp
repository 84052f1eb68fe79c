/// \file gate.hpp
/// \brief Gate-level IR: the vocabulary of operations dqcsim circuits use.
///
/// The paper's workloads (TLIM quench, QAOA MaxCut, QFT) only require a
/// small universal set: Pauli/Clifford 1Q gates, axis rotations, CX/CZ/CP,
/// the diagonal two-qubit RZZ, and SWAP. Every gate is value-semantic and
/// trivially copyable.

#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace dqcsim {

/// Qubit index within a circuit (0-based).
using QubitId = std::int32_t;

/// Kinds of gates supported by the IR.
enum class GateKind : std::uint8_t {
  // one-qubit
  H,
  X,
  Y,
  Z,
  S,
  Sdg,
  T,
  Tdg,
  RX,
  RY,
  RZ,
  // two-qubit
  CX,
  CZ,
  CP,    ///< controlled-phase with angle parameter
  RZZ,   ///< exp(-i theta/2 Z⊗Z)
  SWAP,
  // non-unitary
  Measure,  ///< single-qubit computational-basis measurement
};

/// Number of qubit operands for a gate kind (1 or 2). Inline: the engine
/// and the schedulers ask it for every gate they visit.
constexpr int gate_arity(GateKind kind) noexcept {
  switch (kind) {
    case GateKind::CX:
    case GateKind::CZ:
    case GateKind::CP:
    case GateKind::RZZ:
    case GateKind::SWAP:
      return 2;
    default:
      return 1;
  }
}

/// True for two-qubit unitaries (CX, CZ, CP, RZZ, SWAP).
constexpr bool is_two_qubit(GateKind kind) noexcept {
  return gate_arity(kind) == 2;
}

/// True for gates diagonal in the computational (Z) basis.
/// Diagonal gates mutually commute regardless of operand overlap.
bool is_diagonal(GateKind kind) noexcept;

/// True when the kind carries a rotation/phase angle parameter.
bool has_param(GateKind kind) noexcept;

/// Short mnemonic, e.g. "cx", "rzz".
std::string gate_name(GateKind kind);

/// One gate instance: a kind, 1-2 qubit operands, and an optional angle.
struct Gate {
  GateKind kind;
  std::array<QubitId, 2> qubits;  ///< operand order matters for CX/CP
  double param = 0.0;             ///< angle for RX/RY/RZ/RZZ/CP, else unused

  /// Number of operands (1 or 2).
  constexpr int arity() const noexcept { return gate_arity(kind); }

  /// First operand (control for CX/CP).
  QubitId q0() const noexcept { return qubits[0]; }

  /// Second operand (target for CX/CP); only valid when arity() == 2.
  QubitId q1() const noexcept { return qubits[1]; }

  /// True if `q` is one of this gate's operands.
  bool acts_on(QubitId q) const noexcept;

  /// True if the two gates share at least one operand qubit.
  bool overlaps(const Gate& other) const noexcept;

  /// Human-readable form, e.g. "cx q3, q17" or "rzz(0.5000) q0, q1".
  std::string to_string() const;

  friend bool operator==(const Gate& a, const Gate& b) noexcept = default;
};

/// Construct a one-qubit gate. Precondition: kind has arity 1.
Gate make_gate(GateKind kind, QubitId q, double param = 0.0);

/// Construct a two-qubit gate. Preconditions: kind has arity 2, q0 != q1.
Gate make_gate(GateKind kind, QubitId q0, QubitId q1, double param = 0.0);

}  // namespace dqcsim
