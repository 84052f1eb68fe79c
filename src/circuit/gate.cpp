#include "circuit/gate.hpp"

#include <sstream>

#include "common/error.hpp"

namespace dqcsim {

bool is_diagonal(GateKind kind) noexcept {
  switch (kind) {
    case GateKind::Z:
    case GateKind::S:
    case GateKind::Sdg:
    case GateKind::T:
    case GateKind::Tdg:
    case GateKind::RZ:
    case GateKind::CZ:
    case GateKind::CP:
    case GateKind::RZZ:
      return true;
    default:
      return false;
  }
}

bool has_param(GateKind kind) noexcept {
  switch (kind) {
    case GateKind::RX:
    case GateKind::RY:
    case GateKind::RZ:
    case GateKind::RZZ:
    case GateKind::CP:
      return true;
    default:
      return false;
  }
}

std::string gate_name(GateKind kind) {
  switch (kind) {
    case GateKind::H: return "h";
    case GateKind::X: return "x";
    case GateKind::Y: return "y";
    case GateKind::Z: return "z";
    case GateKind::S: return "s";
    case GateKind::Sdg: return "sdg";
    case GateKind::T: return "t";
    case GateKind::Tdg: return "tdg";
    case GateKind::RX: return "rx";
    case GateKind::RY: return "ry";
    case GateKind::RZ: return "rz";
    case GateKind::CX: return "cx";
    case GateKind::CZ: return "cz";
    case GateKind::CP: return "cp";
    case GateKind::RZZ: return "rzz";
    case GateKind::SWAP: return "swap";
    case GateKind::Measure: return "measure";
  }
  return "?";
}

bool Gate::acts_on(QubitId q) const noexcept {
  if (qubits[0] == q) return true;
  return arity() == 2 && qubits[1] == q;
}

bool Gate::overlaps(const Gate& other) const noexcept {
  for (int i = 0; i < arity(); ++i) {
    if (other.acts_on(qubits[static_cast<std::size_t>(i)])) return true;
  }
  return false;
}

std::string Gate::to_string() const {
  std::ostringstream os;
  os << gate_name(kind);
  if (has_param(kind)) {
    os.precision(4);
    os << '(' << std::fixed << param << ')';
  }
  os << " q" << qubits[0];
  if (arity() == 2) os << ", q" << qubits[1];
  return os.str();
}

Gate make_gate(GateKind kind, QubitId q, double param) {
  DQCSIM_EXPECTS_MSG(gate_arity(kind) == 1, "kind requires two operands");
  DQCSIM_EXPECTS(q >= 0);
  return Gate{kind, {q, -1}, param};
}

Gate make_gate(GateKind kind, QubitId q0, QubitId q1, double param) {
  DQCSIM_EXPECTS_MSG(gate_arity(kind) == 2, "kind takes one operand");
  DQCSIM_EXPECTS(q0 >= 0 && q1 >= 0);
  DQCSIM_EXPECTS_MSG(q0 != q1, "two-qubit gate operands must differ");
  return Gate{kind, {q0, q1}, param};
}

}  // namespace dqcsim
