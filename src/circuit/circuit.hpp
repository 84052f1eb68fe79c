/// \file circuit.hpp
/// \brief The Circuit container: an ordered gate list over n qubits.
///
/// Circuits are the interchange format between the workload generators, the
/// partitioner (via the interaction graph), the scheduler (segmentation and
/// ASAP/ALAP variants) and the runtime engine. Gate order is program order;
/// dependency structure is derived on demand (see dag.hpp).

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "circuit/gate.hpp"
#include "common/error.hpp"

namespace dqcsim {

/// An ordered list of gates acting on a fixed-width qubit register.
class Circuit {
 public:
  /// Create an empty circuit over `num_qubits` qubits (may be 0 for tests).
  explicit Circuit(int num_qubits = 0, std::string name = "");

  int num_qubits() const noexcept { return num_qubits_; }
  const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  std::size_t num_gates() const noexcept { return gates_.size(); }
  /// Gate i in program order. Precondition: i < num_gates().
  const Gate& gate(std::size_t i) const {
    DQCSIM_EXPECTS(i < gates_.size());
    return gates_[i];
  }
  const std::vector<Gate>& gates() const noexcept { return gates_; }

  /// Append a gate; operands must lie in [0, num_qubits).
  void append(const Gate& g);

  // Convenience builders (operands validated as in append).
  void h(QubitId q) { append(make_gate(GateKind::H, q)); }
  void x(QubitId q) { append(make_gate(GateKind::X, q)); }
  void y(QubitId q) { append(make_gate(GateKind::Y, q)); }
  void z(QubitId q) { append(make_gate(GateKind::Z, q)); }
  void s(QubitId q) { append(make_gate(GateKind::S, q)); }
  void sdg(QubitId q) { append(make_gate(GateKind::Sdg, q)); }
  void t(QubitId q) { append(make_gate(GateKind::T, q)); }
  void tdg(QubitId q) { append(make_gate(GateKind::Tdg, q)); }
  void rx(QubitId q, double theta) { append(make_gate(GateKind::RX, q, theta)); }
  void ry(QubitId q, double theta) { append(make_gate(GateKind::RY, q, theta)); }
  void rz(QubitId q, double theta) { append(make_gate(GateKind::RZ, q, theta)); }
  void cx(QubitId c, QubitId t) { append(make_gate(GateKind::CX, c, t)); }
  void cz(QubitId a, QubitId b) { append(make_gate(GateKind::CZ, a, b)); }
  void cp(QubitId c, QubitId t, double theta) {
    append(make_gate(GateKind::CP, c, t, theta));
  }
  void rzz(QubitId a, QubitId b, double theta) {
    append(make_gate(GateKind::RZZ, a, b, theta));
  }
  void swap(QubitId a, QubitId b) { append(make_gate(GateKind::SWAP, a, b)); }
  void measure(QubitId q) { append(make_gate(GateKind::Measure, q)); }

  /// Number of one-qubit gates (measurements excluded).
  std::size_t count_1q() const noexcept;

  /// Number of two-qubit gates.
  std::size_t count_2q() const noexcept;

  /// Number of measurement operations.
  std::size_t count_measure() const noexcept;

  /// Unit-layer depth: greedy ASAP layering where every gate occupies one
  /// layer on each operand. This is the depth metric of the paper's Table I.
  std::size_t unit_depth() const;

  /// Latency-weighted depth: ASAP schedule makespan where each gate occupies
  /// its operands for `latency_of(gate)` time units.
  /// `latency_of` must return a nonnegative latency.
  double weighted_depth(double (*latency_of)(const Gate&)) const;

  /// Concatenate another circuit of the same width onto this one.
  void extend(const Circuit& other);

  /// Multi-line textual dump (one gate per line), for debugging and tests.
  std::string to_string() const;

  /// Cheap content hash (FNV-1a) of the width and every gate's kind,
  /// operands and parameter; the name is not hashed. Caches keyed on a
  /// circuit use it to tell a different circuit at a recycled address.
  std::uint64_t fingerprint() const noexcept;

 private:
  int num_qubits_;
  std::string name_;
  std::vector<Gate> gates_;
};

}  // namespace dqcsim
