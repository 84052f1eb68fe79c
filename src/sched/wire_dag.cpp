#include "sched/wire_dag.hpp"

namespace dqcsim::sched {

void WireDag::build(const Circuit& circuit) {
  clear(circuit);
  begin_run();
  for (std::size_t g = 0; g < circuit.num_gates(); ++g) append(circuit, g);
}

void WireDag::clear(const Circuit& circuit) {
  DQCSIM_EXPECTS(circuit.num_gates() < kNoGate);
  gate.clear();
  succs.clear();
  num_preds.clear();
  open_wires.clear();
  roots.clear();
  const auto wires = static_cast<std::size_t>(circuit.num_qubits());
  last_pos_.assign(wires, 0);
  last_run_.assign(wires, 0);
  run_ = 0;  // begin_run() makes it 1: no wire has a gate in any run yet
}

void WireDag::append(const Circuit& circuit, std::size_t g) {
  const Gate& op = circuit.gate(g);
  const auto self = static_cast<std::uint32_t>(g);
  const auto pos = static_cast<std::uint32_t>(gate.size());
  std::uint8_t preds = 0;
  std::uint8_t open = 0;
  for (int k = 0; k < op.arity(); ++k) {
    const auto q =
        static_cast<std::size_t>(op.qubits[static_cast<std::size_t>(k)]);
    if (last_run_[q] != run_) {
      open |= static_cast<std::uint8_t>(1u << k);
    } else if (succs[last_pos_[q]].add(self)) {
      ++preds;
    }
    last_run_[q] = run_;
    last_pos_[q] = pos;
  }
  gate.push_back(self);
  succs.emplace_back();
  num_preds.push_back(preds);
  open_wires.push_back(open);
  if (preds == 0) roots.push_back(pos);
}

}  // namespace dqcsim::sched
