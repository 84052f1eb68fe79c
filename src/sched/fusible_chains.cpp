#include "sched/fusible_chains.hpp"

namespace dqcsim::sched {

std::vector<std::size_t> fusible_1q_chain_next(const Circuit& qc) {
  std::vector<std::size_t> next(qc.num_gates(), kNoFusedNext);
  std::vector<std::size_t> last_1q_on_wire(
      static_cast<std::size_t>(qc.num_qubits()), kNoFusedNext);
  for (std::size_t g = 0; g < qc.num_gates(); ++g) {
    const Gate& gate = qc.gate(g);
    if (gate.arity() == 1) {
      const auto w = static_cast<std::size_t>(gate.q0());
      if (last_1q_on_wire[w] != kNoFusedNext) {
        next[last_1q_on_wire[w]] = g;
      }
      last_1q_on_wire[w] = g;
    } else {
      // A two-qubit gate breaks any chain on both wires.
      last_1q_on_wire[static_cast<std::size_t>(gate.q0())] = kNoFusedNext;
      last_1q_on_wire[static_cast<std::size_t>(gate.q1())] = kNoFusedNext;
    }
  }
  return next;
}

}  // namespace dqcsim::sched
