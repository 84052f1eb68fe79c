#include "circuit/dag.hpp"

#include <algorithm>

#include "circuit/commutation.hpp"
#include "common/error.hpp"

namespace dqcsim {
namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

}  // namespace

void DependencyDag::build(const Circuit& circuit, std::size_t begin,
                          std::size_t end) {
  DQCSIM_EXPECTS(begin <= end && end <= circuit.num_gates());
  const std::size_t n = end - begin;
  const Gate* gates = circuit.gates().data() + begin;
  num_nodes_ = n;
  last_on_wire_.assign(static_cast<std::size_t>(circuit.num_qubits()), kNone);
  prev_on_wire_.resize(n);
  scratch_.assign(n, kNone);  // scratch_[j] == l once j is a pred of l
  pred_offsets_.resize(n + 1);
  preds_.clear();

  for (std::size_t l = 0; l < n; ++l) {
    const Gate& gl = gates[l];
    pred_offsets_[l] = preds_.size();
    for (std::size_t k = 0; k < static_cast<std::size_t>(gl.arity()); ++k) {
      const QubitId q = gl.qubits[k];
      std::size_t& last = last_on_wire_[static_cast<std::size_t>(q)];
      // Node l depends on every earlier node on the wire it does not
      // provably commute with. Stopping at the first non-commuting node
      // would be unsound (a commuting intermediary can hide an older
      // conflicting node), so the whole wire history is walked; transitive
      // edges do not change the set of linearizations.
      for (std::size_t j = last; j != kNone;
           j = prev_on_wire_[j][gates[j].qubits[0] == q ? 0 : 1]) {
        if (scratch_[j] != l && !gates_commute(gl, gates[j])) {
          scratch_[j] = l;
          preds_.push_back(j);
        }
      }
      prev_on_wire_[l][k] = last;
      last = l;
    }
    std::sort(preds_.begin() + static_cast<std::ptrdiff_t>(pred_offsets_[l]),
              preds_.end());
  }
  pred_offsets_[n] = preds_.size();

  // Successor rows: count, prefix-sum, then fill in ascending l so that
  // every row comes out ascending.
  succ_offsets_.assign(n + 1, 0);
  for (const std::size_t j : preds_) ++succ_offsets_[j + 1];
  for (std::size_t i = 0; i < n; ++i) succ_offsets_[i + 1] += succ_offsets_[i];
  succs_.resize(preds_.size());
  std::copy(succ_offsets_.begin(), succ_offsets_.end() - 1, scratch_.begin());
  for (std::size_t l = 0; l < n; ++l) {
    for (const std::size_t j : preds(l)) succs_[scratch_[j]++] = l;
  }
}

std::span<const std::size_t> DependencyDag::preds(std::size_t l) const {
  DQCSIM_EXPECTS(l < num_nodes_);
  return {preds_.data() + pred_offsets_[l],
          pred_offsets_[l + 1] - pred_offsets_[l]};
}

std::span<const std::size_t> DependencyDag::succs(std::size_t l) const {
  DQCSIM_EXPECTS(l < num_nodes_);
  return {succs_.data() + succ_offsets_[l],
          succ_offsets_[l + 1] - succ_offsets_[l]};
}

}  // namespace dqcsim
