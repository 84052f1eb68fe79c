/// \file dag.hpp
/// \brief Commutation-aware dependency DAG over a gate range.
///
/// An edge j -> l exists when gate j precedes gate l, the two share a
/// qubit, and they do not provably commute (`gates_commute`). These are the
/// orderings the ASAP/ALAP segment variants of the paper's §III-D must keep;
/// every linearization of the DAG implements the same unitary.

#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "circuit/circuit.hpp"

namespace dqcsim {

/// Dependency DAG of a contiguous gate range, stored in CSR form (one
/// offsets array plus one flat index array per direction). Every build
/// reuses the storage, so it allocates only when it needs more than any
/// earlier build did.
class DependencyDag {
 public:
  /// Build the DAG of gates [begin, end) of `circuit`, replacing any earlier
  /// build: node l is gate begin + l.
  /// Precondition: begin <= end <= circuit.num_gates().
  void build(const Circuit& circuit, std::size_t begin, std::size_t end);

  std::size_t num_nodes() const noexcept { return num_nodes_; }

  /// Direct predecessors of node l (nodes that must finish before it
  /// starts), ascending. Rows stay valid until the next build.
  std::span<const std::size_t> preds(std::size_t l) const;

  /// Direct successors of node l, ascending; valid until the next build.
  std::span<const std::size_t> succs(std::size_t l) const;

 private:
  std::size_t num_nodes_ = 0;
  std::vector<std::size_t> pred_offsets_;  // num_nodes_ + 1 row starts
  std::vector<std::size_t> preds_;
  std::vector<std::size_t> succ_offsets_;
  std::vector<std::size_t> succs_;
  // Build scratch: the latest node seen on each qubit, each node's previous
  // node on the wire of its k-th operand, and a per-node marker / cursor.
  std::vector<std::size_t> last_on_wire_;
  std::vector<std::array<std::size_t, 2>> prev_on_wire_;
  std::vector<std::size_t> scratch_;
};

}  // namespace dqcsim
