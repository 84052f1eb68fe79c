/// \file wire_dag.hpp
/// \brief Wire DAGs of gate sequences: the dependencies gates executed in a
/// fixed order have, built once per setup so a trial only reads them.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/error.hpp"

namespace dqcsim::sched {

/// Dependencies of one or more gate sequences ("runs"), each wired in its
/// own order: a gate's predecessors are the last earlier gate of its run on
/// each of its operand wires, one edge when both wires name the same gate.
/// Entries are indexed by position, runs laid out back to back in the order
/// they were appended.
class WireDag {
 public:
  static constexpr std::uint32_t kNoGate = ~std::uint32_t{0};

  /// A gate's successors in the order they were added, kNoGate-padded. A
  /// gate has at most one successor per wire, so two slots cover every
  /// gate without per-gate vectors.
  struct Succs {
    std::uint32_t s[2] = {kNoGate, kNoGate};

    /// Add successor `g` unless it is the one added last (both wires of g
    /// may end in this gate: one edge). Returns whether `g` was added.
    bool add(std::uint32_t g) {
      if (s[0] == kNoGate) {
        s[0] = g;
        return true;
      }
      if ((s[1] == kNoGate ? s[0] : s[1]) == g) return false;
      DQCSIM_ENSURES(s[1] == kNoGate);  // one successor per wire
      s[1] = g;
      return true;
    }
  };

  std::vector<std::uint32_t> gate;       ///< per position: its gate
  std::vector<Succs> succs;              ///< per position: successor gates
  std::vector<std::uint8_t> num_preds;   ///< per position: 0, 1 or 2
  /// Per position: bit k set when operand wire k has no earlier gate in
  /// the run (the wire enters the run there).
  std::vector<std::uint8_t> open_wires;
  std::vector<std::uint32_t> roots;  ///< positions without preds, in order

  /// One run: the whole circuit in program order (position == gate).
  void build(const Circuit& circuit);

  /// Drop every run, keeping the storage, ready to append runs of gates of
  /// `circuit`. Precondition: fewer than 2^32 - 1 gates.
  void clear(const Circuit& circuit);

  /// Start a new run: gates appended from now on see none appended before.
  void begin_run() noexcept { ++run_; }

  /// Append gate `g` of the circuit passed to clear() to the current run.
  void append(const Circuit& circuit, std::size_t g);

 private:
  std::vector<std::uint32_t> last_pos_;  ///< per wire: last position on it
  std::vector<std::uint32_t> last_run_;  ///< per wire: run of last_pos_
  std::uint32_t run_ = 0;
};

}  // namespace dqcsim::sched
