/// \file fusible_chains.hpp
/// \brief Runs of one-qubit gates that the scheduler may execute as one
/// event (ArchConfig::fuse_local_gates).

#pragma once

#include <cstddef>
#include <vector>

#include "circuit/circuit.hpp"

namespace dqcsim::sched {

/// Sentinel for fusible_1q_chain_next: no fusible successor.
inline constexpr std::size_t kNoFusedNext = ~std::size_t{0};

/// Chain analysis behind ArchConfig::fuse_local_gates: next[g] is the
/// index of the gate immediately following gate g on its wire when *both*
/// are one-qubit operations (Measure included), i.e. when g's completion
/// enables exactly that gate and nothing else. Entries are kNoFusedNext
/// otherwise. Such chains can be executed as a single scheduling event with
/// summed latency without changing any observable timing.
std::vector<std::size_t> fusible_1q_chain_next(const Circuit& qc);

}  // namespace dqcsim::sched
