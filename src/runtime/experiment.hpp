/// \file experiment.hpp
/// \brief High-level experiment driver: partition a workload, run a design
/// repeatedly, and aggregate — the workflow behind every figure (§V).

#pragma once

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "net/topology.hpp"
#include "partition/partitioner.hpp"
#include "runtime/arch_config.hpp"
#include "runtime/design.hpp"
#include "runtime/metrics.hpp"

namespace dqcsim::runtime {

/// Partition a circuit's qubits across `num_nodes` QPUs by balanced min-cut
/// of the interaction graph (the paper's METIS baseline, §IV-A).
partition::PartitionResult partition_circuit(const Circuit& circuit,
                                             int num_nodes,
                                             std::uint64_t seed = 1);

/// Topology-aware partition: balanced min-cut across the topology's nodes,
/// then a part -> physical-node placement that minimises the
/// distance-scaled cut sum(traffic(p, q) * hops(p, q)) (heavily
/// communicating parts land on adjacent QPUs, so fewer remote gates pay
/// multi-hop swap chains; see net::optimize_node_mapping). The returned
/// `cut` is that distance-scaled weight — on an all-to-all topology it
/// equals the plain cut and the assignment matches the overload above.
partition::PartitionResult partition_circuit(const Circuit& circuit,
                                             const net::Topology& topology,
                                             std::uint64_t seed = 1);

/// Run `design` on the partitioned circuit `runs` times with seeds
/// base_seed, base_seed+1, ... and aggregate depth/fidelity statistics.
///
/// Runs fan out across `threads` workers of the calling thread's pool
/// (0 = all hardware threads, 1 = serial in the calling thread). Each
/// worker id keeps one RunContext per calling thread, warm across calls
/// (setup and teleport models cached); a call releases its inputs when it
/// returns and the next resolves its circuit by content, so the result
/// equals a loop over fresh RunContexts. Seed derivation is per-run
/// (base_seed + r) and results are folded into the aggregate in run order,
/// so the statistics are bit-identical for every thread count.
AggregateResult run_design(const Circuit& circuit,
                           const std::vector<int>& assignment,
                           const ArchConfig& config, DesignKind design,
                           int runs, std::uint64_t base_seed = 1000,
                           int threads = 0);

/// One cell of a design x configuration sweep.
struct DesignPoint {
  DesignKind design = DesignKind::AsyncBuf;
  ArchConfig config;
};

/// Batched sweep: evaluate every point with `runs` seeds each, scheduling
/// all point x run cells onto one shared pool so small per-point run counts
/// still saturate the machine. Element i of the result equals
/// run_design(circuit, assignment, points[i].config, points[i].design,
/// runs, base_seed) bit-for-bit, for every thread count.
std::vector<AggregateResult> run_design_matrix(
    const Circuit& circuit, const std::vector<int>& assignment,
    const std::vector<DesignPoint>& points, int runs,
    std::uint64_t base_seed = 1000, int threads = 0);

/// Depth of the circuit on an ideal monolithic device (lower bound used as
/// the normalization of Figures 5, 7 and 8).
double ideal_depth(const Circuit& circuit, const ArchConfig& config);

/// Fidelity on an ideal monolithic device (normalization of Figure 6).
double ideal_fidelity(const Circuit& circuit, const ArchConfig& config);

}  // namespace dqcsim::runtime
