/// \file dqcsim.hpp
/// \brief Umbrella header: the full public API of the dqcsim library.
///
/// dqcsim reproduces "Hardware-Software Co-design for Distributed Quantum
/// Computing" (DAC 2025): a 2-node DQC architecture simulator with
/// entanglement buffering, asynchronous generation, and adaptive remote-gate
/// scheduling. Typical usage:
///
/// \code
///   using namespace dqcsim;
///   Circuit qc = gen::make_qft(32);
///   auto part = runtime::partition_circuit(qc, /*num_nodes=*/2);
///   runtime::ArchConfig config;                 // paper defaults
///   auto agg = runtime::run_design(qc, part.assignment, config,
///                                  runtime::DesignKind::AsyncBuf,
///                                  /*runs=*/50);
///   std::cout << agg.depth.mean() << ' ' << agg.fidelity.mean() << '\n';
/// \endcode

#pragma once

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/histogram.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"

#include "des/event_queue.hpp"
#include "des/simulator.hpp"

#include "circuit/circuit.hpp"
#include "circuit/commutation.hpp"
#include "circuit/dag.hpp"
#include "circuit/gate.hpp"
#include "circuit/interaction_graph.hpp"

#include "gen/benchmarks.hpp"
#include "gen/qaoa.hpp"
#include "gen/qft.hpp"
#include "gen/regular_graph.hpp"
#include "gen/tlim.hpp"

#include "partition/coarsen.hpp"
#include "partition/fm_refine.hpp"
#include "partition/graph.hpp"
#include "partition/initial_partition.hpp"
#include "partition/partitioner.hpp"

#include "noise/fidelity_ledger.hpp"
#include "noise/purification.hpp"
#include "noise/teleport_fidelity.hpp"
#include "noise/werner.hpp"

#include "ent/buffer_pool.hpp"
#include "ent/generation_service.hpp"
#include "ent/link_params.hpp"
#include "ent/trace.hpp"

#include "net/mapping.hpp"
#include "net/router.hpp"
#include "net/swap.hpp"
#include "net/topology.hpp"

#include "obs/observe.hpp"
#include "obs/registry.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"

#include "sched/adaptive_policy.hpp"
#include "sched/fusible_chains.hpp"
#include "sched/remote_gates.hpp"
#include "sched/segmentation.hpp"
#include "sched/variants.hpp"

#include "runtime/arch_config.hpp"
#include "runtime/design.hpp"
#include "runtime/engine.hpp"
#include "runtime/experiment.hpp"
#include "runtime/metrics.hpp"
