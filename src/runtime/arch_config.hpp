/// \file arch_config.hpp
/// \brief DQC architecture configuration (paper §IV-A, Table II).
///
/// All times are in units of one local CNOT latency (300 ns physical); the
/// decoherence rate kappa = T_cnot / T2 = 300 ns / 150 us = 0.002 per unit.

#pragma once

#include <cstdint>
#include <limits>
#include <memory>

#include "ent/link_params.hpp"
#include "net/swap.hpp"
#include "net/topology.hpp"
#include "obs/observe.hpp"
#include "runtime/design.hpp"
#include "scenario/scenario.hpp"

namespace dqcsim::runtime {

/// Operation latencies (Table II), in local-CNOT units.
struct Latencies {
  double one_qubit = 0.1;
  double local_cnot = 1.0;
  double measurement = 5.0;
  double epr_cycle = 10.0;     ///< T_EG: one generation attempt
  double swap_buffer = 1.0;    ///< comm -> buffer SWAP
  /// Data-qubit occupation of a teleported remote gate. The feed-forward
  /// measurement and Pauli correction run on the Bell halves / in the Pauli
  /// frame, off the data-qubit critical path, so the default equals one
  /// local CNOT (see DESIGN.md "Remote-gate latency").
  double remote_gate = 1.0;
  /// Data-qubit occupation of a remote gate implemented by *state*
  /// teleportation (move control over, local CNOT, move back): the control
  /// wire threads three CNOT-class operations.
  double remote_gate_state = 3.0;
};

/// How remote two-qubit gates are realized (paper §II-C; the combination of
/// both was left as future work in §III-D — StateTeleport implements it).
enum class RemoteImpl {
  GateTeleport,   ///< Fig. 1(c): one EPR pair per remote gate (paper default)
  StateTeleport,  ///< Fig. 1(b) twice: two EPR pairs per remote gate
};

/// Operation fidelities (Table II).
struct Fidelities {
  double one_qubit = 0.9999;
  double local_cnot = 0.999;
  double measurement = 0.998;
  double epr_f0 = 0.99;  ///< freshly generated Bell-pair fidelity

  friend bool operator==(const Fidelities&, const Fidelities&) = default;
};

/// Full architecture configuration for a DQC system of `num_nodes` QPUs.
///
/// The paper evaluates 2 nodes; the engine generalizes to all-to-all
/// interconnects of k nodes by splitting each node's communication and
/// buffer qubits evenly across its k-1 links (see link_params).
struct ArchConfig {
  int num_nodes = 2;          ///< QPU count (>= 2), all-to-all interconnect
  int comm_per_node = 10;     ///< communication qubits per node
  int buffer_per_node = 10;   ///< buffer qubits per node
  Latencies lat;
  Fidelities fid;
  double p_succ = 0.4;        ///< EPR generation success probability
  double kappa = 0.002;       ///< decoherence rate per time unit
  /// Buffer storage cutoff (time units); infinity disables the policy.
  double buffer_cutoff = std::numeric_limits<double>::infinity();
  /// Stagger subgroups for asynchronous generation (clamped to comm pairs).
  int async_subgroups = 10;
  /// Consume the freshest buffered pair first (see ent::ConsumeOrder).
  bool consume_freshest = true;
  /// Remote gates per adaptive segment; 0 selects the paper's default
  /// round(comm_per_node * p_succ).
  std::size_t segment_size = 0;
  /// Remote-gate implementation (gate teleportation by default).
  RemoteImpl remote_impl = RemoteImpl::GateTeleport;
  /// Purify-on-consume: each remote gate distills its EPR pair from two
  /// buffered pairs (BBPSSW); a failed round discards both pairs and the
  /// gate waits for new ones. Only meaningful for buffered designs with
  /// GateTeleport. Raises per-gate fidelity, halves (at best) the
  /// effective pair rate.
  bool purify_on_consume = false;
  /// Local-operation time of one purification round (CNOT + measurement on
  /// each side, in t_CNOT units); delays the purified gate's start.
  double purification_latency = 6.0;
  /// Execute runs of consecutive one-qubit gates on a wire as a single
  /// scheduling event with summed latency (see fusible_1q_chain_next).
  /// The chain's completion instant, fidelity factors, and every observable
  /// statistic are unchanged — only the discrete-event count shrinks — so
  /// results are bit-identical with the toggle on or off. Applied to the
  /// non-adaptive designs (the adaptive controller observes execution at
  /// gate granularity and is left untouched).
  bool fuse_local_gates = true;
  /// Record per-pair arrival times in each link's ArrivalTrace (Fig. 3).
  /// Monte-Carlo sweeps that never read the trace can switch this off; no
  /// simulated statistic depends on it.
  bool record_arrival_trace = true;
  /// Physical interconnect topology. Null (the default) means the legacy
  /// homogeneous all-to-all interconnect; setting a topology routes every
  /// node pair's entanglement over physical links (multi-hop pairs are
  /// composed through entanglement swaps, see net::Router / net::compose
  /// _route). Routes minimize the expected time per delivered pair,
  /// cycle / (p_succ * pairs), summed over the path's edges. Shared
  /// ownership keeps ArchConfig copies allocation-free in the Monte-Carlo
  /// trial loop.
  std::shared_ptr<const net::Topology> topology;
  /// Fault & drift scenario applied per trial (see scenario/scenario.hpp).
  /// Null (the default) is the stationary fabric, bit-identical to builds
  /// without the scenario layer. Requires a topology: scenarios target
  /// physical edges (use net::Topology::all_to_all for the legacy shape).
  std::shared_ptr<const scenario::Scenario> scenario;

  // --- Congestion & shared-capacity modes (see net/congestion.hpp and
  // docs/ARCHITECTURE.md). Both default off: every edge then grants each
  // route its full budget, as before these modes existed. Each knob needs a
  // topology; validate() rejects it without one (the homogeneous
  // all-to-all interconnect has no shared edges).

  /// Share each physical edge's generation budget between the routes
  /// crossing it: every route receives a deterministic near-even slice of
  /// the edge's comm/buffer capacity (floor + remainder by route creation
  /// rank, clamped to >= 1; see net::capacity_share) instead of drawing
  /// the full per-edge budget. Shares are assigned at t=0 and stay frozen
  /// for the trial, matching the frozen structural composition. No effect
  /// with swap_as_you_go, whose edge buffers are shared dynamically.
  bool share_edge_capacity = false;
  /// Swap-as-you-go delivery on a topology: one generation service per
  /// *physical edge* buffers pairs at intermediate swap nodes, and an
  /// end-to-end pair is fused on demand from one buffered pair per hop —
  /// escaping the composed model's punishing all-hops-in-one-window
  /// p_succ^hops success law. Edge budgets are inherently shared between
  /// the routes draining a common buffer. Bufferless (OnDemand) designs
  /// run a degraded one-slot-per-edge service: each hop pair parks on the
  /// edge's communication qubits until the fusion drains it, so the knob
  /// selects the same delivery model for every design instead of silently
  /// falling back to the composed model for the original design. Every
  /// edge buffer, the degraded slot included, must hold one remote gate's
  /// pairs (pairs_per_remote_gate()), else the engine throws ConfigError.
  bool swap_as_you_go = false;

  // --- Degraded-mode delivery under faults (all default off; see
  // docs/ARCHITECTURE.md "Fault handling & degraded modes"). Knobs-off
  // runs are bit-identical to the engine without this layer.

  /// Mid-flight pair salvage at outage boundaries. Entangled pairs held
  /// in buffers survive a *channel* outage — only new generation pauses —
  /// so with swap_as_you_go a logical link whose entire route is severed
  /// may still assemble end-to-end pairs from hop pairs buffered before
  /// the outage, along its last route, provided every node on that route
  /// is up (salvage is from *surviving nodes*). In the composed model the
  /// kept stock is re-credited to the re-planned route's budget and
  /// consumption while routeless is counted as salvage. Pairs buffered at
  /// a *down node* are lost and flushed at the boundary. Reported as
  /// pairs_salvaged / pairs_discarded; arbitration between links follows
  /// the usual creation order.
  bool salvage_pairs = false;
  /// link_stalled watchdog: report (in RunResult::links_stalled) how many
  /// generation services went longer than stall_windows attempt windows
  /// without a single successful generation at any point in the trial.
  /// 0 disables the watchdog.
  int stall_windows = 0;
  /// Trial sim-time budget: a trial whose next event would fire beyond
  /// this instant stops cleanly with RunResult::truncated set and partial
  /// metrics (depth reports the budget horizon). Deterministic — the
  /// budget is simulation time, not wall clock — so truncated runs stay
  /// bit-identical across thread counts. Infinity (default) disables it.
  double max_trial_sim_time = std::numeric_limits<double>::infinity();

  /// Observability switchboard (see obs/observe.hpp and the
  /// docs/ARCHITECTURE.md "Observability" section): metrics registry,
  /// single-trial tracing, and the engine self-profile. Null (the default)
  /// keeps today's behavior exactly — every hook is a branch on this
  /// pointer, so results stay bit-identical and the trial hot path stays
  /// allocation-free. Shared ownership keeps ArchConfig copies
  /// allocation-free, like `topology` and `scenario`; share one instance
  /// across a sweep to aggregate into a single collector.
  std::shared_ptr<obs::Observe> observe;

  /// Convenience: wrap `topo` for the shared `topology` slot.
  void set_topology(net::Topology topo) {
    topology = std::make_shared<const net::Topology>(std::move(topo));
  }

  /// Convenience: wrap `scn` for the shared `scenario` slot.
  void set_scenario(scenario::Scenario scn) {
    scenario = std::make_shared<const scenario::Scenario>(std::move(scn));
  }

  /// EPR pairs consumed per remote gate under the selected implementation
  /// (a *successful* purification round doubles the count again).
  int pairs_per_remote_gate() const {
    const int base = remote_impl == RemoteImpl::GateTeleport ? 1 : 2;
    return purify_on_consume ? 2 * base : base;
  }

  /// Throws ConfigError when any field is out of domain.
  void validate() const;

  /// Derive the entanglement-link parameters for a given design
  /// (schedule/buffering follow the design's feature set) under the legacy
  /// all-to-all interconnect. Each node splits its communication/buffer
  /// qubits evenly across its num_nodes - 1 links, so per-link resources
  /// shrink as the interconnect widens.
  /// Throws ConfigError when a node has fewer communication qubits than
  /// links (comm_per_node < num_nodes - 1).
  ent::LinkParams link_params(DesignKind design) const;

  /// Per-node-pair link parameters. Without a topology every pair gets the
  /// homogeneous all-to-all parameters above. With a topology, {a, b} must
  /// be a physical edge: the edge's overrides apply and each endpoint
  /// splits its comm/buffer budget across its own degree (the scarcer
  /// endpoint bounds the link). Multi-hop pairs have no direct link — the
  /// engine derives their effective link by routing (net::compose_route);
  /// requesting one here throws ConfigError.
  /// Throws ConfigError when an endpoint's degree exceeds comm_per_node.
  ent::LinkParams link_params(DesignKind design, int node_a,
                              int node_b) const;

  /// Local-operation model of one entanglement swap under this config:
  /// BSM fidelity = local CNOT x measurement^2, latency = local CNOT +
  /// measurement (feed-forward runs in the Pauli frame).
  net::SwapParams swap_params() const;

  /// Effective adaptive segment size m.
  std::size_t effective_segment_size() const;
};

}  // namespace dqcsim::runtime
