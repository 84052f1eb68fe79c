#include "runtime/arch_config.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "sched/segmentation.hpp"

namespace dqcsim::runtime {

void ArchConfig::validate() const {
  if (num_nodes < 2) {
    throw ConfigError("ArchConfig: a DQC system needs at least two nodes");
  }
  if (comm_per_node < 1) {
    throw ConfigError("ArchConfig: need at least one communication qubit");
  }
  if (buffer_per_node < 0) {
    throw ConfigError("ArchConfig: buffer count must be nonnegative");
  }
  if (!(p_succ > 0.0 && p_succ <= 1.0)) {
    throw ConfigError("ArchConfig: p_succ must be in (0, 1]");
  }
  if (!(std::isfinite(kappa) && kappa >= 0.0)) {
    throw ConfigError("ArchConfig: kappa must be finite and nonnegative");
  }
  if (!(buffer_cutoff > 0.0)) {
    throw ConfigError("ArchConfig: buffer cutoff must be positive");
  }
  if (async_subgroups < 1) {
    throw ConfigError("ArchConfig: async_subgroups must be at least 1");
  }
  // Every latency is a finite duration; NaN and infinity fail every test.
  const auto nonneg = [](double t) { return std::isfinite(t) && t >= 0.0; };
  const auto positive = [](double t) { return std::isfinite(t) && t > 0.0; };
  if (!nonneg(lat.one_qubit) || !positive(lat.local_cnot) ||
      !nonneg(lat.measurement) || !positive(lat.epr_cycle) ||
      !nonneg(lat.swap_buffer) || !positive(lat.remote_gate) ||
      !positive(lat.remote_gate_state)) {
    throw ConfigError("ArchConfig: latencies out of domain");
  }
  if (!nonneg(purification_latency)) {
    throw ConfigError(
        "ArchConfig: purification latency must be finite and nonnegative");
  }
  const auto fid_ok = [](double f) { return f > 0.0 && f <= 1.0; };
  if (!fid_ok(fid.one_qubit) || !fid_ok(fid.local_cnot) ||
      !fid_ok(fid.measurement)) {
    throw ConfigError("ArchConfig: gate fidelities must be in (0, 1]");
  }
  if (!(fid.epr_f0 >= 0.25 && fid.epr_f0 <= 1.0)) {
    throw ConfigError("ArchConfig: EPR fidelity must be in [0.25, 1]");
  }
  if (stall_windows < 0) {
    throw ConfigError("ArchConfig: stall_windows must be nonnegative");
  }
  if (!(max_trial_sim_time > 0.0)) {
    throw ConfigError("ArchConfig: max_trial_sim_time must be positive");
  }
  if (!topology && (share_edge_capacity || swap_as_you_go)) {
    throw ConfigError(
        "ArchConfig: share_edge_capacity and swap_as_you_go act on physical "
        "edges and need a topology");
  }
  if (topology) {
    topology->validate();
    if (topology->num_nodes() != num_nodes) {
      throw ConfigError(
          "ArchConfig: topology node count must match num_nodes");
    }
  }
  if (scenario) {
    if (!topology) {
      throw ConfigError(
          "ArchConfig: a fault scenario requires a topology (scenarios "
          "target physical edges; use net::Topology::all_to_all for the "
          "legacy interconnect)");
    }
    scenario->validate(*topology);
  }
}

namespace {

/// The architecture-wide link fields shared by every interconnect edge
/// (capacities are filled in by the caller from the local link degree).
ent::LinkParams common_link_params(const ArchConfig& cfg,
                                   DesignKind design) {
  ent::LinkParams link;
  link.p_succ = cfg.p_succ;
  link.cycle_time = cfg.lat.epr_cycle;
  link.swap_latency = cfg.lat.swap_buffer;
  link.f0 = cfg.fid.epr_f0;
  link.kappa = cfg.kappa;
  link.cutoff = cfg.buffer_cutoff;
  link.schedule = design_uses_async(design)
                      ? ent::AttemptSchedule::Asynchronous
                      : ent::AttemptSchedule::Synchronous;
  link.async_subgroups = cfg.async_subgroups;
  link.consume_freshest = cfg.consume_freshest;
  link.record_trace = cfg.record_arrival_trace;
  return link;
}

/// Split a node's comm/buffer budget across `links_per_node` incident
/// links. Throws when the budget cannot cover the links.
void split_budget(const ArchConfig& cfg, DesignKind design,
                  int links_per_node, ent::LinkParams& link) {
  if (cfg.comm_per_node < links_per_node) {
    throw ConfigError(
        "ArchConfig: fewer communication qubits than links per node");
  }
  // Each node splits its communication qubits evenly across its links; a
  // link's pair count is the per-node share (both endpoints contribute one
  // qubit per pair).
  link.num_comm_pairs = cfg.comm_per_node / links_per_node;
  // A buffered pair occupies one buffer qubit per node; without buffer
  // qubits the design has no storage at all.
  link.buffer_capacity =
      design_uses_buffer(design)
          ? std::max(1, cfg.buffer_per_node / links_per_node)
          : 0;
}

}  // namespace

ent::LinkParams ArchConfig::link_params(DesignKind design) const {
  ent::LinkParams link = common_link_params(*this, design);
  split_budget(*this, design, num_nodes - 1, link);
  return link;
}

ent::LinkParams ArchConfig::link_params(DesignKind design, int node_a,
                                        int node_b) const {
  if (!topology) return link_params(design);
  const net::Topology& topo = *topology;
  if (node_a < 0 || node_b < 0 || node_a >= topo.num_nodes() ||
      node_b >= topo.num_nodes()) {
    throw ConfigError("ArchConfig: link endpoint outside [0, num_nodes)");
  }
  const std::size_t edge = topo.edge_index(node_a, node_b);
  if (edge == net::Topology::npos) {
    throw ConfigError(
        "ArchConfig: node pair has no physical edge; multi-hop links are "
        "derived by routing (net::Router + net::compose_route)");
  }
  ent::LinkParams link = common_link_params(*this, design);
  // The scarcer endpoint bounds the link: each endpoint splits its budget
  // across its own degree.
  split_budget(*this, design,
               std::max(topo.degree(node_a), topo.degree(node_b)), link);
  const net::EdgeOverrides& o = topo.edge(edge).overrides;
  if (o.p_succ) link.p_succ = *o.p_succ;
  if (o.cycle_time) link.cycle_time = *o.cycle_time;
  if (o.f0) link.f0 = *o.f0;
  return link;
}

net::SwapParams ArchConfig::swap_params() const {
  net::SwapParams swap;
  swap.bsm_fidelity = fid.local_cnot * fid.measurement * fid.measurement;
  swap.latency = lat.local_cnot + lat.measurement;
  return swap;
}

std::size_t ArchConfig::effective_segment_size() const {
  if (segment_size > 0) return segment_size;
  return sched::default_segment_size(comm_per_node, p_succ);
}

}  // namespace dqcsim::runtime
