#include "runtime/faults.hpp"

#include <algorithm>
#include <optional>

namespace dqcsim::runtime::detail {

void FaultController::arm() {
  const ArchConfig& config = t_.config;
  active_ = config.scenario != nullptr && !config.scenario->empty();
  if (!active_) return;
  scen_.begin_trial(*config.scenario, *config.topology, t_.trial_seed);
  edge_up_.assign(config.topology->num_edges(), 1);
  down_since_.assign(t_.links.size(), kUp);
}

void FaultController::start() {
  if (active_) boundary(0.0);
}

/// Apply the boundary at `t`, then schedule the next one as a simulation
/// event (one at a time: the stochastic schedule is unbounded). A boundary
/// left pending when the trial ends is dropped by the next trial's
/// sim.reset().
void FaultController::boundary(double t) {
  apply_boundary(t);
  const std::optional<double> next = scen_.next_boundary(t);
  if (next) t_.sim.schedule_at(*next, [this, when = *next] { boundary(when); });
}

ent::EffectiveLink FaultController::edge_effective(std::size_t e, double t) {
  const ent::LinkParams& ep = t_.route_cache.edge_params[e];
  return {scen_.effective_p_succ(e, ep.p_succ, t),
          scen_.effective_f0(e, ep.f0, t), scen_.edge_up(e, t)};
}

/// edge_effective hop by hop, composed exactly like net::compose_route
/// (same product order for p_succ, same weight fold via
/// swap_composed_fidelity for f0), so unit scales reproduce the stationary
/// composition bit-for-bit.
ent::EffectiveLink FaultController::link_effective(std::size_t i, double t) {
  ent::EffectiveLink eff;
  eff.up = down_since_[i] == kUp;
  double p = 1.0;
  hop_f0_.clear();
  for (const std::size_t e : t_.links[i].route_edges) {
    const ent::EffectiveLink hop = edge_effective(e, t);
    if (!hop.up) eff.up = false;
    p *= hop.p_succ;
    hop_f0_.push_back(hop.f0);
  }
  eff.p_succ = p;
  eff.f0 = net::swap_composed_fidelity(hop_f0_.data(), hop_f0_.size(),
                                       t_.route_cache.inputs.swap.bsm_fidelity);
  return eff;
}

bool FaultController::nodes_up(std::size_t e, double t) const {
  const net::TopologyEdge& edge = t_.config.topology->edge(e);
  return scen_.node_up(edge.a, t) && scen_.node_up(edge.b, t);
}

/// Scenario boundary at `t`. Unless the edge up mask is unchanged (a
/// spurious or drift-only boundary), every route is re-planned over the
/// surviving subgraph: each link keeps its full-fabric route while that
/// route survives, a cut-off link is found without a search, and only the
/// others are searched. Then every service starts its next segment (one
/// whose effective link is unchanged ignores it).
void FaultController::apply_boundary(double t) {
  bool changed = false;
  for (std::size_t e = 0; e < edge_up_.size(); ++e) {
    const char up = scen_.edge_up(e, t) ? 1 : 0;
    if (up != edge_up_[e]) {
      changed = true;
      if (up) {
        obs_.edge_outage_over(e, t);
      } else {
        obs_.edge_down(e, t);
      }
    }
    edge_up_[e] = up;
  }
  Delivery& delivery = *t_.delivery;
  if (changed) {
    t_.plan_all_routes(&edge_up_);
    bool any_lost = false;
    for (std::size_t i = 0; i < t_.links.size(); ++i) {
      const bool was_up = down_since_[i] == kUp;
      if (update_link_from_plan(i, t)) delivery.on_path_change(i, t);
      if (was_up && down_since_[i] != kUp) any_lost = true;
    }
    if (any_lost) ++t_.result.outage_events;
    delivery.after_replan(t);
  }
  const auto services = delivery.services();
  for (std::size_t k = 0; k < services.size(); ++k) {
    services[k]->set_effective(service_effective(k, t));
  }
}

/// Adopt link i's freshly planned path at outage boundary `t`: count a
/// reroute on any route re-establishment (a path change while live, or a
/// recovery after downtime), or mark the link down when no path survives.
/// True when a live route moved to a different path.
bool FaultController::update_link_from_plan(std::size_t i, double t) {
  LogicalLink& link = t_.links[i];
  const net::RoutePlan& plan = t_.link_plans[i];
  const bool up = down_since_[i] == kUp;
  if (!plan.has_route) {
    if (up) down_since_[i] = t;
    return false;
  }
  const net::Route& route = plan.primary;
  const bool path_changed = link.route_edges != route.edges;
  if (up && !path_changed) return false;
  if (!up) close_link_outage(i, t);
  ++t_.result.reroutes;
  obs_.instant(obs::Ev::Reroute, TrialObserver::link_track(i), t);
  if (path_changed) link.adopt(route, t_.route_cache.inputs.swap.latency);
  return path_changed;
}

/// Link i's outage ends at `t`: at its route's recovery, or at the makespan
/// while still routeless (then never before it began).
void FaultController::close_link_outage(std::size_t i, double t) {
  const double since = down_since_[i];
  const double until = std::max(since, t);
  t_.result.outage_downtime += until - since;
  obs_.link_outage(i, since, until);
  down_since_[i] = kUp;
}

void FaultController::finish(double makespan) {
  if (!active_) return;
  for (std::size_t i = 0; i < down_since_.size(); ++i) {
    if (down_since_[i] != kUp) close_link_outage(i, makespan);
  }
  for (std::size_t e = 0; e < edge_up_.size(); ++e) {
    if (!edge_up_[e]) obs_.edge_outage_over(e, makespan);
  }
}

}  // namespace dqcsim::runtime::detail
