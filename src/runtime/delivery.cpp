#include "runtime/delivery.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "noise/werner.hpp"
#include "obs/scope.hpp"
#include "runtime/faults.hpp"

namespace dqcsim::runtime::detail {

namespace {

/// A buffered service that cannot hold one remote gate's pairs never serves
/// that gate: reject the configuration before the first event.
void require_gate_quota(int capacity, int needed, const char* what) {
  if (capacity >= needed) return;
  throw ConfigError(std::string(what) + " holds " + std::to_string(capacity) +
                    " pairs, fewer than one remote gate's " +
                    std::to_string(needed));
}

}  // namespace

// --- shared routing state --------------------------------------------------

/// Plan and adopt every logical link's t=0 route (without a topology, each
/// link is one flat hop) and record the placement's contention figures.
void TrialState::plan_links(TrialObserver& observer) {
  if (config.topology == nullptr) {
    for (LogicalLink& link : links) {
      link.hops = 1;
      link.extra_latency = 0.0;
    }
    return;
  }
  RouteInputs inputs;
  inputs.design = design;
  inputs.comm_per_node = config.comm_per_node;
  inputs.buffer_per_node = config.buffer_per_node;
  inputs.p_succ = config.p_succ;
  inputs.epr_cycle = config.lat.epr_cycle;
  inputs.swap_buffer = config.lat.swap_buffer;
  inputs.f0 = config.fid.epr_f0;
  inputs.kappa = config.kappa;
  inputs.cutoff = config.buffer_cutoff;
  inputs.async_subgroups = config.async_subgroups;
  inputs.consume_freshest = config.consume_freshest;
  inputs.record_trace = config.record_arrival_trace;
  inputs.swap = config.swap_params();
  const bool hit = route_cache.topology == config.topology &&
                   route_cache.inputs == inputs;
  observer.route_cache(hit);
  if (!hit) {
    OBS_SCOPE(observer.prof(), obs::Phase::Routing);
    const net::Topology& topo = *config.topology;
    const std::size_t num_edges = topo.num_edges();
    route_cache.topology.reset();  // invalid until rebuilt
    route_cache.inputs = inputs;
    route_cache.edge_params.resize(num_edges);
    route_cache.edge_costs.resize(num_edges);
    for (std::size_t e = 0; e < num_edges; ++e) {
      const net::TopologyEdge& edge = topo.edge(e);
      const ent::LinkParams p = config.link_params(design, edge.a, edge.b);
      route_cache.edge_params[e] = p;
      // Expected time per delivered pair: attempt window over the link's
      // aggregate success rate.
      route_cache.edge_costs[e] =
          p.cycle_time / (p.p_succ * static_cast<double>(p.num_comm_pairs));
    }
    route_cache.router = net::Router(topo, route_cache.edge_costs);
    route_cache.topology = config.topology;
  }

  plan_all_routes(nullptr);  // the full fabric routes every pair
  for (std::size_t i = 0; i < links.size(); ++i) {
    links[i].adopt(link_plans[i].primary, route_cache.inputs.swap.latency);
  }
  // Contention figures of the t=0 placement. Knobs-off runs report no
  // contention, even though the load map is populated.
  if (!config.swap_as_you_go && !config.share_edge_capacity) return;
  for (const int load : planner.edge_load()) {
    if (load > 1) ++result.edges_shared;
    result.max_edge_load =
        std::max(result.max_edge_load, static_cast<std::size_t>(load));
  }
}

/// (Re)assign every logical link's static route, in link creation order,
/// over the surviving-edge `mask` (null at t=0: the full fabric), and count
/// the routes on each edge (capacity shares are load-derived). A link keeps
/// its cached full-fabric route while every edge of it is up, a pair the
/// mask cuts off is answered from the surviving components, and only a
/// link that lost an edge is searched again (see
/// net::CongestionPlanner::plan_static).
void TrialState::plan_all_routes(const std::vector<char>* mask) {
  planner.begin(*config.topology, route_cache.edge_costs, mask);
  link_plans.resize(links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    planner.plan_static(route_cache.router, links[i].node_a, links[i].node_b,
                        link_plans[i]);
  }
}

void Delivery::finish(double horizon, RunResult& result) {
  for (const auto& svc : services()) svc->stop(horizon);
  // Under swap-as-you-go a "consumed" pair is a single-hop pair drained
  // into an end-to-end fusion. OnDemand pairs are consumed at their herald
  // unless no gate claimed them.
  for (const auto& svc : services()) {
    result.epr_attempts += svc->attempts();
    result.epr_successes += svc->successes();
    result.epr_consumed +=
        svc->buffer().total_consumed() +
        (svc->mode() == ent::ServiceMode::OnDemand
             ? svc->successes() - svc->wasted_unconsumed()
             : 0);
    result.epr_wasted += svc->wasted_buffer_full() + svc->wasted_unconsumed();
    result.epr_expired += svc->buffer().total_expired();
    // link_stalled watchdog: services that at some point went longer than
    // stall_windows attempt windows without one successful generation.
    // Pure observation over the tracked success-gap maximum — no draw from
    // the trial's stream, no event, so the knob cannot perturb the trial.
    if (t_.config.stall_windows > 0 &&
        svc->max_delivery_gap(horizon) >
            static_cast<double>(t_.config.stall_windows) *
                svc->params().cycle_time) {
      ++result.links_stalled;
    }
  }
}

namespace {

/// Re-arm and start service `index` (a link's or an edge's) in the one
/// order bit-identity depends on. Gap tracking is on only when the trial
/// reads max_delivery_gap (the link_stalled watchdog, the registry gauge);
/// the side stream is seeded from the trial seed, never from `rng`. Under a
/// scenario the service starts at its effective link at t = 0.
void start_service(TrialState& t, FaultController& faults,
                   TrialObserver& observer, ent::GenerationService& svc,
                   const ent::LinkParams& params, ent::ServiceMode mode,
                   std::size_t index, std::uint32_t track,
                   ent::GenerationService::ArrivalHandler handler) {
  constexpr std::uint64_t kTagGenSide = 0x47454E53ULL;  // "GENS"
  svc.reset(params, mode);
  svc.set_gap_tracking(t.config.stall_windows > 0 || observer.metrics(),
                       Rng::derive_seed(t.trial_seed, 0, kTagGenSide, index));
  observer.trace_service(svc, track);
  if (faults.active()) {
    svc.set_effective(faults.service_effective(index, t.sim.now()));
  }
  svc.set_arrival_handler(std::move(handler));
  if (design_uses_prefill(t.design)) svc.pre_fill_buffer();
  svc.start();
}

// --- composed delivery -------------------------------------------------------

/// One GenerationService per logical link. Without a topology each link
/// gets the homogeneous all-to-all parameters. With one, the link's planned
/// route is composed hop by hop from its hop grants, frozen at t=0 like
/// the rest of the structural composition. Covers the Buffered and the
/// OnDemand (bufferless) modes.
class ComposedDelivery final : public Delivery {
 public:
  ComposedDelivery(TrialState& t, FaultController& f, TrialObserver& o)
      : Delivery(t, f, o, false) {}

  void setup() override {
    const bool routed = t_.config.topology != nullptr;
    const auto mode = design_uses_buffer(t_.design)
                          ? ent::ServiceMode::Buffered
                          : ent::ServiceMode::OnDemand;
    net::RoutedLink flat;
    if (routed) {
      edge_rank_.assign(t_.config.topology->num_edges(), 0);
    } else {
      flat.params = t_.config.link_params(t_.design);
    }
    run_services(t_.links.size());
    for (std::size_t i = 0; i < running_; ++i) {
      net::RoutedLink rl = flat;
      if (routed) {
        const net::Route& route = t_.link_plans[i].primary;
        grant_hop_shares(route);
        rl = net::compose_route_shared(
            route, t_.route_cache.edge_params, t_.route_cache.inputs.swap,
            hop_comm_.data(), hop_buf_.data());
      }
      ent::GenerationService::ArrivalHandler handler;
      if (mode == ent::ServiceMode::Buffered) {
        require_gate_quota(rl.params.buffer_capacity,
                           t_.config.pairs_per_remote_gate(),
                           "a composed link's buffer");
        handler = [this, i](des::SimTime) {
          t_.serve_pending(i);
          return true;
        };
      } else {  // OnDemand links hold a gate's pairs across heralds
        handler = [this, i](des::SimTime now) {
          return t_.on_demand_arrival(i, now, *services_[i]);
        };
      }
      start_service(t_, faults_, obs_, *services_[i], rl.params, mode, i,
                    TrialObserver::link_track(i), std::move(handler));
    }
  }

  /// A gate is served only when the buffer holds its full pair quota, so a
  /// two-pair gate cannot strand a half-claimed pair decaying outside the
  /// cutoff policy's reach. Each pair decays from its own deposit at the
  /// fidelity it was born with (swap-composed on routed links,
  /// drift-scaled under a scenario).
  bool claim(std::size_t i, std::size_t needed, PairClaim& out,
             std::vector<double>& fidelities) override {
    ent::GenerationService& svc = *services_[i];
    const des::SimTime now = t_.sim.now();
    if (svc.mode() != ent::ServiceMode::Buffered ||
        svc.available(now) < needed) {
      return false;
    }
    const auto order = svc.params().consume_freshest
                           ? ent::ConsumeOrder::FreshestFirst
                           : ent::ConsumeOrder::OldestFirst;
    fidelities.clear();
    for (std::size_t k = 0; k < needed; ++k) {
      auto pair = svc.pop(now, order);
      DQCSIM_ENSURES(pair.has_value());
      const double age = now - pair->deposited;
      record_pair_age(age);
      fidelities.push_back(
          noise::werner_decayed_fidelity(pair->f0, svc.params().kappa, age));
    }
    // The composed model never discards stock at boundaries, so salvage
    // here is accounting: pairs buffered before the outage serving a gate
    // while the route is severed.
    const LogicalLink& link = t_.links[i];
    out = {link.hops, link.extra_latency,
           t_.config.salvage_pairs && faults_.link_down(i)};
    return true;
  }

  std::size_t occupancy() override {
    std::size_t total = 0;
    for (std::size_t i = 0; i < running_; ++i) {
      total += services_[i]->available(t_.sim.now());
    }
    return total;
  }

  /// With salvage_pairs, the stock kept across the re-plan is re-credited
  /// to the new route's budget instead of rotting against the dead path.
  void on_path_change(std::size_t i, double t) override {
    if (t_.config.salvage_pairs) {
      t_.result.pairs_salvaged += services_[i]->available(t);
    }
  }

 private:
  /// Per-hop capacity grants of one link along `route`, written to
  /// hop_comm_ / hop_buf_: with share_edge_capacity, the link's share of
  /// each edge by its creation rank there (advancing edge_rank_, zeroed per
  /// setup), else the full budget.
  void grant_hop_shares(const net::Route& route) {
    const std::size_t hops = route.edges.size();
    hop_comm_.resize(hops);
    hop_buf_.resize(hops);
    for (std::size_t k = 0; k < hops; ++k) {
      const std::size_t e = route.edges[k];
      const ent::LinkParams& ep = t_.route_cache.edge_params[e];
      hop_comm_[k] = ep.num_comm_pairs;
      hop_buf_[k] = ep.buffer_capacity;
      if (t_.config.share_edge_capacity) {
        const int load = t_.planner.edge_load()[e];
        const int rank = edge_rank_[e]++;
        hop_comm_[k] = net::capacity_share(ep.num_comm_pairs, load, rank);
        hop_buf_[k] = net::capacity_share(ep.buffer_capacity, load, rank);
      }
    }
  }

  std::vector<int> edge_rank_;  ///< next share rank per edge
  std::vector<int> hop_comm_;   ///< per-hop comm share
  std::vector<int> hop_buf_;    ///< per-hop buffer share
};

// --- swap-as-you-go delivery -------------------------------------------------

/// One buffered generation service per *physical edge*, each with the
/// edge's full budget: every topology edge generates continuously (unrouted
/// edges waste their successes into a full buffer, which is what idle
/// hardware does), and routes share an edge dynamically by draining its
/// common buffer. An end-to-end pair is fused on demand from one buffered
/// pair per hop.
class SwapGoDelivery final : public Delivery {
 public:
  SwapGoDelivery(TrialState& t, FaultController& f, TrialObserver& o)
      : Delivery(t, f, o, true) {}

  void setup() override {
    run_services(t_.config.topology->num_edges());
    rebuild_links_on_edge();
    for (std::size_t e = 0; e < running_; ++e) {
      // Bufferless designs hold each hop pair on the edge's communication
      // qubits until the end-to-end fusion drains it: a degraded one-slot
      // buffer per edge, so swap-as-you-go applies to every design.
      ent::LinkParams ep = t_.route_cache.edge_params[e];
      if (!design_uses_buffer(t_.design)) ep.buffer_capacity = 1;
      // Every edge, routed or not: an outage re-plan may route over any.
      require_gate_quota(ep.buffer_capacity, t_.config.pairs_per_remote_gate(),
                         "a swap-as-you-go edge buffer");
      // A deposit is offered to the links crossing the edge, in link
      // creation order (the deterministic arbitration rule).
      start_service(t_, faults_, obs_, *services_[e], ep,
                    ent::ServiceMode::Buffered, e, obs_.edge_track(e),
                    [this, e](des::SimTime) {
                      for (const int link : links_on_edge_[e]) {
                        t_.serve_pending(static_cast<std::size_t>(link));
                      }
                      return true;
                    });
    }
  }

  /// Assemble each end-to-end pair by popping one buffered pair per hop and
  /// fusing them at the intermediate nodes *now*. Each hop pair decays from
  /// its own deposit instant; the fused pair is born at the assembly
  /// instant, so decay to the consuming gate is the identity and is
  /// skipped.
  ///
  /// Mid-flight pair salvage (config.salvage_pairs): a link whose whole
  /// route was severed may still drain hop pairs buffered *before* the
  /// outage along its last route, provided every node on it survives —
  /// the gate completes on pre-outage stock instead of stalling for the
  /// repair window. Links salvage in creation order (after_replan), the
  /// same arbitration rule deposits follow.
  bool claim(std::size_t i, std::size_t needed, PairClaim& out,
             std::vector<double>& fidelities) override {
    const LogicalLink& link = t_.links[i];
    const net::RoutePlan& plan = t_.link_plans[i];
    const des::SimTime now = t_.sim.now();
    const bool salvaging = !plan.has_route;
    const std::vector<std::size_t>* path = nullptr;
    if (salvaging) {
      const auto& last = link.route_edges;
      if (!t_.config.salvage_pairs || !faults_.active() || last.empty() ||
          !std::all_of(
              last.begin(), last.end(),
              [&](std::size_t e) { return faults_.nodes_up(e, now); }) ||
          !edges_ready(last, needed)) {
        return false;
      }
      path = &link.route_edges;
    } else if (edges_ready(plan.primary.edges, needed)) {
      path = &plan.primary.edges;
    } else {
      return false;
    }
    const auto order = t_.config.consume_freshest
                           ? ent::ConsumeOrder::FreshestFirst
                           : ent::ConsumeOrder::OldestFirst;
    fidelities.clear();
    for (std::size_t k = 0; k < needed; ++k) {
      hop_fid_.clear();
      for (const std::size_t e : *path) {
        auto pair = services_[e]->pop(now, order);
        DQCSIM_ENSURES(pair.has_value());
        const double age = now - pair->deposited;
        record_pair_age(age);
        hop_fid_.push_back(noise::werner_decayed_fidelity(
            pair->f0, t_.route_cache.edge_params[e].kappa, age));
      }
      fidelities.push_back(net::swap_composed_fidelity(
          hop_fid_.data(), hop_fid_.size(),
          t_.route_cache.inputs.swap.bsm_fidelity));
    }
    const int hops = static_cast<int>(path->size());
    out = {hops, (hops - 1) * t_.route_cache.inputs.swap.latency, salvaging};
    return true;
  }

  /// A link's availability is the bottleneck hop's buffered count along
  /// its primary path — optimistic when routes overlap (each counts the
  /// shared buffer in full), but a deterministic, cheap occupancy signal.
  std::size_t occupancy() override {
    std::size_t total = 0;
    for (const net::RoutePlan& plan : t_.link_plans) {
      if (!plan.has_route) continue;
      std::size_t avail = ~std::size_t{0};
      for (const std::size_t e : plan.primary.edges) {
        avail = std::min(avail, services_[e]->available(t_.sim.now()));
      }
      total += avail;
    }
    return total;
  }

  void after_replan(double t) override {
    rebuild_links_on_edge();
    if (t_.config.salvage_pairs) {
      // A down node loses its stored halves: flush the buffers of its
      // incident edges before anyone salvages through them.
      for (std::size_t e = 0; e < running_; ++e) {
        if (!faults_.nodes_up(e, t)) {
          t_.result.pairs_discarded += services_[e]->flush_buffer(t);
        }
      }
    }
    // Deposits wasted against full buffers do not re-fire the arrival
    // handler, so a link re-planned onto already-full edges would
    // otherwise stall until some other deposit lands: serve everyone once
    // against the new plans. With salvage_pairs this same pass is the
    // salvage drain — links whose routes were just severed consume their
    // pre-outage stock here, in creation order.
    for (std::size_t i = 0; i < t_.links.size(); ++i) t_.serve_pending(i);
  }

 private:
  /// Deterministic arbitration index: which links a deposit on each edge
  /// may serve, in link creation order. Rebuilt whenever plans change.
  void rebuild_links_on_edge() {
    links_on_edge_.resize(running_);
    for (auto& v : links_on_edge_) v.clear();
    for (std::size_t i = 0; i < t_.links.size(); ++i) {
      const net::RoutePlan& plan = t_.link_plans[i];
      if (!plan.has_route) continue;
      for (const std::size_t e : plan.primary.edges) {
        links_on_edge_[e].push_back(static_cast<int>(i));
      }
    }
  }

  /// True when every edge buffer along `edges` holds the full pair quota.
  bool edges_ready(const std::vector<std::size_t>& edges,
                   std::size_t needed) {
    return std::all_of(edges.begin(), edges.end(), [&](std::size_t e) {
      return services_[e]->available(t_.sim.now()) >= needed;
    });
  }

  /// Links whose current plan crosses each edge, in link creation order.
  std::vector<std::vector<int>> links_on_edge_;
  std::vector<double> hop_fid_;  ///< one pair's hop fidelities
};

}  // namespace

Delivery& select_delivery(TrialState& t, FaultController& faults,
                          TrialObserver& observer,
                          std::array<std::unique_ptr<Delivery>, 2>& cache) {
  const bool swap_go = t.config.swap_as_you_go;
  std::unique_ptr<Delivery>& slot = cache[swap_go ? 1 : 0];
  if (slot == nullptr && swap_go) {
    slot = std::make_unique<SwapGoDelivery>(t, faults, observer);
  }
  if (slot == nullptr) {
    slot = std::make_unique<ComposedDelivery>(t, faults, observer);
  }
  return *slot;
}

}  // namespace dqcsim::runtime::detail
