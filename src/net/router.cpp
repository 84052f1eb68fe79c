#include "net/router.hpp"

#include "common/error.hpp"
#include "net/congestion.hpp"

namespace dqcsim::net {

Router::Router(const Topology& topo)
    : Router(topo, std::vector<double>(topo.num_edges(), 1.0)) {}

Router::Router(const Topology& topo, const std::vector<double>& edge_costs)
    : topo_(topo) {
  DQCSIM_EXPECTS_MSG(edge_costs.size() == topo_.num_edges(),
                     "one cost per topology edge");
  for (const double c : edge_costs) {
    DQCSIM_EXPECTS_MSG(c > 0.0, "edge costs must be positive");
  }
  topo_.validate();
  const int n = topo_.num_nodes();
  const auto un = static_cast<std::size_t>(n);
  routes_.assign(un * un, Route{});

  // Every entry is the congestion planner's plan over the full fabric, so
  // the two share one Dijkstra. Each pair is planned from
  // its lower-numbered endpoint and mirrored, so route(b, a) is route(a, b)
  // reversed by construction even when cost ties would let the two
  // directions pick different paths.
  CongestionPlanner planner;
  planner.begin(topo_, edge_costs, nullptr);
  RoutePlan plan;
  for (int src = 0; src + 1 < n; ++src) {
    for (int dst = src + 1; dst < n; ++dst) {
      planner.plan(src, dst, plan);
      DQCSIM_ENSURES_MSG(plan.has_route,
                         "router requires a connected topology");
      const auto us = static_cast<std::size_t>(src);
      const auto ud = static_cast<std::size_t>(dst);
      Route& r = routes_[us * un + ud];
      r = plan.primary;
      Route& back = routes_[ud * un + us];
      back.cost = r.cost;
      back.nodes.assign(r.nodes.rbegin(), r.nodes.rend());
      back.edges.assign(r.edges.rbegin(), r.edges.rend());
    }
  }
}

const Route& Router::route(int a, int b) const {
  const int n = topo_.num_nodes();
  DQCSIM_EXPECTS(a >= 0 && a < n && b >= 0 && b < n);
  // The diagonal entries are default-constructed, so route(a, a) is the
  // empty self-route: hops() == 0 and cost 0, matching hop_distance(a, a).
  return routes_[static_cast<std::size_t>(a) * static_cast<std::size_t>(n) +
                 static_cast<std::size_t>(b)];
}

int Router::hop_distance(int a, int b) const {
  if (a == b) return 0;
  return route(a, b).hops();
}

}  // namespace dqcsim::net
