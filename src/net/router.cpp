#include "net/router.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

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

  // Incidence lists: per node, (edge index, other endpoint).
  std::vector<std::vector<std::pair<std::size_t, int>>> incident(un);
  for (std::size_t e = 0; e < topo_.num_edges(); ++e) {
    const TopologyEdge& edge = topo_.edge(e);
    incident[static_cast<std::size_t>(edge.a)].push_back({e, edge.b});
    incident[static_cast<std::size_t>(edge.b)].push_back({e, edge.a});
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(un);
  std::vector<int> pred_node(un);
  std::vector<std::size_t> pred_edge(un);
  std::vector<char> done(un);

  for (int src = 0; src + 1 < n; ++src) {
    std::fill(dist.begin(), dist.end(), kInf);
    std::fill(pred_node.begin(), pred_node.end(), -1);
    std::fill(done.begin(), done.end(), 0);
    dist[static_cast<std::size_t>(src)] = 0.0;

    // O(n^2) Dijkstra: topologies are small (tens of QPUs), and scanning
    // keeps the node-selection order — hence the routes — deterministic.
    for (int round = 0; round < n; ++round) {
      int u = -1;
      for (int v = 0; v < n; ++v) {
        const auto uv = static_cast<std::size_t>(v);
        if (done[uv] || dist[uv] == kInf) continue;
        if (u == -1 || dist[uv] < dist[static_cast<std::size_t>(u)]) u = v;
      }
      if (u == -1) break;
      const auto uu = static_cast<std::size_t>(u);
      done[uu] = 1;
      for (const auto& [e, other] : incident[uu]) {
        const auto uo = static_cast<std::size_t>(other);
        const double cand = dist[uu] + edge_costs[e];
        // Strict improvement only: on ties the first-found (smallest
        // predecessor id, since u grows with cost) path wins.
        if (cand < dist[uo]) {
          dist[uo] = cand;
          pred_node[uo] = u;
          pred_edge[uo] = e;
        }
      }
    }

    // Materialize only dst > src and mirror the reverse direction, so
    // route(b, a) is route(a, b) reversed by construction even when cost
    // ties would let the two Dijkstra sweeps pick different paths.
    for (int dst = src + 1; dst < n; ++dst) {
      const auto ud = static_cast<std::size_t>(dst);
      DQCSIM_ENSURES_MSG(dist[ud] != kInf,
                         "router requires a connected topology");
      Route& r = routes_[static_cast<std::size_t>(src) * un + ud];
      r.cost = dist[ud];
      for (int v = dst; v != src;
           v = pred_node[static_cast<std::size_t>(v)]) {
        r.nodes.push_back(v);
        r.edges.push_back(pred_edge[static_cast<std::size_t>(v)]);
      }
      r.nodes.push_back(src);
      std::reverse(r.nodes.begin(), r.nodes.end());
      std::reverse(r.edges.begin(), r.edges.end());

      Route& back = routes_[ud * un + static_cast<std::size_t>(src)];
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
