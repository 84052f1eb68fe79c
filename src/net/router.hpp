/// \file router.hpp
/// \brief Multi-hop entanglement routing over a physical topology.
///
/// A Router precomputes one route per ordered node pair on configurable
/// per-edge costs (hop count by default; the engine uses the expected time
/// per delivered pair, cycle_time / (p_succ * pairs), so fat fast links are
/// preferred over thin slow ones). It tabulates net::CongestionPlanner's
/// plan over the full fabric, so both share one Dijkstra. Routes are
/// deterministic: cost ties are broken toward the lexicographically smaller
/// predecessor, so the same topology and costs always produce the same
/// paths.
///
/// The router covers the full fabric only. Over a surviving subgraph (an
/// outage's edge mask) net::CongestionPlanner::plan_static keeps every
/// router route whose edges all survive, answers a pair the mask cuts off
/// from the surviving components, and searches only the pairs left, with
/// reusable scratch.

#pragma once

#include <cstddef>
#include <vector>

#include "net/topology.hpp"

namespace dqcsim::net {

/// One selected path between a node pair.
struct Route {
  std::vector<int> nodes;          ///< endpoint-to-endpoint node sequence
  std::vector<std::size_t> edges;  ///< topology edge index per hop
  double cost = 0.0;               ///< total edge cost along the path
  int hops() const noexcept { return static_cast<int>(edges.size()); }
};

/// All-pairs router over one Topology (copied in, so the router stays valid
/// independently of the source object's lifetime).
class Router {
 public:
  Router() = default;

  /// Route on hop count (every edge costs 1).
  explicit Router(const Topology& topo);

  /// Route on explicit per-edge costs, indexed like topo.edges().
  /// Preconditions: costs.size() == topo.num_edges(), every cost > 0.
  Router(const Topology& topo, const std::vector<double>& edge_costs);

  const Topology& topology() const noexcept { return topo_; }

  /// The selected route from `a` to `b` (directed view of an undirected
  /// path: route(b, a) traverses the same edges reversed). For a == b the
  /// empty self-route (hops() == 0, cost 0) is returned, consistent with
  /// hop_distance(a, a) == 0.
  /// Preconditions: both in range.
  const Route& route(int a, int b) const;

  /// Hop count of the selected route; 0 for a == b.
  int hop_distance(int a, int b) const;

 private:
  Topology topo_;
  std::vector<Route> routes_;  ///< [a * n + b], empty for a == b
};

}  // namespace dqcsim::net
