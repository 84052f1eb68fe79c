/// \file congestion.hpp
/// \brief Route assignment over a surviving-edge mask, the per-edge load
/// map, and per-edge capacity sharing.
///
///  - capacity_share(): when several logical routes cross one edge, each
///    receives a deterministic near-even slice of the edge's communication
///    and buffer budgets instead of drawing the full budget concurrently
///    (ArchConfig::share_edge_capacity). Shares are assigned by route
///    creation rank, so they are independent of thread count and identical
///    on every replay.
///
///  - CongestionPlanner: routes logical links in their first-traffic
///    creation order over static edge costs, optionally restricted to the
///    edges an outage left up, and counts the routes crossing each edge
///    (the load map that capacity shares and the contention figures read).
///    net::Router tabulates its plan for the full fabric, and plan_static()
///    serves it over an outage mask. Each pair is planned from its
///    lower-numbered endpoint and reversed for the other direction, as
///    net::Router mirrors its routes.
///
/// Two exact shortcuts keep a masked pass from searching where the answer
/// is already known:
///
///  - begin() labels the connected components of the surviving fabric, so
///    a pair in different components gets has_route = false without a
///    search.
///  - plan_static() keeps the full-fabric route whenever all its edges
///    survive. Edge costs are positive and the O(n^2) scan finalizes nodes
///    in (distance, index) order, so deleting edges off a shortest path
///    cannot change the predecessor chain along it (rounded addition is
///    monotone, so this holds for the doubles too). Only a pair whose route
///    lost an edge is searched again.
///
/// Determinism: the planner is a plain sequential algorithm over an
/// explicitly ordered work list — Dijkstra scan order, strict-improvement
/// tie-breaks and rank assignment are fixed — so the same inputs always
/// yield the same plan regardless of thread count.

#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "net/router.hpp"
#include "net/topology.hpp"

namespace dqcsim::net {

/// Deterministic near-even slice of an edge's capacity granted to the route
/// with the given rank among the `load` routes crossing it: every route
/// gets floor(capacity / load), the first capacity % load ranks (by route
/// creation order) one extra, and any positive capacity grants at least one
/// unit — a saturated edge oversubscribes rather than starving a route.
/// A nonpositive capacity (the bufferless designs' zero buffer) passes
/// through unchanged.
/// Preconditions: load >= 1, 0 <= rank < load.
int capacity_share(int capacity, int load, int rank);

/// The physical path planned for one logical link.
struct RoutePlan {
  Route primary;
  bool has_route = false;  ///< false when the (masked) fabric disconnects
};

/// Sequential route assignment with a load map (see file header).
///
/// One planner instance is reusable across passes: begin() re-arms it
/// without reallocating, so the Monte-Carlo trial loop plans with amortized
/// zero allocation.
class CongestionPlanner {
 public:
  CongestionPlanner() = default;

  /// Arm one planning pass: zero the load map, adopt per-edge static costs
  /// and an optional surviving-edge mask (edges with edge_enabled[e] == 0
  /// are unusable), and label the surviving fabric's connected components.
  /// The referenced topology/costs/mask must outlive the pass.
  void begin(const Topology& topo, const std::vector<double>& static_costs,
             const std::vector<char>* edge_enabled);

  /// Route the pair from a to b, writing the result into `plan`
  /// (storage is reused), then charge the path onto the load map.
  /// plan.has_route is false, with an empty primary and no charge, when the
  /// masked fabric disconnects the pair; that answer needs no search.
  /// Preconditions: begin() called, a != b, both in range.
  void plan(int a, int b, RoutePlan& plan);

  /// Static route of the pair (a, b) over this pass's mask, charged onto
  /// the load map: router.route(a, b) when every edge of it survives, else
  /// the plan from the lower-numbered endpoint, reversed when a > b
  /// (exactly net::Router's route on the surviving subgraph).
  /// Preconditions: begin() called with router's topology and costs;
  /// a != b, both in range.
  void plan_static(const Router& router, int a, int b, RoutePlan& plan);

  /// Routes currently crossing each edge.
  const std::vector<int>& edge_load() const noexcept { return load_; }

 private:
  /// Deterministic single-pair Dijkstra over the static costs. Returns
  /// false (and clears `out`) when dst is unreachable.
  bool find_route(int src, int dst, Route& out);
  /// Count `route` once on every edge it crosses.
  void charge(const Route& route);

  const Topology* topo_ = nullptr;
  const std::vector<double>* costs_ = nullptr;
  const std::vector<char>* enabled_ = nullptr;
  std::vector<int> load_;
  std::vector<int> component_;  ///< per node: lowest node id it reaches

  // Reusable scratch (incidence lists, component flood fill, Dijkstra).
  std::vector<std::vector<std::pair<std::size_t, int>>> incident_;
  std::vector<int> stack_;
  std::vector<double> dist_;
  std::vector<int> pred_node_;
  std::vector<std::size_t> pred_edge_;
  std::vector<char> done_;
};

}  // namespace dqcsim::net
