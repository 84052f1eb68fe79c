/// \file congestion.hpp
/// \brief Congestion-aware route assignment and per-edge capacity sharing.
///
/// Two complementary mechanisms turn a physical edge from an infinitely
/// replicable resource into a contended one (ArchConfig knobs; all opt-in):
///
///  - capacity_share(): when several logical routes cross one edge, each
///    receives a deterministic near-even slice of the edge's communication
///    and buffer budgets instead of drawing the full budget concurrently.
///    Shares are assigned by route creation rank, so they are independent
///    of thread count and identical on every replay.
///
///  - CongestionPlanner: routes logical links *sequentially* (in their
///    first-traffic creation order) over load-scaled edge costs
///        cost(e) = static_cost(e) * (1 + alpha * load(e)),
///    where load(e) counts previously placed routes crossing e. Early
///    traffic takes the statically cheapest path; later traffic sees the
///    congestion it caused and detours around hot edges. The same pass
///    runs again at outage/recovery boundaries over the surviving-edge
///    mask, so detours that pile onto one edge raise its cost for the
///    links re-routed after them. When the cheapest path and an
///    edge-disjoint alternate tie in scaled cost, the planner can register
///    both (RoutePlan::split) so the engine's swap-as-you-go mode serves a
///    request from whichever path first holds a full pair quota.
///    At alpha = 0 it is the static router: net::Router tabulates its plan
///    for the full fabric, and plan_static() serves it over an outage mask.
///    Each pair is planned from its lower-numbered endpoint and reversed
///    for the other direction, as net::Router mirrors its routes.
///
/// Two exact shortcuts keep a masked pass from searching where the answer
/// is already known:
///
///  - begin() labels the connected components of the surviving fabric, so
///    a pair in different components gets has_route = false without a
///    search. Connectivity does not depend on loads, so this holds at any
///    alpha.
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

/// Up to two cost-tied, edge-disjoint physical paths for one logical link.
struct RoutePlan {
  Route primary;
  Route alternate;         ///< meaningful only when `split`
  bool has_route = false;  ///< false when the (masked) fabric disconnects
  bool split = false;      ///< alternate carries a share of the traffic
};

/// Sequential congestion-aware route assignment (see file header).
///
/// One planner instance is reusable across passes: begin() re-arms it
/// without reallocating, so the Monte-Carlo trial loop plans with amortized
/// zero allocation.
class CongestionPlanner {
 public:
  CongestionPlanner() = default;

  /// Arm one planning pass: zero the load map, adopt per-edge static costs,
  /// the load-scaling strength `alpha` (>= 0) and an optional surviving-
  /// edge mask (edges with edge_enabled[e] == 0 are unusable), and label
  /// the surviving fabric's connected components. The referenced
  /// topology/costs/mask must outlive the pass.
  void begin(const Topology& topo, const std::vector<double>& static_costs,
             double alpha, const std::vector<char>* edge_enabled);

  /// Route the pair {a, b} under the current loads, writing the result into
  /// `plan` (storage is reused), then charge the chosen path(s) onto the
  /// load map. With `split_tied`, an edge-disjoint alternate whose scaled
  /// cost ties the primary's (within 1e-9 relative) is registered too.
  /// plan.has_route is false, with an empty primary and no charge, when the
  /// masked fabric disconnects the pair; that answer needs no search.
  /// Preconditions: begin() called, a != b, both in range.
  void plan(int a, int b, bool split_tied, RoutePlan& plan);

  /// Static route of the pair (a, b) over this pass's mask, charged onto
  /// the load map: router.route(a, b) when every edge of it survives, else
  /// the alpha = 0 plan from the lower-numbered endpoint, reversed when
  /// a > b (exactly net::Router's route on the surviving subgraph).
  /// Preconditions: begin() called at alpha = 0 with router's topology and
  /// costs; a != b, both in range.
  void plan_static(const Router& router, int a, int b, RoutePlan& plan);

  /// Charge an externally selected path onto the load map (static-route
  /// mode still derives capacity shares from edge loads).
  void charge(const Route& route);

  /// Routes currently crossing each edge (a split link's primary and
  /// alternate paths each count one).
  const std::vector<int>& edge_load() const noexcept { return load_; }

 private:
  /// Deterministic single-pair Dijkstra over load-scaled costs. Edges may
  /// additionally be excluded (the disjoint-alternate search). Returns
  /// false (and clears `out`) when dst is unreachable.
  bool find_route(int src, int dst, const std::vector<char>* exclude,
                  Route& out);

  const Topology* topo_ = nullptr;
  const std::vector<double>* costs_ = nullptr;
  const std::vector<char>* enabled_ = nullptr;
  double alpha_ = 0.0;
  std::vector<int> load_;
  std::vector<int> component_;  ///< per node: lowest node id it reaches

  // Reusable scratch (incidence lists, component flood fill, Dijkstra).
  std::vector<std::vector<std::pair<std::size_t, int>>> incident_;
  std::vector<int> stack_;
  std::vector<double> dist_;
  std::vector<int> pred_node_;
  std::vector<std::size_t> pred_edge_;
  std::vector<char> done_;
  std::vector<char> exclude_scratch_;
};

}  // namespace dqcsim::net
