/// Unit and engine-level tests for the opt-in contention modes
/// (net/congestion.hpp + ArchConfig knobs): deterministic capacity shares,
/// masked route assignment and its load map, star-hub throughput
/// degradation under shared capacity, swap-as-you-go delivery on long
/// chains, and the thread-count bit-identity contract with every knob
/// enabled.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "expect_identical.hpp"
#include "gen/benchmarks.hpp"
#include "net/congestion.hpp"
#include "net/router.hpp"
#include "net/topology.hpp"
#include "runtime/arch_config.hpp"
#include "runtime/engine.hpp"
#include "runtime/experiment.hpp"
#include "scenario/scenario.hpp"

namespace dqcsim::net {
namespace {

using dqcsim::Circuit;
using runtime::AggregateResult;
using runtime::ArchConfig;
using runtime::DesignKind;

// ------------------------------------------------------- capacity_share ----

TEST(CapacityShare, EvenSplitAndRemainderByRank) {
  // 8 units over 4 routes: everyone gets 2.
  for (int rank = 0; rank < 4; ++rank) {
    EXPECT_EQ(capacity_share(8, 4, rank), 2);
  }
  // 10 over 4: ranks 0 and 1 absorb the remainder.
  EXPECT_EQ(capacity_share(10, 4, 0), 3);
  EXPECT_EQ(capacity_share(10, 4, 1), 3);
  EXPECT_EQ(capacity_share(10, 4, 2), 2);
  EXPECT_EQ(capacity_share(10, 4, 3), 2);
  // Shares sum to the capacity whenever load <= capacity.
  int total = 0;
  for (int rank = 0; rank < 5; ++rank) total += capacity_share(13, 5, rank);
  EXPECT_EQ(total, 13);
}

TEST(CapacityShare, SaturatedEdgeGrantsAtLeastOneUnit) {
  // 2 units over 5 routes: nobody starves; the edge oversubscribes.
  for (int rank = 0; rank < 5; ++rank) {
    EXPECT_EQ(capacity_share(2, 5, rank), rank < 2 ? 1 : 1);
  }
  EXPECT_EQ(capacity_share(1, 3, 2), 1);
}

TEST(CapacityShare, NonpositiveCapacityPassesThrough) {
  // The bufferless designs carry a zero buffer budget; sharing preserves it.
  EXPECT_EQ(capacity_share(0, 3, 0), 0);
  EXPECT_EQ(capacity_share(-1, 2, 1), -1);
}

TEST(CapacityShare, UnloadedEdgeKeepsFullBudget) {
  EXPECT_EQ(capacity_share(7, 1, 0), 7);
}

// ---------------------------------------------------- CongestionPlanner ----

std::vector<double> unit_costs(const Topology& topo) {
  return std::vector<double>(topo.num_edges(), 1.0);
}

TEST(CongestionPlanner, ZeroAlphaReproducesStaticRoutes) {
  const Topology topo = Topology::star(6);
  const std::vector<double> costs = unit_costs(topo);
  const Router router(topo, costs);
  CongestionPlanner planner;
  planner.begin(topo, costs, nullptr);
  for (int leaf = 1; leaf < 6; ++leaf) {
    RoutePlan plan;
    planner.plan(leaf, (leaf % 5) + 1, plan);
    ASSERT_TRUE(plan.has_route);
    EXPECT_EQ(plan.primary.edges,
              router.route(leaf, (leaf % 5) + 1).edges);
  }
}

TEST(CongestionPlanner, MaskedEdgesAreUnusable) {
  // ring(4) with edge {0, 1} masked out: 0 reaches 1 the long way round.
  const Topology topo = Topology::ring(4);
  const std::vector<double> costs = unit_costs(topo);
  std::vector<char> enabled(topo.num_edges(), 1);
  enabled[topo.edge_index(0, 1)] = 0;
  CongestionPlanner planner;
  planner.begin(topo, costs, &enabled);
  RoutePlan plan;
  planner.plan(0, 1, plan);
  ASSERT_TRUE(plan.has_route);
  EXPECT_EQ(plan.primary.nodes, (std::vector<int>{0, 3, 2, 1}));
  EXPECT_EQ(plan.primary.hops(), 3);

  // Masking both endpoints' edges disconnects the pair.
  enabled[topo.edge_index(0, 3)] = 0;
  planner.begin(topo, costs, &enabled);
  planner.plan(0, 2, plan);
  EXPECT_FALSE(plan.has_route);

  // chain(3) without its middle edge: node 2 is cut off from both others,
  // while the surviving pair still routes.
  const Topology chain = Topology::chain(3);
  const std::vector<double> chain_costs = unit_costs(chain);
  std::vector<char> chain_up(chain.num_edges(), 1);
  chain_up[chain.edge_index(1, 2)] = 0;
  planner.begin(chain, chain_costs, &chain_up);
  planner.plan(0, 1, plan);
  EXPECT_TRUE(plan.has_route);
  planner.plan(0, 2, plan);
  EXPECT_FALSE(plan.has_route);
  EXPECT_EQ(plan.primary.hops(), 0);  // empty, not a path
  planner.plan(1, 2, plan);
  EXPECT_FALSE(plan.has_route);
}

TEST(CongestionPlanner, LowerEndpointPlanMirrorsTheRouterOnACostTie) {
  // A relabeled 6-ring, 0-5-1-3-2-4-0: the pair {0, 3} has two tied
  // 3-hop paths. Dijkstra from 0 settles node 1 before node 2 and takes
  // 0-5-1-3; from 3 it settles 4 before 5 and takes 3-2-4-0. net::Router
  // routes from the lower endpoint and mirrors, so (3, 0) must be planned
  // from 0 and reversed — as the engine's outage re-plan does — to equal
  // Router::route(3, 0) edge for edge.
  const Topology ring = Topology::custom(
      6, {{0, 5}, {5, 1}, {1, 3}, {3, 2}, {2, 4}, {4, 0}});
  const std::vector<double> costs = unit_costs(ring);
  const Router router(ring, costs);
  const std::vector<char> all_up(ring.num_edges(), 1);
  CongestionPlanner planner;
  planner.begin(ring, costs, &all_up);
  RoutePlan plan;
  planner.plan(0, 3, plan);
  ASSERT_TRUE(plan.has_route);
  std::reverse(plan.primary.edges.begin(), plan.primary.edges.end());
  EXPECT_EQ(plan.primary.edges, router.route(3, 0).edges);
  EXPECT_EQ(plan.primary.cost, router.route(3, 0).cost);

  planner.plan(3, 0, plan);  // the other orientation breaks the tie
  EXPECT_EQ(plan.primary.nodes, (std::vector<int>{3, 2, 4, 0}));
  EXPECT_NE(plan.primary.edges, router.route(3, 0).edges);
}

// ------------------------------------------ exhaustive masked planning ----

/// The planner's search, restated as the reference its shortcuts must
/// reproduce: O(n^2) Dijkstra over the static costs on the surviving edges,
/// nodes finalized in (distance, index) order, edges relaxed in index order
/// with strict improvement. False, with an empty route, when dst is cut off.
bool reference_route(const Topology& topo, const std::vector<double>& costs,
                     const std::vector<char>& up, int src, int dst,
                     Route& out) {
  const auto n = static_cast<std::size_t>(topo.num_nodes());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(n, kInf);
  std::vector<int> pred_node(n, -1);
  std::vector<std::size_t> pred_edge(n, 0);
  std::vector<char> done(n, 0);
  dist[static_cast<std::size_t>(src)] = 0.0;
  for (std::size_t round = 0; round < n; ++round) {
    std::size_t u = n;
    for (std::size_t v = 0; v < n; ++v) {
      if (!done[v] && dist[v] != kInf && (u == n || dist[v] < dist[u])) u = v;
    }
    if (u == n) break;
    done[u] = 1;
    if (static_cast<int>(u) == dst) break;
    for (std::size_t e = 0; e < topo.num_edges(); ++e) {
      const TopologyEdge& edge = topo.edge(e);
      if (!up[e]) continue;
      const int iu = static_cast<int>(u);
      if (edge.a != iu && edge.b != iu) continue;
      const auto other = static_cast<std::size_t>(edge.a == iu ? edge.b : edge.a);
      const double cand = dist[u] + costs[e];
      if (cand < dist[other]) {
        dist[other] = cand;
        pred_node[other] = iu;
        pred_edge[other] = e;
      }
    }
  }
  out = Route{};
  const auto ud = static_cast<std::size_t>(dst);
  if (dist[ud] == kInf) return false;
  out.cost = dist[ud];
  for (int v = dst; v != src; v = pred_node[static_cast<std::size_t>(v)]) {
    out.nodes.insert(out.nodes.begin(), v);
    out.edges.insert(out.edges.begin(), pred_edge[static_cast<std::size_t>(v)]);
  }
  out.nodes.insert(out.nodes.begin(), src);
  return true;
}

/// Breadth-first reachability over the surviving edges.
bool connected(const Topology& topo, const std::vector<char>& up, int a,
               int b) {
  std::vector<char> seen(static_cast<std::size_t>(topo.num_nodes()), 0);
  std::vector<int> queue{a};
  seen[static_cast<std::size_t>(a)] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (std::size_t e = 0; e < topo.num_edges(); ++e) {
      const TopologyEdge& edge = topo.edge(e);
      int other = -1;
      if (edge.a == queue[head]) other = edge.b;
      if (edge.b == queue[head]) other = edge.a;
      if (!up[e] || other < 0 || seen[static_cast<std::size_t>(other)]) {
        continue;
      }
      seen[static_cast<std::size_t>(other)] = 1;
      queue.push_back(other);
    }
  }
  return seen[static_cast<std::size_t>(b)] != 0;
}

/// Equal path and bitwise-equal cost.
bool same_route(const Route& x, const Route& y) {
  return x.nodes == y.nodes && x.edges == y.edges &&
         std::bit_cast<std::uint64_t>(x.cost) ==
             std::bit_cast<std::uint64_t>(y.cost);
}

Route reversed(Route r) {
  std::reverse(r.nodes.begin(), r.nodes.end());
  std::reverse(r.edges.begin(), r.edges.end());
  return r;
}

/// Where a check failed, printed only on failure.
struct Where {
  const std::string& label;
  std::uint32_t mask;
  int a;
  int b;
};

std::ostream& operator<<(std::ostream& os, const Where& w) {
  return os << w.label << " mask " << w.mask << " pair " << w.a << "->"
            << w.b;
}

/// For every up mask of `topo` and every ordered pair, the planner with its
/// shortcuts equals the reference search, a pair has no route exactly when
/// the mask disconnects it, and plan_static equals the masked static plan:
/// the router's route whenever all its edges survive. After each pass the
/// load map counts every route placed in it, edge by edge.
void check_every_mask(const Topology& topo, const std::vector<double>& costs,
                      const std::string& label) {
  const Router router(topo, costs);
  const int n = topo.num_nodes();
  const auto un = static_cast<std::size_t>(n);
  const std::size_t num_edges = topo.num_edges();
  ASSERT_LE(num_edges, 16U) << label;
  CongestionPlanner planner;
  RoutePlan plan;
  Route expected;
  std::vector<char> up(num_edges);
  std::vector<int> ref_load(num_edges);
  std::vector<Route> ref_static(un * un);  ///< [a * n + b]
  std::vector<char> ref_found(un * un);
  for (std::uint32_t mask = 0; mask < (1U << num_edges); ++mask) {
    for (std::size_t e = 0; e < num_edges; ++e) up[e] = (mask >> e) & 1U;

    // The search alone, from either endpoint.
    planner.begin(topo, costs, &up);
    std::fill(ref_load.begin(), ref_load.end(), 0);
    for (int a = 0; a < n; ++a) {
      for (int b = 0; b < n; ++b) {
        if (a == b) continue;
        const Where at{label, mask, a, b};
        const auto ab = static_cast<std::size_t>(a) * un +
                        static_cast<std::size_t>(b);
        ref_found[ab] = reference_route(topo, costs, up, a, b, ref_static[ab]);
        planner.plan(a, b, plan);
        ASSERT_EQ(plan.has_route, ref_found[ab] != 0) << at;
        ASSERT_EQ(plan.has_route, connected(topo, up, a, b)) << at;
        ASSERT_TRUE(same_route(plan.primary, ref_static[ab])) << at;
        for (const std::size_t e : ref_static[ab].edges) ++ref_load[e];
      }
    }
    ASSERT_EQ(planner.edge_load(), ref_load) << label << " mask " << mask;

    // plan_static against the masked static plan (from the lower endpoint,
    // mirrored).
    planner.begin(topo, costs, &up);
    std::fill(ref_load.begin(), ref_load.end(), 0);
    for (int a = 0; a < n; ++a) {
      for (int b = 0; b < n; ++b) {
        if (a == b) continue;
        const Where at{label, mask, a, b};
        const auto ab = static_cast<std::size_t>(a) * un +
                        static_cast<std::size_t>(b);
        expected = a < b ? ref_static[ab]
                         : reversed(ref_static[static_cast<std::size_t>(b) *
                                                   un +
                                               static_cast<std::size_t>(a)]);
        const Route& fabric = router.route(a, b);
        if (std::all_of(fabric.edges.begin(), fabric.edges.end(),
                        [&](std::size_t e) { return up[e] != 0; })) {
          ASSERT_TRUE(same_route(fabric, expected)) << at;
        }
        planner.plan_static(router, a, b, plan);
        ASSERT_EQ(plan.has_route, ref_found[ab] != 0) << at;
        ASSERT_TRUE(same_route(plan.primary, expected)) << at;
        for (const std::size_t e : expected.edges) ++ref_load[e];
      }
    }
    ASSERT_EQ(planner.edge_load(), ref_load) << label << " mask " << mask;
  }
}

/// A connected 7-node topology drawn from `seed`: a random spanning tree
/// plus four extra edges (12 edges at most).
Topology seeded_topology(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<int, int>> edges;
  const auto has = [&](int a, int b) {
    return std::find(edges.begin(), edges.end(), std::make_pair(a, b)) !=
               edges.end() ||
           std::find(edges.begin(), edges.end(), std::make_pair(b, a)) !=
               edges.end();
  };
  constexpr int kNodes = 7;
  for (int v = 1; v < kNodes; ++v) {
    edges.push_back({static_cast<int>(rng.uniform_int(v)), v});
  }
  while (edges.size() < kNodes - 1 + 4) {
    const int a = static_cast<int>(rng.uniform_int(kNodes));
    const int b = static_cast<int>(rng.uniform_int(kNodes));
    if (a != b && !has(a, b)) edges.push_back({a, b});
  }
  return Topology::custom(kNodes, edges);
}

std::vector<double> seeded_costs(const Topology& topo, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> costs(topo.num_edges());
  for (double& c : costs) c = rng.uniform(0.25, 4.0);
  return costs;
}

TEST(CongestionPlannerExhaustive, EveryMaskAndPairMatchesTheSearch) {
  const std::vector<std::pair<std::string, Topology>> cases = {
      {"chain(6)", Topology::chain(6)},
      {"ring(6)", Topology::ring(6)},
      {"star(6)", Topology::star(6)},
      {"grid(3,3)", Topology::grid(3, 3)},
      {"custom(seed 7)", seeded_topology(7)},
  };
  std::uint64_t seed = 100;
  for (const auto& [name, topo] : cases) {
    check_every_mask(topo, unit_costs(topo), name + " unit costs");
    if (HasFatalFailure()) return;
    check_every_mask(topo, seeded_costs(topo, ++seed),
                     name + " random costs");
    if (HasFatalFailure()) return;
  }
}

// --------------------------------------------------- engine-level tests ----

/// 5 leaf qubits on star(8): four remote pairs all routed through the
/// hub-leaf edge of node 1, the contention hot spot.
Circuit hub_circuit() {
  Circuit qc(5);
  for (int rep = 0; rep < 4; ++rep) {
    qc.rzz(0, 1, 0.1);  // nodes 1-2
    qc.rzz(0, 2, 0.1);  // nodes 1-3
    qc.rzz(0, 3, 0.1);  // nodes 1-4
    qc.rzz(0, 4, 0.1);  // nodes 1-5
  }
  return qc;
}

std::vector<int> hub_assignment() { return {1, 2, 3, 4, 5}; }

/// Star config with enough hub budget that the independent-vs-shared
/// difference is structural, not a clamp artifact: the hub degree is 7, so
/// comm_per_node = 28 gives each hub edge 4 pairs — 4 routes sharing edge
/// (0,1) get 1 pair each instead of 4 each.
ArchConfig star_config() {
  ArchConfig config;
  config.num_nodes = 8;
  config.comm_per_node = 28;
  config.buffer_per_node = 28;
  config.set_topology(Topology::star(8));
  return config;
}

TEST(SharedCapacity, StarHubThroughputDegradesVersusIndependentBudgets) {
  const Circuit qc = hub_circuit();
  const std::vector<int> nodes = hub_assignment();
  const ArchConfig independent = star_config();
  ArchConfig shared = star_config();
  shared.share_edge_capacity = true;

  constexpr int kRuns = 8;
  for (const DesignKind design :
       {DesignKind::AsyncBuf, DesignKind::SyncBuf}) {
    SCOPED_TRACE(runtime::design_name(design));
    const AggregateResult indep =
        runtime::run_design(qc, nodes, independent, design, kRuns, 42, 1);
    const AggregateResult contended =
        runtime::run_design(qc, nodes, shared, design, kRuns, 42, 1);
    // Four routes sharing the hub edge each run at a quarter of the pair
    // rate: the makespan must grow strictly.
    EXPECT_GT(contended.depth.mean(), indep.depth.mean());
    // The legacy engine reports no contention; the shared engine sees the
    // hub edge loaded fourfold in every run.
    EXPECT_EQ(indep.max_edge_load.mean(), 0.0);
    EXPECT_GE(contended.edges_shared.mean(), 1.0);
    EXPECT_EQ(contended.max_edge_load.mean(), 4.0);
  }
}

TEST(SharedCapacity, KnobIsNoOpWithoutTopology) {
  // Without a topology there are no shared edges, so each contention knob
  // would do nothing: validation rejects it instead of ignoring it.
  const Circuit qc = hub_circuit();
  const std::vector<int> nodes = hub_assignment();
  ArchConfig legacy;
  legacy.num_nodes = 8;
  EXPECT_NO_THROW(legacy.validate());
  for (const bool share : {true, false}) {
    ArchConfig config = legacy;
    config.share_edge_capacity = share;
    config.swap_as_you_go = !share;
    EXPECT_THROW(config.validate(), ConfigError);
    EXPECT_THROW(runtime::run_design(qc, nodes, config, DesignKind::AsyncBuf,
                                     1, 7, 1),
                 ConfigError);
  }
}

// Two-node chain: one physical edge, zero swaps. Swap-as-you-go then
// differs from the composed model only in bookkeeping (pairs transit the
// per-edge pool instead of the per-link service). This is the delivery
// seam's differential oracle: both deliveries must produce bit-identical
// trials through every buffered design (AdaptBuf reads each delivery's own
// occupancy signal), both remote implementations, a cutoff and
// purification. Only max_edge_load differs: knobs-off composed runs report
// no contention.
TEST(SwapAsYouGo, SingleHopMatchesComposedModel) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const std::vector<int> nodes =
      runtime::partition_circuit(qc, 2).assignment;
  ArchConfig composed;
  composed.num_nodes = 2;
  composed.set_topology(Topology::chain(2));
  using runtime::RemoteImpl;
  constexpr double kNoCutoff = std::numeric_limits<double>::infinity();
  for (const RemoteImpl impl :
       {RemoteImpl::GateTeleport, RemoteImpl::StateTeleport}) {
    for (const double cutoff : {kNoCutoff, 20.0}) {
      for (const bool purify : {false, true}) {
        composed.remote_impl = impl;
        composed.buffer_cutoff = cutoff;
        composed.purify_on_consume = purify;
        ArchConfig swap_go = composed;
        swap_go.swap_as_you_go = true;
        for (const DesignKind design :
             {DesignKind::SyncBuf, DesignKind::AsyncBuf, DesignKind::AdaptBuf,
              DesignKind::InitBuf}) {
          for (std::uint64_t seed = 1; seed <= 40; ++seed) {
            SCOPED_TRACE(runtime::design_name(design) + " impl " +
                         std::to_string(static_cast<int>(impl)) + " cutoff " +
                         std::to_string(cutoff) + " purify " +
                         std::to_string(purify) + " seed " +
                         std::to_string(seed));
            const runtime::RunResult a =
                runtime::RunContext().execute(qc, nodes, composed, design,
                                              seed);
            runtime::RunResult b =
                runtime::RunContext().execute(qc, nodes, swap_go, design,
                                              seed);
            EXPECT_EQ(a.max_edge_load, 0u);
            EXPECT_EQ(b.max_edge_load, 1u);
            b.max_edge_load = a.max_edge_load;
            runtime::expect_identical(a, b);
          }
        }
      }
    }
  }
}

TEST(SwapAsYouGo, BeatsComposedModelOnLongChains) {
  // End-to-end traffic across chain(8): the composed model needs all 7
  // hops to herald within one window (p_succ^7), swap-as-you-go buffers
  // each hop independently. The depth gap is the ablation's headline.
  Circuit qc(8);
  for (int rep = 0; rep < 2; ++rep) qc.rzz(0, 7, 0.1);
  const std::vector<int> nodes = {0, 1, 2, 3, 4, 5, 6, 7};
  ArchConfig composed;
  composed.num_nodes = 8;
  composed.set_topology(Topology::chain(8));
  ArchConfig swap_go = composed;
  swap_go.swap_as_you_go = true;

  const AggregateResult slow = runtime::run_design(
      qc, nodes, composed, DesignKind::AsyncBuf, 3, 33, 1);
  const AggregateResult fast = runtime::run_design(
      qc, nodes, swap_go, DesignKind::AsyncBuf, 3, 33, 1);
  EXPECT_GT(slow.depth.mean(), 5.0 * fast.depth.mean());
  // Every delivered pair still pays its 7-hop swap chain.
  EXPECT_EQ(fast.avg_route_hops.mean(), 7.0);
  EXPECT_GT(fast.entanglement_swaps.mean(), 0.0);
}

TEST(SwapAsYouGo, OnDemandDesignRunsDegradedPerEdgeService) {
  // The bufferless original design no longer falls back to the composed
  // model under swap_as_you_go: each edge runs a one-slot buffered
  // service, so hop pairs park on the communication qubits instead of
  // needing all hops to herald within one window (p_succ^hops). On a long
  // chain that degraded service still beats the composed model by a wide
  // margin — and the multi-hop bookkeeping (route hops, swaps) proves the
  // pairs were fused per edge, not composed.
  Circuit qc(5);
  for (int rep = 0; rep < 2; ++rep) qc.rzz(0, 4, 0.1);
  const std::vector<int> nodes = {0, 1, 2, 3, 4};
  ArchConfig composed;
  composed.num_nodes = 5;
  composed.set_topology(Topology::chain(5));
  ArchConfig swap_go = composed;
  swap_go.swap_as_you_go = true;

  const AggregateResult slow = runtime::run_design(
      qc, nodes, composed, DesignKind::Original, 3, 47, 1);
  const AggregateResult fast = runtime::run_design(
      qc, nodes, swap_go, DesignKind::Original, 3, 47, 1);
  EXPECT_GT(slow.depth.mean(), 3.0 * fast.depth.mean());
  EXPECT_EQ(fast.avg_route_hops.mean(), 4.0);
  EXPECT_GT(fast.entanglement_swaps.mean(), 0.0);
}

// ----------------------------------------------------------- determinism ----

/// 8 qubits over 4 ring nodes with traffic on four node pairs, two of them
/// non-adjacent (multi-hop, with two tied paths round the ring).
Circuit ring_circuit() {
  Circuit qc(8);
  for (int rep = 0; rep < 3; ++rep) {
    qc.rzz(1, 2, 0.1);  // nodes 0-1, adjacent
    qc.rzz(3, 4, 0.1);  // nodes 1-2, adjacent
    qc.rzz(0, 5, 0.1);  // nodes 0-2, across the ring
    qc.rzz(2, 7, 0.1);  // nodes 1-3, across the ring
    qc.h(6);
  }
  return qc;
}

TEST(CongestionDeterminism, EveryKnobCombinationIsThreadCountInvariant) {
  const Circuit qc = ring_circuit();
  const std::vector<int> nodes = {0, 0, 1, 1, 2, 2, 3, 3};
  constexpr int kRuns = 8;
  constexpr std::uint64_t kSeed = 500;

  struct Combo {
    const char* name;
    bool share, swap_go;
  };
  const Combo combos[] = {
      {"shared", true, false},
      {"swap_go", false, true},
      {"both", true, true},
  };
  for (const Combo& combo : combos) {
    ArchConfig config;
    config.num_nodes = 4;
    config.set_topology(Topology::ring(4));
    config.share_edge_capacity = combo.share;
    config.swap_as_you_go = combo.swap_go;
    for (const DesignKind design : runtime::distributed_designs()) {
      const AggregateResult serial = runtime::run_design(
          qc, nodes, config, design, kRuns, kSeed, /*threads=*/1);
      for (const int threads : {0, 2, 4}) {
        SCOPED_TRACE(std::string(combo.name) + " " +
                     runtime::design_name(design) + " @ " +
                     std::to_string(threads) + " threads");
        const AggregateResult parallel = runtime::run_design(
            qc, nodes, config, design, kRuns, kSeed, threads);
        expect_identical(serial, parallel);
      }
    }
  }
}

TEST(CongestionDeterminism, OutageRePlanningIsThreadCountInvariant) {
  // Outage boundaries re-plan every route over the surviving subgraph and
  // (in swap mode) re-serve every link; the whole machinery must stay
  // bit-identical across thread counts.
  const Circuit qc = ring_circuit();
  const std::vector<int> nodes = {0, 0, 1, 1, 2, 2, 3, 3};
  scenario::Scenario scn;
  scn.link_outages.push_back({0, 1, 60.0, 40.0});
  scn.link_outages.push_back({1, 2, 150.0, 30.0});

  for (const bool swap_go : {false, true}) {
    ArchConfig config;
    config.num_nodes = 4;
    config.set_topology(Topology::ring(4));
    config.set_scenario(scn);
    config.share_edge_capacity = !swap_go;
    config.swap_as_you_go = swap_go;
    for (const DesignKind design : runtime::distributed_designs()) {
      const AggregateResult serial =
          runtime::run_design(qc, nodes, config, design, 8, 900, 1);
      for (const int threads : {0, 4}) {
        SCOPED_TRACE(std::string(swap_go ? "swap_go" : "composed") + " " +
                     runtime::design_name(design) + " @ " +
                     std::to_string(threads) + " threads");
        const AggregateResult parallel =
            runtime::run_design(qc, nodes, config, design, 8, 900, threads);
        expect_identical(serial, parallel);
      }
    }
  }
}

}  // namespace
}  // namespace dqcsim::net
