/// \file swap.hpp
/// \brief Entanglement-swapping model: compose per-hop link qualities into
/// one effective end-to-end link for a routed node pair.
///
/// A multi-hop route delivers end-to-end pairs by generating one pair per
/// hop in parallel and fusing them with Bell-state measurements at the
/// intermediate nodes. For Werner states the composition is closed-form:
/// weights multiply per swap, and each noisy BSM contributes one further
/// multiplicative weight factor. The effective link the engine simulates:
///
///  - p_succ     = product of hop success probabilities (every hop must
///                 herald within the same attempt window),
///  - cycle_time = slowest hop's attempt window (hops attempt in parallel),
///  - f0         = Werner-composed fresh fidelity across hops and swaps,
///  - comm/buffer capacity = bottleneck hop's capacity,
///  - extra latency = (hops - 1) swaps' local operations, serial along the
///                 chain, charged when a remote gate consumes the pair.
///
/// Capacity sharing between routes: by default (all contention knobs off)
/// every routed logical node pair is backed by an *independent* effective
/// link, so two routes crossing the same physical edge each draw the
/// edge's full per-edge budget concurrently — optimistic on congestion-
/// prone shapes (star hubs, chain bottlenecks). Opting into
/// ArchConfig::share_edge_capacity splits each contended edge's budget
/// into deterministic per-route shares (compose_route_shared below, shares
/// from net::capacity_share), and ArchConfig::swap_as_you_go replaces the
/// composed model entirely with one buffered generation service per
/// physical edge — routes then contend dynamically for a common buffer and
/// pairs are fused on demand at the intermediate nodes, escaping this
/// file's all-hops-in-one-window p_succ^hops success model. Remaining
/// follow-up: purification at intermediate swap nodes (today purification
/// runs only on the assembled end-to-end pairs; see ROADMAP).

#pragma once

#include <cstddef>
#include <vector>

#include "ent/link_params.hpp"
#include "net/router.hpp"

namespace dqcsim::net {

/// Local-operation model of one entanglement swap.
struct SwapParams {
  /// Effective fidelity of the Bell-state measurement fusing two hops
  /// (a local CNOT and two measurements on the intermediate node); enters
  /// the composed pair's Werner weight once per swap. Values below 0.25
  /// are clamped to a fully depolarizing swap.
  double bsm_fidelity = 1.0;
  /// Duration of one swap's local operations; swaps run serially along the
  /// path, delaying the consuming remote gate by (hops - 1) * latency.
  double latency = 0.0;

  friend bool operator==(const SwapParams&, const SwapParams&) = default;
};

/// Werner weight one noisy BSM multiplies into the composed pair:
/// (4 * bsm_fidelity - 1) / 3, clamped to a fully depolarizing swap (0)
/// below fidelity 0.25 and to 1 above fidelity 1. The single source of
/// truth for the swap noise model — swap_composed_fidelity and
/// compose_route both fold weights with it, in the same order.
double swap_bsm_weight(double bsm_fidelity);

/// Werner fidelity of the end-to-end pair composed from `count` per-hop
/// fidelities in `hop_f0` through (count - 1) swaps of quality
/// `bsm_fidelity`. Preconditions: count >= 1, each fidelity in [0.25, 1].
double swap_composed_fidelity(const double* hop_f0, std::size_t count,
                              double bsm_fidelity);

/// Effective single link backing one routed node pair.
struct RoutedLink {
  ent::LinkParams params;     ///< end-to-end parameters (see file header)
  int hops = 1;               ///< physical edges on the route
  double extra_latency = 0.0; ///< (hops - 1) * SwapParams::latency
};

/// Compose the route's per-edge links (edge_params indexed like the
/// router's topology edges) into one effective end-to-end link.
/// Schedule/consume-order/subgroup fields are taken from the first hop
/// (they are architecture-wide, not per-edge).
/// Preconditions: route has >= 1 hop; edge_params covers every edge index.
RoutedLink compose_route(const Route& route,
                         const std::vector<ent::LinkParams>& edge_params,
                         const SwapParams& swap);

/// compose_route with explicit per-hop capacity grants: hop k contributes
/// hop_comm[k] communication pairs and hop_buffer[k] buffer slots instead
/// of its full per-edge budget — the share a route receives when an edge's
/// capacity is split between the concurrent routes crossing it (see
/// net::capacity_share in congestion.hpp). A null grant array falls back
/// to the full budgets; compose_route delegates here with both null, so
/// the two entry points fold every resource in the same order and the
/// composed f0 stays bit-identical.
/// Preconditions: as compose_route; non-null arrays cover route.hops().
RoutedLink compose_route_shared(const Route& route,
                                const std::vector<ent::LinkParams>& edge_params,
                                const SwapParams& swap, const int* hop_comm,
                                const int* hop_buffer);

}  // namespace dqcsim::net
