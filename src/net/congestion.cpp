#include "net/congestion.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace dqcsim::net {

int capacity_share(int capacity, int load, int rank) {
  DQCSIM_EXPECTS(load >= 1 && rank >= 0 && rank < load);
  if (capacity <= 0) return capacity;
  const int share = capacity / load + (rank < capacity % load ? 1 : 0);
  return std::max(1, share);
}

void CongestionPlanner::begin(const Topology& topo,
                              const std::vector<double>& static_costs,
                              const std::vector<char>* edge_enabled) {
  DQCSIM_EXPECTS_MSG(static_costs.size() == topo.num_edges(),
                     "one static cost per topology edge");
  topo_ = &topo;
  costs_ = &static_costs;
  enabled_ = edge_enabled;
  load_.assign(topo.num_edges(), 0);

  const auto n = static_cast<std::size_t>(topo.num_nodes());
  incident_.resize(n);
  for (auto& inc : incident_) inc.clear();
  for (std::size_t e = 0; e < topo.num_edges(); ++e) {
    if (edge_enabled != nullptr && !(*edge_enabled)[e]) continue;
    const TopologyEdge& edge = topo.edge(e);
    incident_[static_cast<std::size_t>(edge.a)].push_back({e, edge.b});
    incident_[static_cast<std::size_t>(edge.b)].push_back({e, edge.a});
  }
  dist_.resize(n);
  pred_node_.resize(n);
  pred_edge_.resize(n);
  done_.resize(n);

  // Flood fill in node order: each component is labelled by its lowest
  // node, so plan() can answer a cut-off pair without a search.
  component_.assign(n, -1);
  for (int s = 0; s < topo.num_nodes(); ++s) {
    if (component_[static_cast<std::size_t>(s)] != -1) continue;
    component_[static_cast<std::size_t>(s)] = s;
    stack_.push_back(s);
    while (!stack_.empty()) {
      const int v = stack_.back();
      stack_.pop_back();
      for (const auto& [e, other] : incident_[static_cast<std::size_t>(v)]) {
        int& label = component_[static_cast<std::size_t>(other)];
        if (label == -1) {
          label = s;
          stack_.push_back(other);
        }
      }
    }
  }
}

namespace {

void clear_route(Route& r) {
  r.nodes.clear();
  r.edges.clear();
  r.cost = 0.0;
}

}  // namespace

bool CongestionPlanner::find_route(int src, int dst, Route& out) {
  const int n = topo_->num_nodes();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::fill(dist_.begin(), dist_.end(), kInf);
  std::fill(pred_node_.begin(), pred_node_.end(), -1);
  std::fill(done_.begin(), done_.end(), 0);
  dist_[static_cast<std::size_t>(src)] = 0.0;

  // O(n^2) Dijkstra: topologies are small (tens of QPUs), and scanning
  // keeps the node-selection order — hence the path — deterministic, with
  // strict-improvement tie-breaks (on a tie the first-found path wins).
  for (int round = 0; round < n; ++round) {
    int u = -1;
    for (int v = 0; v < n; ++v) {
      const auto uv = static_cast<std::size_t>(v);
      if (done_[uv] || dist_[uv] == kInf) continue;
      if (u == -1 || dist_[uv] < dist_[static_cast<std::size_t>(u)]) u = v;
    }
    if (u == -1) break;
    const auto uu = static_cast<std::size_t>(u);
    done_[uu] = 1;
    if (u == dst) break;
    for (const auto& [e, other] : incident_[uu]) {
      const auto uo = static_cast<std::size_t>(other);
      const double cand = dist_[uu] + (*costs_)[e];
      if (cand < dist_[uo]) {
        dist_[uo] = cand;
        pred_node_[uo] = u;
        pred_edge_[uo] = e;
      }
    }
  }

  clear_route(out);
  const auto ud = static_cast<std::size_t>(dst);
  if (dist_[ud] == kInf) return false;
  out.cost = dist_[ud];
  for (int v = dst; v != src; v = pred_node_[static_cast<std::size_t>(v)]) {
    out.nodes.push_back(v);
    out.edges.push_back(pred_edge_[static_cast<std::size_t>(v)]);
  }
  out.nodes.push_back(src);
  std::reverse(out.nodes.begin(), out.nodes.end());
  std::reverse(out.edges.begin(), out.edges.end());
  return true;
}

void CongestionPlanner::plan(int a, int b, RoutePlan& plan) {
  DQCSIM_EXPECTS(topo_ != nullptr);
  DQCSIM_EXPECTS(a != b && a >= 0 && b >= 0 && a < topo_->num_nodes() &&
                 b < topo_->num_nodes());
  if (component_[static_cast<std::size_t>(a)] !=
      component_[static_cast<std::size_t>(b)]) {
    plan.has_route = false;
    clear_route(plan.primary);
    return;
  }
  plan.has_route = find_route(a, b, plan.primary);
  if (plan.has_route) charge(plan.primary);
}

void CongestionPlanner::plan_static(const Router& router, int a, int b,
                                    RoutePlan& plan) {
  const Route& fabric = router.route(a, b);
  const bool fabric_up =
      enabled_ == nullptr ||
      std::all_of(fabric.edges.begin(), fabric.edges.end(),
                  [this](std::size_t e) { return (*enabled_)[e] != 0; });
  if (fabric_up) {
    plan.has_route = true;
    plan.primary = fabric;  // reuses capacity
    charge(plan.primary);
    return;
  }
  this->plan(std::min(a, b), std::max(a, b), plan);
  if (a > b) {
    std::reverse(plan.primary.nodes.begin(), plan.primary.nodes.end());
    std::reverse(plan.primary.edges.begin(), plan.primary.edges.end());
  }
}

void CongestionPlanner::charge(const Route& route) {
  for (const std::size_t e : route.edges) ++load_[e];
}

}  // namespace dqcsim::net
