#include "net/topology.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <memory_resource>
#include <utility>

#include "common/error.hpp"

namespace dqcsim::net {

std::string topology_kind_name(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::AllToAll: return "all_to_all";
    case TopologyKind::Chain: return "chain";
    case TopologyKind::Ring: return "ring";
    case TopologyKind::Grid: return "grid";
    case TopologyKind::Star: return "star";
    case TopologyKind::Custom: return "custom";
  }
  return "unknown";
}

Topology Topology::all_to_all(int num_nodes) {
  DQCSIM_EXPECTS_MSG(num_nodes >= 2, "all_to_all needs at least 2 nodes");
  Topology t(num_nodes, TopologyKind::AllToAll);
  for (int a = 0; a < num_nodes; ++a) {
    for (int b = a + 1; b < num_nodes; ++b) t.add_edge(a, b);
  }
  return t;
}

Topology Topology::chain(int num_nodes) {
  DQCSIM_EXPECTS_MSG(num_nodes >= 2, "chain needs at least 2 nodes");
  Topology t(num_nodes, TopologyKind::Chain);
  for (int a = 0; a + 1 < num_nodes; ++a) t.add_edge(a, a + 1);
  return t;
}

Topology Topology::ring(int num_nodes) {
  DQCSIM_EXPECTS_MSG(num_nodes >= 3, "ring needs at least 3 nodes");
  Topology t(num_nodes, TopologyKind::Ring);
  for (int a = 0; a + 1 < num_nodes; ++a) t.add_edge(a, a + 1);
  t.add_edge(0, num_nodes - 1);
  return t;
}

Topology Topology::grid(int rows, int cols) {
  DQCSIM_EXPECTS_MSG(rows >= 1 && cols >= 1 && rows * cols >= 2,
                     "grid needs at least 2 nodes");
  Topology t(rows * cols, TopologyKind::Grid);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const int id = r * cols + c;
      if (c + 1 < cols) t.add_edge(id, id + 1);
      if (r + 1 < rows) t.add_edge(id, id + cols);
    }
  }
  return t;
}

Topology Topology::star(int num_nodes) {
  DQCSIM_EXPECTS_MSG(num_nodes >= 2, "star needs at least 2 nodes");
  Topology t(num_nodes, TopologyKind::Star);
  for (int b = 1; b < num_nodes; ++b) t.add_edge(0, b);
  return t;
}

Topology Topology::custom(int num_nodes,
                          const std::vector<std::pair<int, int>>& edges) {
  Topology t(num_nodes, TopologyKind::Custom);
  for (const auto& [a, b] : edges) t.add_edge(a, b);
  t.validate();
  return t;
}

void Topology::add_edge(int a, int b) {
  if (a > b) std::swap(a, b);
  edges_.push_back(TopologyEdge{a, b, {}});
}

std::size_t Topology::edge_index(int a, int b) const {
  if (a > b) std::swap(a, b);
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (edges_[i].a == a && edges_[i].b == b) return i;
  }
  return npos;
}

int Topology::degree(int node) const {
  int d = 0;
  for (const TopologyEdge& e : edges_) d += (e.a == node || e.b == node);
  return d;
}

std::vector<int> Topology::neighbors(int node) const {
  std::vector<int> out;
  for (const TopologyEdge& e : edges_) {
    if (e.a == node) out.push_back(e.b);
    if (e.b == node) out.push_back(e.a);
  }
  std::sort(out.begin(), out.end());
  return out;
}

int Topology::max_degree() const {
  int best = 0;
  for (int v = 0; v < num_nodes_; ++v) best = std::max(best, degree(v));
  return best;
}

bool Topology::is_connected() const {
  if (num_nodes_ <= 1) return true;
  // The scratch lives on the stack for up to a few hundred nodes, so
  // validating a config (once per trial) allocates nothing; a larger
  // interconnect spills to the heap.
  std::array<std::byte, 2048> arena;
  std::pmr::monotonic_buffer_resource scratch(arena.data(), arena.size());
  const auto n = static_cast<std::size_t>(num_nodes_);
  std::pmr::vector<char> seen(n, 0, &scratch);
  std::pmr::vector<int> stack(&scratch);
  stack.reserve(n);  // each node is pushed at most once
  stack.push_back(0);
  seen[0] = 1;
  int reached = 1;
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    for (const TopologyEdge& e : edges_) {
      const int other = e.a == v ? e.b : (e.b == v ? e.a : -1);
      if (other >= 0 && !seen[static_cast<std::size_t>(other)]) {
        seen[static_cast<std::size_t>(other)] = 1;
        ++reached;
        stack.push_back(other);
      }
    }
  }
  return reached == num_nodes_;
}

namespace {

void validate_overrides(const EdgeOverrides& o) {
  if (o.p_succ && !(*o.p_succ > 0.0 && *o.p_succ <= 1.0)) {
    throw ConfigError("Topology: edge p_succ override must be in (0, 1]");
  }
  if (o.cycle_time &&
      !(*o.cycle_time > 0.0 && std::isfinite(*o.cycle_time))) {
    throw ConfigError(
        "Topology: edge cycle_time override must be finite and positive");
  }
  if (o.f0 && !(*o.f0 >= 0.25 && *o.f0 <= 1.0)) {
    throw ConfigError("Topology: edge f0 override must be in [0.25, 1]");
  }
}

}  // namespace

void Topology::set_edge_overrides(int a, int b,
                                  const EdgeOverrides& overrides) {
  const std::size_t idx = edge_index(a, b);
  if (idx == npos) {
    throw ConfigError("Topology: cannot override a non-existent edge");
  }
  validate_overrides(overrides);
  edges_[idx].overrides = overrides;
}

void Topology::validate() const {
  if (num_nodes_ < 2) {
    throw ConfigError("Topology: an interconnect needs at least two nodes");
  }
  if (edges_.empty()) {
    throw ConfigError("Topology: an interconnect needs at least one edge");
  }
  for (const TopologyEdge& e : edges_) {
    if (e.a < 0 || e.b < 0 || e.a >= num_nodes_ || e.b >= num_nodes_) {
      throw ConfigError("Topology: edge endpoint outside [0, num_nodes)");
    }
    if (e.a == e.b) {
      throw ConfigError("Topology: self-loop edges are not allowed");
    }
    validate_overrides(e.overrides);
  }
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    for (std::size_t j = i + 1; j < edges_.size(); ++j) {
      if (edges_[i].a == edges_[j].a && edges_[i].b == edges_[j].b) {
        throw ConfigError("Topology: duplicate edge");
      }
    }
  }
  if (!is_connected()) {
    throw ConfigError("Topology: interconnect must be connected");
  }
}

}  // namespace dqcsim::net
