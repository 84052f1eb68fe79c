/// \file topology.hpp
/// \brief Physical interconnect topologies between QPU nodes.
///
/// The paper evaluates a 2-node all-to-all system; this layer generalizes
/// the interconnect to sparse, heterogeneous graphs: each edge is one
/// physical entanglement-generation link (a pair of fiber-coupled
/// communication-qubit banks), and node pairs without an edge communicate
/// through multi-hop routes of entanglement swaps (see net/router.hpp).
/// Edges may override the architecture-wide link parameters (success
/// probability, attempt cycle, base fidelity) to model heterogeneous
/// hardware — e.g. one long noisy fiber in an otherwise uniform ring.

#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace dqcsim::net {

/// Shape family a Topology was built from (Custom for adjacency lists).
enum class TopologyKind {
  AllToAll,
  Chain,
  Ring,
  Grid,
  Star,
  Custom,
};

/// Display name, e.g. "ring".
std::string topology_kind_name(TopologyKind kind);

/// Optional per-edge deviations from the architecture-wide link parameters
/// (ent::LinkParams fields derived from runtime::ArchConfig). Unset fields
/// inherit the base value.
struct EdgeOverrides {
  std::optional<double> p_succ;      ///< per-attempt success probability
  std::optional<double> cycle_time;  ///< T_EG of this edge's hardware
  std::optional<double> f0;          ///< fresh-pair fidelity on this edge

  bool any() const noexcept {
    return p_succ.has_value() || cycle_time.has_value() || f0.has_value();
  }
};

/// One undirected physical link between two QPU nodes.
struct TopologyEdge {
  int a = 0;  ///< endpoint node id (a < b after normalization)
  int b = 0;
  EdgeOverrides overrides;
};

/// Undirected interconnect graph over `num_nodes` QPUs.
///
/// Edges are stored in insertion order; builders insert in a fixed
/// canonical order so a topology's edge indexing (and everything derived
/// from it) is deterministic.
class Topology {
 public:
  /// Every node pair directly linked (the legacy interconnect model).
  static Topology all_to_all(int num_nodes);
  /// Nodes 0-1-2-...-(n-1) in a line.
  static Topology chain(int num_nodes);
  /// Chain plus the closing (n-1)-0 edge. Requires num_nodes >= 3.
  static Topology ring(int num_nodes);
  /// rows x cols mesh with 4-neighbour connectivity; node id = r*cols + c.
  static Topology grid(int rows, int cols);
  /// Node 0 is the hub; every other node links only to it.
  static Topology star(int num_nodes);
  /// Arbitrary adjacency list; edges are normalized (a < b) and validated.
  static Topology custom(int num_nodes,
                         const std::vector<std::pair<int, int>>& edges);

  Topology() = default;

  int num_nodes() const noexcept { return num_nodes_; }
  std::size_t num_edges() const noexcept { return edges_.size(); }
  TopologyKind kind() const noexcept { return kind_; }
  /// "ring", "grid", ... (builder family, for reports and benches).
  std::string name() const { return topology_kind_name(kind_); }

  const std::vector<TopologyEdge>& edges() const noexcept { return edges_; }
  const TopologyEdge& edge(std::size_t index) const {
    return edges_.at(index);
  }

  /// Index of edge {a, b} in edges(), or npos when absent.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t edge_index(int a, int b) const;
  bool has_edge(int a, int b) const { return edge_index(a, b) != npos; }

  /// Number of edges incident to `node`.
  int degree(int node) const;
  /// Neighbouring node ids of `node`, ascending.
  std::vector<int> neighbors(int node) const;
  /// Largest degree over all nodes (each node's comm budget must cover it).
  int max_degree() const;

  /// True when every node can reach every other node.
  bool is_connected() const;

  /// Attach per-edge parameter overrides to edge {a, b}.
  /// Throws ConfigError when the edge is absent or a value is out of
  /// domain (p_succ in (0,1], cycle_time finite and > 0, f0 in [0.25, 1]).
  void set_edge_overrides(int a, int b, const EdgeOverrides& overrides);

  /// Throws ConfigError unless the topology has >= 2 nodes, >= 1 edge, no
  /// self-loops/duplicates/out-of-range endpoints, is connected, and all
  /// overrides are in domain.
  void validate() const;

 private:
  Topology(int num_nodes, TopologyKind kind)
      : num_nodes_(num_nodes), kind_(kind) {}

  void add_edge(int a, int b);

  int num_nodes_ = 0;
  TopologyKind kind_ = TopologyKind::Custom;
  std::vector<TopologyEdge> edges_;
};

}  // namespace dqcsim::net
