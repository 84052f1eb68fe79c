#include "sched/variants.hpp"

#include <algorithm>
#include <array>
#include <queue>

#include "circuit/dag.hpp"
#include "common/error.hpp"

namespace dqcsim::sched {
namespace {

/// Kahn's algorithm over the segment's commutation-aware DAG with a policy-
/// specific ready-set priority. `prefer_remote_late == false` hoists remote
/// gates (ASAP); `true` runs over the reversed DAG so the returned order,
/// once reversed, sinks remote gates (ALAP).
std::vector<std::size_t> prioritized_topological_order(
    const DependencyDag& dag, const Segment& segment,
    const GatePlacement& placement, bool reverse_direction) {
  const std::size_t n = segment.size();

  // Local node id l corresponds to absolute gate index segment.begin + l.
  const auto absolute = [&](std::size_t l) { return segment.begin + l; };
  const auto edges_out = [&](std::size_t l) -> const std::vector<std::size_t>& {
    return reverse_direction ? dag.preds(l) : dag.succs(l);
  };
  const auto edges_in = [&](std::size_t l) -> const std::vector<std::size_t>& {
    return reverse_direction ? dag.succs(l) : dag.preds(l);
  };

  // Priority: remote gates first; among equals, follow program order in the
  // traversal direction (ascending for forward, descending for reverse).
  struct Entry {
    bool remote;
    std::size_t local_id;
  };
  const auto better = [reverse_direction](const Entry& a, const Entry& b) {
    if (a.remote != b.remote) return a.remote;
    return reverse_direction ? a.local_id > b.local_id
                             : a.local_id < b.local_id;
  };
  const auto cmp = [better](const Entry& a, const Entry& b) {
    return better(b, a);  // priority_queue keeps the "largest" on top
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(cmp)> ready(cmp);

  std::vector<std::size_t> remaining(n);
  for (std::size_t l = 0; l < n; ++l) {
    remaining[l] = edges_in(l).size();
    if (remaining[l] == 0) {
      ready.push(Entry{placement.remote(absolute(l)), l});
    }
  }

  std::vector<std::size_t> order;
  order.reserve(n);
  while (!ready.empty()) {
    const Entry e = ready.top();
    ready.pop();
    order.push_back(absolute(e.local_id));
    for (std::size_t next : edges_out(e.local_id)) {
      if (--remaining[next] == 0) {
        ready.push(Entry{placement.remote(absolute(next)), next});
      }
    }
  }
  DQCSIM_ENSURES_MSG(order.size() == n, "segment DAG has a cycle");
  if (reverse_direction) std::reverse(order.begin(), order.end());
  return order;
}

/// The circuit restricted to the segment, with commutation analysed there.
DependencyDag segment_dag(const Circuit& circuit, const Segment& segment) {
  Circuit sub(circuit.num_qubits());
  for (std::size_t i = segment.begin; i < segment.end; ++i) {
    sub.append(circuit.gate(i));
  }
  return DependencyDag(sub, DependencyDag::Mode::CommutationAware);
}

}  // namespace

const char* policy_name(SchedulingPolicy policy) noexcept {
  switch (policy) {
    case SchedulingPolicy::Original: return "original";
    case SchedulingPolicy::Asap: return "asap";
    case SchedulingPolicy::Alap: return "alap";
  }
  return "?";
}

std::vector<std::size_t> segment_variant_order(const Circuit& circuit,
                                               const GatePlacement& placement,
                                               const Segment& segment,
                                               SchedulingPolicy policy) {
  DQCSIM_EXPECTS(segment.begin <= segment.end);
  DQCSIM_EXPECTS(segment.end <= circuit.num_gates());
  DQCSIM_EXPECTS(placement.is_remote.size() == circuit.num_gates());

  std::vector<std::size_t> order(segment.size());
  if (policy == SchedulingPolicy::Original) {
    for (std::size_t l = 0; l < order.size(); ++l) {
      order[l] = segment.begin + l;
    }
    return order;
  }

  return prioritized_topological_order(
      segment_dag(circuit, segment), segment, placement,
      /*reverse_direction=*/policy == SchedulingPolicy::Alap);
}

SegmentVariantTable::SegmentVariantTable(const Circuit& circuit,
                                         const GatePlacement& placement,
                                         const std::vector<Segment>& segments)
    : segments_(segments) {
  orders_.reserve(segments_.size());
  for (const Segment& seg : segments_) {
    // ASAP and ALAP are two traversals of one DAG: build it once.
    const DependencyDag dag = segment_dag(circuit, seg);
    std::array<std::vector<std::size_t>, 3> entry;
    entry[static_cast<std::size_t>(SchedulingPolicy::Original)] =
        segment_variant_order(circuit, placement, seg,
                              SchedulingPolicy::Original);
    entry[static_cast<std::size_t>(SchedulingPolicy::Asap)] =
        prioritized_topological_order(dag, seg, placement,
                                      /*reverse_direction=*/false);
    entry[static_cast<std::size_t>(SchedulingPolicy::Alap)] =
        prioritized_topological_order(dag, seg, placement,
                                      /*reverse_direction=*/true);
    orders_.push_back(std::move(entry));
  }
}

const std::vector<std::size_t>& SegmentVariantTable::order(
    std::size_t s, SchedulingPolicy policy) const {
  DQCSIM_EXPECTS(s < orders_.size());
  return orders_[s][static_cast<std::size_t>(policy)];
}

}  // namespace dqcsim::sched
