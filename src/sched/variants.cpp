#include "sched/variants.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "circuit/dag.hpp"
#include "common/error.hpp"

namespace dqcsim::sched {
namespace {

/// Ready-set entry of Kahn's algorithm.
struct Entry {
  bool remote;
  std::size_t local_id;
};

/// Reusable storage of prioritized_topological_order.
struct KahnScratch {
  std::vector<std::size_t> remaining;
  std::vector<Entry> ready;
};

/// Kahn's algorithm over the segment's commutation-aware DAG with a policy-
/// specific ready-set priority. `reverse_direction == false` hoists remote
/// gates (ASAP); `true` runs over the reversed DAG so the returned order,
/// once reversed, sinks remote gates (ALAP).
std::vector<std::size_t> prioritized_topological_order(
    const DependencyDag& dag, const Segment& segment,
    const GatePlacement& placement, bool reverse_direction,
    KahnScratch& scratch) {
  const std::size_t n = dag.num_nodes();

  // Local node id l corresponds to absolute gate index segment.begin + l.
  const auto absolute = [&](std::size_t l) { return segment.begin + l; };
  const auto edges_out = [&](std::size_t l) {
    return reverse_direction ? dag.preds(l) : dag.succs(l);
  };
  const auto edges_in = [&](std::size_t l) {
    return reverse_direction ? dag.succs(l) : dag.preds(l);
  };

  // Priority: remote gates first; among equals, follow program order in the
  // traversal direction (ascending for forward, descending for reverse).
  // This is a strict total order, so the result depends only on the edges.
  const auto worse = [reverse_direction](const Entry& a, const Entry& b) {
    if (a.remote != b.remote) return b.remote;
    return reverse_direction ? a.local_id < b.local_id
                             : a.local_id > b.local_id;
  };
  auto& ready = scratch.ready;
  const auto push = [&](std::size_t l) {
    ready.push_back(Entry{placement.remote(absolute(l)), l});
    std::push_heap(ready.begin(), ready.end(), worse);
  };

  auto& remaining = scratch.remaining;
  remaining.resize(n);
  ready.clear();
  for (std::size_t l = 0; l < n; ++l) {
    remaining[l] = edges_in(l).size();
    if (remaining[l] == 0) push(l);
  }

  std::vector<std::size_t> order;
  order.reserve(n);
  while (!ready.empty()) {
    std::pop_heap(ready.begin(), ready.end(), worse);
    const std::size_t l = ready.back().local_id;
    ready.pop_back();
    order.push_back(absolute(l));
    for (const std::size_t next : edges_out(l)) {
      if (--remaining[next] == 0) push(next);
    }
  }
  DQCSIM_ENSURES_MSG(order.size() == n, "segment DAG has a cycle");
  if (reverse_direction) std::reverse(order.begin(), order.end());
  return order;
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

SegmentVariantTable::SegmentVariantTable(const Circuit& circuit,
                                         const GatePlacement& placement,
                                         const std::vector<Segment>& segments)
    : segments_(segments) {
  DQCSIM_EXPECTS(placement.is_remote.size() == circuit.num_gates());
  orders_.reserve(segments_.size());
  DependencyDag dag;
  KahnScratch scratch;
  for (const Segment& seg : segments_) {
    DQCSIM_EXPECTS(seg.begin <= seg.end);
    DQCSIM_EXPECTS(seg.end <= circuit.num_gates());
    // ASAP and ALAP are two traversals of one DAG.
    dag.build(circuit, seg.begin, seg.end);
    auto& entry = orders_.emplace_back();
    auto& original =
        entry[static_cast<std::size_t>(SchedulingPolicy::Original)];
    original.resize(seg.size());
    std::iota(original.begin(), original.end(), seg.begin);
    entry[static_cast<std::size_t>(SchedulingPolicy::Asap)] =
        prioritized_topological_order(dag, seg, placement,
                                      /*reverse_direction=*/false, scratch);
    entry[static_cast<std::size_t>(SchedulingPolicy::Alap)] =
        prioritized_topological_order(dag, seg, placement,
                                      /*reverse_direction=*/true, scratch);
  }
}

const std::vector<std::size_t>& SegmentVariantTable::order(
    std::size_t s, SchedulingPolicy policy) const {
  DQCSIM_EXPECTS(s < orders_.size());
  return orders_[s][static_cast<std::size_t>(policy)];
}

}  // namespace dqcsim::sched
