#include "scenario/runtime.hpp"

#include <algorithm>
#include <limits>

namespace dqcsim::scenario {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Stream tag of the per-edge failure processes.
constexpr std::uint64_t kTagFail = 0x4641494CULL;  // "FAIL"

}  // namespace

void ScenarioRuntime::begin_trial(const Scenario& scenario,
                                  const net::Topology& topo,
                                  std::uint64_t trial_seed) {
  scn_ = &scenario;
  const std::size_t num_edges = topo.num_edges();

  edge_downs_.resize(num_edges);
  for (auto& intervals : edge_downs_) intervals.clear();
  for (const LinkOutage& outage : scenario.link_outages) {
    const std::size_t e = topo.edge_index(outage.node_a, outage.node_b);
    edge_downs_[e].emplace_back(outage.start, outage.start + outage.duration);
  }

  // Deterministic boundaries: the potential flips of the outage set.
  // Overlapping intervals can make some of these spurious (no actual
  // change); the engine re-derives the mask at each boundary, so a
  // spurious entry costs one no-op check.
  det_boundaries_.clear();
  for (auto& intervals : edge_downs_) {
    std::sort(intervals.begin(), intervals.end());
    for (const auto& [start, end] : intervals) {
      det_boundaries_.push_back(start);
      det_boundaries_.push_back(end);
    }
  }
  std::sort(det_boundaries_.begin(), det_boundaries_.end());
  det_boundaries_.erase(
      std::unique(det_boundaries_.begin(), det_boundaries_.end()),
      det_boundaries_.end());

  if (scenario.random_failures.mtbf > 0.0) {
    failures_.resize(num_edges);
    for (std::size_t e = 0; e < num_edges; ++e) {
      failures_[e].rng =
          Rng(Rng::derive_seed(trial_seed, scenario.salt, kTagFail, e));
      failures_[e].intervals.clear();
      failures_[e].sampled_until = 0.0;
      failures_[e].exhausted = false;
    }
  } else {
    failures_.clear();
  }
}

bool ScenarioRuntime::in_intervals(
    const std::vector<std::pair<double, double>>& intervals, double t) {
  // Sorted by start; deterministic intervals may overlap, so scan until the
  // starts pass t (lists are short: one entry per configured event).
  for (const auto& [start, end] : intervals) {
    if (start > t) break;
    if (t < end) return true;
  }
  return false;
}

bool ScenarioRuntime::in_disjoint_intervals(
    const std::vector<std::pair<double, double>>& intervals, double t) {
  // Sorted AND non-overlapping (the stochastic failure process samples the
  // next start past the previous repair), so only the last interval starting
  // at or before t can cover it. These lists grow with trial length — a
  // long trial under frequent failures accumulates thousands of intervals
  // per edge, and edge_up runs on every generation attempt window — so the
  // lookup must stay O(log n), not a front-to-back scan.
  const auto it = std::upper_bound(intervals.begin(), intervals.end(),
                                   std::make_pair(t, kInf));
  return it != intervals.begin() && t < (it - 1)->second;
}

bool ScenarioRuntime::edge_up(std::size_t edge, double t) const {
  if (in_intervals(edge_downs_[edge], t)) return false;
  return failures_.empty() ||
         !in_disjoint_intervals(failures_[edge].intervals, t);
}

void ScenarioRuntime::extend_failures(double t) {
  const double mtbf = scn_->random_failures.mtbf;
  const double repair = scn_->random_failures.duration;
  for (EdgeFailures& fail : failures_) {
    // Sample until the *first failure starting after t* is materialized (or
    // the process is exhausted): with it sampled, every boundary of this
    // edge in (t, that start] is known, so next_boundary can never return a
    // time that an unsampled failure would preempt, and edge_up is exact
    // for any query at or before the returned boundary.
    while (!fail.exhausted &&
           (fail.intervals.empty() || fail.intervals.back().first <= t)) {
      const double start = fail.sampled_until + fail.rng.exponential(mtbf);
      if (start > scn_->horizon) {
        fail.exhausted = true;
        break;
      }
      fail.intervals.emplace_back(start, start + repair);
      fail.sampled_until = start + repair;
    }
  }
}

std::optional<double> ScenarioRuntime::next_boundary(double t) {
  double best = kInf;
  const auto det =
      std::upper_bound(det_boundaries_.begin(), det_boundaries_.end(), t);
  if (det != det_boundaries_.end()) best = *det;

  if (!failures_.empty()) {
    extend_failures(t);
    for (const EdgeFailures& fail : failures_) {
      // Candidate boundaries: the end of the interval covering t (if any),
      // and the start of the first interval after t.
      const auto it =
          std::upper_bound(fail.intervals.begin(), fail.intervals.end(),
                           std::make_pair(t, kInf));
      if (it != fail.intervals.begin()) {
        const double end = (it - 1)->second;
        if (end > t) best = std::min(best, end);
      }
      if (it != fail.intervals.end()) best = std::min(best, it->first);
    }
  }

  if (best == kInf) return std::nullopt;
  return best;
}

}  // namespace dqcsim::scenario
