#include "scenario/runtime.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace dqcsim::scenario {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Stream tags keep the per-component seed derivations disjoint.
constexpr std::uint64_t kTagWalk = 0x57414C4BULL;   // "WALK"
constexpr std::uint64_t kTagBurst = 0x42555253ULL;  // "BURS"
constexpr std::uint64_t kTagFail = 0x4641494CULL;   // "FAIL"

/// Exp(mean) variate through the blessed Rng wrapper — the raw
/// -mean * log(1 - u) inversion lives in common/rng so the engine
/// subsystems stay free of raw libm calls (no-raw-libm).
double exponential(Rng& rng, double mean) noexcept {
  return rng.exponential(mean);
}

}  // namespace

void ScenarioRuntime::begin_trial(const Scenario& scenario,
                                  const net::Topology& topo,
                                  std::uint64_t trial_seed) {
  scn_ = &scenario;
  topo_ = &topo;
  const std::size_t num_edges = topo.num_edges();
  const std::size_t num_nodes = static_cast<std::size_t>(topo.num_nodes());
  const std::uint64_t salt = scenario.salt;

  track_edge_.resize(scenario.drift.size());
  walks_.resize(scenario.drift.size());
  for (std::size_t i = 0; i < scenario.drift.size(); ++i) {
    const DriftTrack& track = scenario.drift[i];
    track_edge_[i] = (track.node_a < 0 && track.node_b < 0)
                         ? net::Topology::npos
                         : topo.edge_index(track.node_a, track.node_b);
    walks_[i].levels.clear();
    if (track.kind == DriftKind::RandomWalk) {
      walks_[i].rng = Rng(Rng::derive_seed(trial_seed, salt, kTagWalk, i));
      walks_[i].levels.push_back(1.0);
    }
  }

  edge_downs_.resize(num_edges);
  for (auto& intervals : edge_downs_) intervals.clear();
  node_downs_.resize(num_nodes);
  for (auto& intervals : node_downs_) intervals.clear();

  for (const LinkOutage& outage : scenario.link_outages) {
    const std::size_t e = topo.edge_index(outage.node_a, outage.node_b);
    edge_downs_[e].emplace_back(outage.start, outage.start + outage.duration);
  }
  for (const NodeOutage& outage : scenario.node_outages) {
    node_downs_[static_cast<std::size_t>(outage.node)].emplace_back(
        outage.start, outage.start + outage.duration);
  }
  for (std::size_t b = 0; b < scenario.bursts.size(); ++b) {
    const FailureBurst& burst = scenario.bursts[b];
    const auto window = std::make_pair(burst.start, burst.start + burst.duration);
    if (!burst.edges.empty()) {
      for (const auto& [x, y] : burst.edges) {
        edge_downs_[topo.edge_index(x, y)].push_back(window);
      }
    } else {
      // Per-trial seeded random subset: partial Fisher–Yates over the edge
      // index list, one independent stream per burst.
      Rng rng(Rng::derive_seed(trial_seed, salt, kTagBurst, b));
      scratch_indices_.resize(num_edges);
      for (std::size_t e = 0; e < num_edges; ++e) scratch_indices_[e] = e;
      const std::size_t k = static_cast<std::size_t>(burst.random_edges);
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t j =
            i + static_cast<std::size_t>(rng.uniform_int(num_edges - i));
        std::swap(scratch_indices_[i], scratch_indices_[j]);
        edge_downs_[scratch_indices_[i]].push_back(window);
      }
    }
  }

  node_snaps_.resize(num_nodes);
  for (auto& snaps : node_snaps_) snaps.clear();
  for (const CalibrationSnapshot& snap : scenario.snapshots) {
    node_snaps_[static_cast<std::size_t>(snap.node)].push_back(
        {snap.time, snap.p_succ_scale, snap.f0_scale});
  }
  for (auto& snaps : node_snaps_) {
    std::stable_sort(snaps.begin(), snaps.end(),
                     [](const Snap& a, const Snap& b) { return a.time < b.time; });
  }

  // Potential-flip times of the deterministic outage set. Overlapping
  // intervals can make some of these spurious (no actual state change);
  // the engine re-derives the full mask at each boundary, so spurious
  // entries cost one no-op check.
  det_boundaries_.clear();
  for (auto& intervals : edge_downs_) {
    std::sort(intervals.begin(), intervals.end());
    for (const auto& [start, end] : intervals) {
      det_boundaries_.push_back(start);
      det_boundaries_.push_back(end);
    }
  }
  for (auto& intervals : node_downs_) {
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
      failures_[e].rng = Rng(Rng::derive_seed(trial_seed, salt, kTagFail, e));
      failures_[e].intervals.clear();
      failures_[e].sampled_until = 0.0;
      failures_[e].exhausted = false;
    }
  } else {
    failures_.clear();
  }
}

double ScenarioRuntime::track_scale(std::size_t i, double time) {
  const DriftTrack& track = scn_->drift[i];
  switch (track.kind) {
    case DriftKind::Step: {
      // Last step time <= `time`; scale 1 before the first step.
      const auto it =
          std::upper_bound(track.times.begin(), track.times.end(), time);
      if (it == track.times.begin()) return 1.0;
      return track.levels[static_cast<std::size_t>(it - track.times.begin()) -
                          1];
    }
    case DriftKind::Ramp: {
      if (time <= track.t0) return track.s0;
      if (time >= track.t1) return track.s1;
      return track.s0 + (track.s1 - track.s0) * (time - track.t0) /
                            (track.t1 - track.t0);
    }
    case DriftKind::RandomWalk: {
      // Memoized grid levels allow random access in time (consumption-time
      // fidelity queries look back to a pair's deposit instant). The walk
      // freezes past the scenario horizon, bounding memoization.
      WalkState& walk = walks_[i];
      const double capped = std::min(time, scn_->horizon);
      const std::size_t step = static_cast<std::size_t>(
          std::max(0.0, std::floor(capped / track.walk_interval)));
      while (walk.levels.size() <= step) {
        const double factor =
            1.0 + walk.rng.uniform(-track.walk_step, track.walk_step);
        walk.levels.push_back(std::clamp(walk.levels.back() * factor,
                                         track.walk_min, track.walk_max));
      }
      return walk.levels[step];
    }
  }
  return 1.0;  // unreachable
}

double ScenarioRuntime::scale(std::size_t edge, DriftField field, double t) {
  double s = 1.0;
  for (std::size_t i = 0; i < scn_->drift.size(); ++i) {
    if (scn_->drift[i].field != field) continue;
    if (track_edge_[i] != net::Topology::npos && track_edge_[i] != edge) {
      continue;
    }
    s *= track_scale(i, t);
  }
  if (!scn_->snapshots.empty()) {
    const net::TopologyEdge& e = topo_->edge(edge);
    for (const int node : {e.a, e.b}) {
      const auto& snaps = node_snaps_[static_cast<std::size_t>(node)];
      // Last snapshot with time <= t is in force (later entries win ties).
      auto it = std::upper_bound(
          snaps.begin(), snaps.end(), t,
          [](double time, const Snap& snap) { return time < snap.time; });
      if (it == snaps.begin()) continue;
      const Snap& snap = *(it - 1);
      s *= (field == DriftField::PSucc) ? snap.p_scale : snap.f_scale;
    }
  }
  return s;
}

double ScenarioRuntime::effective_p_succ(std::size_t edge, double base,
                                         double t) {
  return std::clamp(base * scale(edge, DriftField::PSucc, t), 1e-12, 1.0);
}

double ScenarioRuntime::effective_f0(std::size_t edge, double base, double t) {
  return std::clamp(base * scale(edge, DriftField::F0, t), 0.25, 1.0);
}

bool ScenarioRuntime::in_intervals(
    const std::vector<std::pair<double, double>>& intervals, double t) const {
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

bool ScenarioRuntime::node_up(int node, double t) const {
  return !in_intervals(node_downs_[static_cast<std::size_t>(node)], t);
}

bool ScenarioRuntime::edge_up(std::size_t edge, double t) const {
  if (in_intervals(edge_downs_[edge], t)) return false;
  if (!failures_.empty() &&
      in_disjoint_intervals(failures_[edge].intervals, t)) {
    return false;
  }
  const net::TopologyEdge& e = topo_->edge(edge);
  return node_up(e.a, t) && node_up(e.b, t);
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
      const double start = fail.sampled_until + exponential(fail.rng, mtbf);
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
