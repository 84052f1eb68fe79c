/// \file runtime.hpp
/// \brief Per-trial scenario evaluation: turns a scenario::Scenario
/// specification plus a trial seed into a concrete, queryable schedule.
///
/// One ScenarioRuntime lives inside each reusable runtime::RunContext and is
/// re-armed per trial with begin_trial(). edge_up reports the outage state
/// of an edge; next_boundary returns the next instant at which any edge's
/// up state can flip (the start or end of a scheduled outage or of a
/// sampled failure). The engine schedules its boundary events at exactly
/// these times, so between boundaries every edge's state is constant and
/// each generation service runs one segment.
///
/// The per-edge failure processes draw from streams derived from
/// (trial seed, scenario salt, edge index) — never from the engine's
/// generation stream — so the same seed always yields the same schedule and
/// enabling a scenario cannot perturb the entanglement-generation draws.
/// Failure processes extend lazily as next_boundary advances (trial length
/// is endogenous); the Scenario horizon bounds the extension.
///
/// Storage is reused across trials: a same-scenario re-arm performs only
/// O(edges) bookkeeping and no steady-state allocation beyond the lazily
/// grown failure arrays (whose capacity is retained).

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/topology.hpp"
#include "scenario/scenario.hpp"

namespace dqcsim::scenario {

/// Queryable per-trial realization of a Scenario (see file header).
class ScenarioRuntime {
 public:
  /// Arm the runtime for one trial. `scenario` must outlive the trial (the
  /// engine keeps it alive through an ArchConfig shared_ptr) and must
  /// already be validated against `topo`.
  void begin_trial(const Scenario& scenario, const net::Topology& topo,
                   std::uint64_t trial_seed);

  /// Outage state at time `t`. Valid for any t already covered by
  /// next_boundary's lazy extension (the engine only queries at or before
  /// the next scheduled boundary).
  bool edge_up(std::size_t edge, double t) const;

  /// Earliest instant strictly after `t` at which any edge's up state can
  /// change; nullopt when none remains before the horizon. Lazily extends
  /// the stochastic failure processes through the returned time.
  std::optional<double> next_boundary(double t);

 private:
  /// Extend edge failure sampling so the first failure starting after `t`
  /// is materialized for every edge (see the comment in the definition).
  void extend_failures(double t);
  static bool in_intervals(const std::vector<std::pair<double, double>>& iv,
                           double t);
  /// O(log n) membership for sorted, non-overlapping interval lists (the
  /// stochastic failure schedules, which grow with trial length).
  static bool in_disjoint_intervals(
      const std::vector<std::pair<double, double>>& iv, double t);

  struct EdgeFailures {
    Rng rng{0};
    std::vector<std::pair<double, double>> intervals;  ///< sampled, sorted
    double sampled_until = 0.0;  ///< no unsampled failure starts before this
    bool exhausted = false;      ///< process ran past the horizon
  };

  const Scenario* scn_ = nullptr;

  std::vector<EdgeFailures> failures_;  ///< per edge (empty when disabled)
  /// Scheduled outage intervals, per edge, sorted by start.
  std::vector<std::vector<std::pair<double, double>>> edge_downs_;
  /// Sorted unique outage flips of the scheduled outages.
  std::vector<double> det_boundaries_;
};

}  // namespace dqcsim::scenario
