/// \file runtime.hpp
/// \brief Per-trial scenario evaluation: turns a scenario::Scenario
/// specification plus a trial seed into a concrete, queryable schedule.
///
/// One ScenarioRuntime lives inside each reusable runtime::RunContext and is
/// re-armed per trial with begin_trial(). It answers two kinds of queries:
///
///  - *Effective link parameters*: effective_p_succ / effective_f0 apply
///    every matching drift track and calibration snapshot to a base value
///    and clamp the result into the field's domain. Queries are random
///    access in time (the engine evaluates the fidelity of a buffered pair
///    at its deposit instant, which lies in the past at consumption).
///
///  - *Availability*: edge_up / node_up report the outage state.
///
/// next_boundary returns the next instant at which an up state or an
/// effective scale can change: outage flips, step times, snapshot times and
/// random-walk grid points. The engine schedules its boundary events at
/// exactly these times, so between boundaries every edge's state and
/// scales are constant and each generation service runs one segment.
///
/// Stochastic components (random-walk drift, per-edge failure processes,
/// random burst targets) draw from streams derived from
/// (trial seed, scenario salt, component index) — never from the engine's
/// generation stream — so the same seed always yields the same schedule and
/// enabling a scenario cannot perturb the entanglement-generation draws.
/// Failure processes extend lazily as next_boundary advances (trial length
/// is endogenous); the Scenario horizon bounds the extension.
///
/// Storage is reused across trials: a same-scenario re-arm performs only
/// O(active components) bookkeeping and no steady-state allocation beyond
/// the lazily grown walk/failure arrays (whose capacity is retained).

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
  /// Arm the runtime for one trial. `scenario` and `topo` must outlive the
  /// trial (the engine keeps both alive through ArchConfig shared_ptrs).
  /// The scenario must already be validated against `topo`.
  void begin_trial(const Scenario& scenario, const net::Topology& topo,
                   std::uint64_t trial_seed);

  /// `base` scaled by every matching drift track and endpoint calibration
  /// snapshot at time `t`, clamped to (0, 1].
  double effective_p_succ(std::size_t edge, double base, double t);

  /// `base` scaled like effective_p_succ, clamped to [0.25, 1].
  double effective_f0(std::size_t edge, double base, double t);

  /// Outage state at time `t`. Valid for any t already covered by
  /// next_boundary's lazy extension (the engine only queries at or before
  /// the next scheduled boundary). A down endpoint node takes the edge down.
  bool edge_up(std::size_t edge, double t) const;
  bool node_up(int node, double t) const;

  /// Earliest instant strictly after `t` at which any edge/node up state
  /// or any effective scale can change; nullopt when none remains before
  /// the horizon. Lazily extends the stochastic failure processes through
  /// the returned time.
  std::optional<double> next_boundary(double t);

 private:
  /// Index of the random-walk level in force at `t` >= 0.
  static std::size_t walk_level_index(const DriftTrack& track, double t);
  /// Scale contributed by drift track `i` at time `time`.
  double track_scale(std::size_t i, double time);
  /// Product of all scales matching (edge, field) at `time`.
  double scale(std::size_t edge, DriftField field, double t);
  /// Extend edge failure sampling so the first failure starting after `t`
  /// is materialized for every edge (see the comment in the definition).
  void extend_failures(double t);
  bool in_intervals(const std::vector<std::pair<double, double>>& iv,
                    double t) const;
  /// O(log n) membership for sorted, non-overlapping interval lists (the
  /// stochastic failure schedules, which grow with trial length).
  static bool in_disjoint_intervals(
      const std::vector<std::pair<double, double>>& iv, double t);

  struct WalkState {
    Rng rng{0};
    std::vector<double> levels;  ///< levels[k] = scale during grid step k
  };
  struct EdgeFailures {
    Rng rng{0};
    std::vector<std::pair<double, double>> intervals;  ///< sampled, sorted
    double sampled_until = 0.0;  ///< no unsampled failure starts before this
    bool exhausted = false;      ///< process ran past the horizon
  };
  struct Snap {
    double time;
    double p_scale;
    double f_scale;
  };

  const Scenario* scn_ = nullptr;
  const net::Topology* topo_ = nullptr;

  std::vector<std::size_t> track_edge_;  ///< per track; npos = every edge
  std::vector<WalkState> walks_;         ///< parallel to scn_->drift
  std::vector<EdgeFailures> failures_;   ///< per edge (empty when disabled)
  /// Deterministic down intervals (outages + bursts), per edge / per node.
  std::vector<std::vector<std::pair<double, double>>> edge_downs_;
  std::vector<std::vector<std::pair<double, double>>> node_downs_;
  std::vector<std::vector<Snap>> node_snaps_;  ///< per node, time-sorted
  /// Sorted unique deterministic boundaries: outage flips, step and
  /// snapshot times.
  std::vector<double> det_boundaries_;
  std::vector<std::size_t> scratch_indices_;  ///< burst target sampling
};

}  // namespace dqcsim::scenario
