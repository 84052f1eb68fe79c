/// \file scenario.hpp
/// \brief Fault & drift scenarios: deterministic, seed-derived schedules of
/// fabric perturbations applied per Monte-Carlo trial.
///
/// All sweeps so far assume a stationary fabric: link quality, topology, and
/// noise never change within or across trials. A Scenario perturbs the
/// interconnect over *simulated* time:
///
///  - link-quality drift: per-edge (or fabric-wide) multiplicative scales on
///    p_succ and f0 — piecewise-constant steps or seeded random walks,
///    always clamped back into the field's valid domain;
///  - link and node outages with recovery windows: a down edge generates no
///    pairs, a down node takes all of its incident edges down;
///  - correlated failure bursts: one event disabling a set of edges at once
///    (explicit, or a per-trial seeded random subset);
///  - stochastic per-edge failures: an exponential up-time process with a
///    fixed repair window, for outage-rate sweeps;
///  - per-QPU calibration snapshots: at a given sim time a node's hardware
///    swaps to a different noise profile (p_succ / f0 scales on its
///    incident edges, in force until that node's next snapshot).
///
/// A Scenario is a *specification*. The concrete per-trial schedule (walk
/// steps, burst edge choice, stochastic failure times) is derived from the
/// trial seed by scenario::ScenarioRuntime — the same seed always produces
/// the same schedule, independent of thread count or sweep order, so every
/// determinism guarantee of the experiment driver carries over.
///
/// Wiring: set runtime::ArchConfig::scenario (requires a topology; the
/// all-to-all interconnect is available explicitly via
/// net::Topology::all_to_all). A null scenario is bit-identical to the
/// stationary engine, and so is a scenario whose every scale is exactly
/// 1.0. Every scale is piecewise constant in time, so the engine changes
/// link parameters only at scenario boundaries (ScenarioRuntime::
/// next_boundary; docs/ARCHITECTURE.md, "Replay formats"). The engine's
/// fault controller (runtime/faults.hpp) gives the execution semantics: at
/// each boundary the generation services adopt the new effective link
/// parameters, and an outage that changes the edge up mask re-plans every
/// logical link over the surviving subgraph through net::CongestionPlanner.

#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "net/topology.hpp"

namespace dqcsim::scenario {

/// Which link parameter a drift track scales.
enum class DriftField {
  PSucc,  ///< per-attempt success probability, clamped to (0, 1]
  F0,     ///< fresh-pair fidelity, clamped to [0.25, 1]
};

/// Shape of a drift track's scale-over-time curve.
enum class DriftKind {
  Step,        ///< piecewise-constant scale levels at given times
  RandomWalk,  ///< seeded multiplicative walk on a fixed step grid
};

/// One time-varying multiplicative scale on a link parameter. Scales from
/// multiple tracks targeting the same edge compose by multiplication; the
/// engine clamps the scaled value back into the field's domain.
struct DriftTrack {
  DriftField field = DriftField::PSucc;
  DriftKind kind = DriftKind::Step;
  /// Target physical edge {node_a, node_b}; -1/-1 targets every edge.
  int node_a = -1;
  int node_b = -1;

  // Step: scale levels[i] applies from times[i] on (times strictly
  // increasing, scale 1 before times[0]).
  std::vector<double> times;
  std::vector<double> levels;

  // RandomWalk: at every multiple k * walk_interval (k >= 1) the scale
  // multiplies by (1 + u), u uniform in [-walk_step, +walk_step], clamped
  // to [walk_min, walk_max]. Steps are drawn from a per-trial stream, so the
  // walk differs between trials but is identical for identical seeds.
  double walk_interval = 0.0;
  double walk_step = 0.0;
  double walk_min = 0.5;
  double walk_max = 1.5;
};

/// One physical link down for [start, start + duration).
struct LinkOutage {
  int node_a = 0;
  int node_b = 0;
  double start = 0.0;
  double duration = 0.0;
};

/// One QPU node down for [start, start + duration): all incident edges stop
/// generating. Local gate execution on the node continues — outages model
/// the entanglement fabric (fiber links and communication-qubit hardware),
/// not the compute substrate.
struct NodeOutage {
  int node = 0;
  double start = 0.0;
  double duration = 0.0;
};

/// Correlated failure burst: one event takes a *set* of edges down together
/// for [start, start + duration). Either an explicit edge list, or
/// `random_edges` distinct edges drawn per trial from the scenario stream.
struct FailureBurst {
  double start = 0.0;
  double duration = 0.0;
  std::vector<std::pair<int, int>> edges;  ///< explicit targets (may be empty)
  int random_edges = 0;                    ///< sampled when edges is empty
};

/// Stochastic per-edge failure process: every edge independently alternates
/// up-times drawn from Exp(mtbf) with fixed `duration` repair windows.
/// mtbf == 0 disables the process. Failure times derive from the trial seed
/// and the edge index, so trials are reproducible and edges independent.
struct RandomLinkFailures {
  double mtbf = 0.0;      ///< mean up-time between failures (time units)
  double duration = 0.0;  ///< repair window per failure
};

/// Per-QPU calibration snapshot: from `time` on, the node's incident edges
/// run at the scaled noise profile, until the node's next snapshot.
struct CalibrationSnapshot {
  int node = 0;
  double time = 0.0;
  double p_succ_scale = 1.0;
  double f0_scale = 1.0;
};

/// A full fault & drift scenario (see file header). Default-constructed ==
/// stationary fabric (ScenarioRuntime then reports every edge up at scale 1
/// and no schedule boundaries).
struct Scenario {
  std::vector<DriftTrack> drift;
  std::vector<LinkOutage> link_outages;
  std::vector<NodeOutage> node_outages;
  std::vector<FailureBurst> bursts;
  RandomLinkFailures random_failures;
  std::vector<CalibrationSnapshot> snapshots;

  /// Stochastic events (random failures) past this sim time are not
  /// generated — a safety horizon bounding lazy schedule extension.
  double horizon = 1e9;

  /// Mixed into every scenario-derived stream so scenario draws never
  /// collide with the engine's entanglement-generation stream.
  std::uint64_t salt = 0x5CE7A210FA;

  /// True when no component can ever perturb the fabric.
  bool empty() const noexcept {
    return drift.empty() && link_outages.empty() && node_outages.empty() &&
           bursts.empty() && random_failures.mtbf == 0.0 && snapshots.empty();
  }

  /// Throws ConfigError when any field is out of domain or targets an
  /// edge/node absent from `topo`. Every outage must recover (finite
  /// positive duration): a permanently dead link could stall a trial whose
  /// remote gates depend on it.
  void validate(const net::Topology& topo) const;
};

}  // namespace dqcsim::scenario
