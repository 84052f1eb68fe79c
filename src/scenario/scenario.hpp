/// \file scenario.hpp
/// \brief Fault scenarios: deterministic, seed-derived schedules of link
/// outages applied per Monte-Carlo trial.
///
/// A stationary fabric never changes within or across trials. A Scenario
/// takes physical links down over *simulated* time, in two ways:
///
///  - scheduled link outages: one edge down for a fixed window;
///  - stochastic per-edge failures: an exponential up-time process with a
///    fixed repair window, for outage-rate sweeps.
///
/// A down edge generates no pairs; link quality (p_succ, f0) never changes.
///
/// A Scenario is a *specification*. The concrete per-trial schedule (the
/// stochastic failure times) is derived from the trial seed by
/// scenario::ScenarioRuntime — the same seed always produces the same
/// schedule, independent of thread count or sweep order, so every
/// determinism guarantee of the experiment driver carries over.
///
/// Wiring: set runtime::ArchConfig::scenario (requires a topology; the
/// all-to-all interconnect is available explicitly via
/// net::Topology::all_to_all). A null or empty scenario is bit-identical to
/// the stationary engine. The up state is piecewise constant in time, so
/// the engine changes link state only at scenario boundaries
/// (ScenarioRuntime::next_boundary; docs/ARCHITECTURE.md, "Replay
/// formats"). The engine's fault controller (runtime/faults.hpp) gives the
/// execution semantics: an outage boundary that changes the edge up mask
/// re-plans every logical link over the surviving subgraph, and the
/// generation services pause and resume with their links.

#pragma once

#include <cstdint>
#include <vector>

#include "net/topology.hpp"

namespace dqcsim::scenario {

/// One physical link down for [start, start + duration).
struct LinkOutage {
  int node_a = 0;
  int node_b = 0;
  double start = 0.0;
  double duration = 0.0;
};

/// Stochastic per-edge failure process: every edge independently alternates
/// up-times drawn from Exp(mtbf) with fixed `duration` repair windows.
/// mtbf == 0 disables the process. Failure times derive from the trial seed
/// and the edge index, so trials are reproducible and edges independent.
struct RandomLinkFailures {
  double mtbf = 0.0;      ///< mean up-time between failures (time units)
  double duration = 0.0;  ///< repair window per failure
};

/// A full fault scenario (see file header). Default-constructed ==
/// stationary fabric (ScenarioRuntime then reports every edge up and no
/// schedule boundaries).
struct Scenario {
  std::vector<LinkOutage> link_outages;
  RandomLinkFailures random_failures;

  /// Stochastic events (random failures) past this sim time are not
  /// generated — a safety horizon bounding lazy schedule extension.
  double horizon = 1e9;

  /// Mixed into every scenario-derived stream so scenario draws never
  /// collide with the engine's entanglement-generation stream.
  std::uint64_t salt = 0x5CE7A210FA;

  /// True when no component can ever perturb the fabric.
  bool empty() const noexcept {
    return link_outages.empty() && random_failures.mtbf == 0.0;
  }

  /// Throws ConfigError when any field is out of domain or targets an
  /// edge absent from `topo`. Every outage must recover (finite positive
  /// duration): a permanently dead link could stall a trial whose remote
  /// gates depend on it.
  void validate(const net::Topology& topo) const;
};

}  // namespace dqcsim::scenario
