/// \file faults.hpp
/// \brief The engine's fault controller (internal; not exported through
/// dqcsim.hpp): every decision a fault scenario drives in a trial
/// (config.scenario; see src/scenario/), in one place.
///
/// Scenario boundaries (outage flips) run as a lazy chain of simulation
/// events, one pending at a time. At a boundary that changes the edge up
/// mask every logical link's route is re-planned over the surviving
/// subgraph (TrialState::plan_all_routes): a pair the mask cuts off is
/// answered from the surviving components and a route whose edges all
/// survive is kept, so only the links left run a search. Then every
/// generation service starts its next segment at its new effective link:
/// between boundaries the services run one constant segment each.

#pragma once

#include <cstddef>
#include <vector>

#include "ent/generation_service.hpp"
#include "runtime/delivery.hpp"
#include "runtime/observer.hpp"
#include "scenario/runtime.hpp"

namespace dqcsim::runtime::detail {

class FaultController {
 public:
  FaultController(TrialState& t, TrialObserver& observer)
      : t_(t), obs_(observer) {}

  /// Arm the trial's scenario, once its links are set up. A genuinely
  /// empty scenario is treated as absent, keeping the stationary fast path;
  /// the schedule is derived from the trial seed (never from the trial's
  /// Rng), so enabling a scenario cannot perturb the generation stream.
  void arm();
  /// True while this trial runs a scenario.
  bool active() const noexcept { return active_; }
  /// Logical link `i` has no live route (always false without a scenario).
  bool link_down(std::size_t i) const noexcept {
    return active_ && down_since_[i] != kUp;
  }

  /// t = 0, delivery set up: apply any outage already in force and start
  /// the lazy boundary chain.
  void start();
  /// End of trial at `makespan`: links still routeless accrue their
  /// downtime up to it, and every open outage closes there.
  void finish(double makespan);

  /// Effective parameters of this trial's service `k` at time `t`: its
  /// physical edge's under per-edge delivery, else its logical link's.
  ent::EffectiveLink service_effective(std::size_t k, double t) {
    return t_.delivery->per_edge ? edge_effective(k, t) : link_effective(k, t);
  }

 private:
  static constexpr double kUp = -1.0;  ///< down_since_ of a live link

  ent::EffectiveLink edge_effective(std::size_t e, double t);
  ent::EffectiveLink link_effective(std::size_t i, double t);
  void boundary(double t);
  void apply_boundary(double t);
  bool update_link_from_plan(std::size_t i, double t);
  void close_link_outage(std::size_t i, double t);

  TrialState& t_;
  TrialObserver& obs_;
  scenario::ScenarioRuntime scen_;
  bool active_ = false;
  std::vector<char> edge_up_;  ///< current up mask, per topology edge
  /// Per logical link: when it lost its route, or kUp while it has one.
  std::vector<double> down_since_;
  std::vector<double> hop_f0_;  ///< scratch for route f0 composition
};

}  // namespace dqcsim::runtime::detail
