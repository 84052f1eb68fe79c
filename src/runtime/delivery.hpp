/// \file delivery.hpp
/// \brief The engine's delivery seam (internal; not exported through
/// dqcsim.hpp). Entanglement delivery (generation, buffering, swapping)
/// sits behind one Delivery type, chosen once per trial from the config:
/// composed delivery runs one GenerationService per logical link,
/// swap-as-you-go one buffered service per physical edge. The scheduler in
/// engine.cpp asks it to claim a gate's pairs and never branches on the
/// mode. Routing state lives once, in TrialState; scenario decisions live in
/// the FaultController (faults.hpp), observation in the TrialObserver
/// (observer.hpp).

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/stats.hpp"
#include "ent/generation_service.hpp"
#include "net/congestion.hpp"
#include "net/swap.hpp"
#include "runtime/arch_config.hpp"
#include "runtime/metrics.hpp"
#include "runtime/observer.hpp"

namespace dqcsim::runtime::detail {

/// One entanglement link per node pair that carries remote gates (links
/// without traffic are not instantiated), with the route backing it.
struct LogicalLink {
  int node_a = 0;              ///< logical endpoint pair served
  int node_b = 0;
  int hops = 1;                ///< physical edges backing the pair
  double extra_latency = 0.0;  ///< swap-chain delay per consuming gate

  // Live route on a topology (see plan_links and the FaultController's
  // re-plan; a routeless link keeps its last one). Under a scenario the
  // path, p_succ and f0 follow it, while structural parameters
  // (capacities, cycle time) stay frozen at the t=0 composition for the
  // whole trial: endpoint hardware is the binding resource.
  std::vector<std::size_t> route_edges;  ///< physical edges, route order

  /// Make `route` the live path: its edges, hops and swap-chain delay.
  void adopt(const net::Route& route, double swap_latency) {
    route_edges.assign(route.edges.begin(), route.edges.end());
    hops = route.hops();
    extra_latency = static_cast<double>(hops - 1) * swap_latency;
  }
};

/// The path one successful Delivery::claim drew its pairs over.
struct PairClaim {
  int hops = 1;             ///< physical edges on the path
  double swap_delay = 0.0;  ///< swap-chain delay before the gate starts
  bool salvaged = false;    ///< served from stock kept across an outage
};

class Delivery;
class FaultController;

/// Trial-scoped state shared by the scheduler (RunContext::State, which
/// derives from it and answers the two callbacks), the delivery layer and
/// the fault controller, including the one copy of the routing state.
struct TrialState {
  /// Serve link `link`'s queued remote gates from buffered pairs.
  virtual void serve_pending(std::size_t link) = 0;
  /// OnDemand herald of `svc` (link `link`'s service) at `now`: true when a
  /// waiting gate claimed the pair.
  virtual bool on_demand_arrival(std::size_t link, des::SimTime now,
                                 const ent::GenerationService& svc) = 0;

  // --- persistent workspace and current-trial inputs ------------------------
  des::Simulator sim;
  Rng rng{0};
  ArchConfig config;
  DesignKind design = DesignKind::AsyncBuf;
  std::uint64_t trial_seed = 0;
  RunResult result;
  Accumulator pair_age_acc;

  // --- logical links (rebuilt with the setup) and their delivery -----------
  std::vector<LogicalLink> links;
  Delivery* delivery = nullptr;  ///< this trial's; null when no link runs

  // --- routing cache (topology-backed interconnects) ------------------------
  // Rebuilt only when its inputs change, so consecutive same-configuration
  // trials route with zero allocation. Not part of the setup key: routing
  // depends on link parameters (p_succ sweeps), which the setup cache
  // deliberately ignores.

  /// The scalar configuration slice that, together with the (immutable,
  /// pinned) topology, fully determines per-edge parameters, edge costs,
  /// and routes — so a trial's cache-hit test is one memberwise compare.
  struct RouteInputs {
    DesignKind design = DesignKind::AsyncBuf;
    int comm_per_node = 0;
    int buffer_per_node = 0;
    double p_succ = 0.0;
    double epr_cycle = 0.0;
    double swap_buffer = 0.0;
    double f0 = 0.0;
    double kappa = 0.0;
    double cutoff = 0.0;
    int async_subgroups = 0;
    bool consume_freshest = false;
    bool record_trace = true;
    net::SwapParams swap;

    friend bool operator==(const RouteInputs&,
                           const RouteInputs&) = default;
  };

  struct RouteCache {
    /// The topology the cache was built from (null while invalid). Shared
    /// ownership pins its address, so the pointer comparison in plan_links
    /// can never alias a recycled object.
    std::shared_ptr<const net::Topology> topology;
    RouteInputs inputs;
    std::vector<ent::LinkParams> edge_params;  ///< per topology edge
    std::vector<double> edge_costs;
    net::Router router;  ///< unmasked all-pairs routes (t=0 static plans)
  };
  RouteCache route_cache;

  // Route plans, recomputed at t=0 and at outage boundaries; every
  // container is reused across trials so the steady-state loop stays
  // allocation-free.
  net::CongestionPlanner planner;
  std::vector<net::RoutePlan> link_plans;  ///< parallel to links

  // Routing steps (see the definitions).
  void plan_links(TrialObserver& observer);
  void plan_all_routes(const std::vector<char>* mask);
};

/// One entanglement-delivery model (see the file comment). It persists in
/// its RunContext across trials; setup() re-arms it for the current trial.
class Delivery {
 public:
  virtual ~Delivery() = default;
  Delivery(const Delivery&) = delete;  // its services' handlers hold `this`
  Delivery& operator=(const Delivery&) = delete;
  /// t=0 (routes planned): reset, arm and start this trial's services.
  /// Throws ConfigError when a buffered service cannot hold one remote
  /// gate's pairs: that gate could never be served.
  virtual void setup() = 0;
  /// Claim `needed` pairs for link `link`'s head gate now: pop them,
  /// record their ages in pop order, write their fidelities at this
  /// instant to `fidelities` and the path to `out`. False, taking nothing,
  /// while the pairs are not there.
  virtual bool claim(std::size_t link, std::size_t needed, PairClaim& out,
                     std::vector<double>& fidelities) = 0;
  /// Buffered pairs across every link: the adaptive controller's signal.
  virtual std::size_t occupancy() = 0;
  /// Outage re-plan at `t`: link `link` moved to a different live path.
  virtual void on_path_change(std::size_t /*link*/, double /*t*/) {}
  /// Outage re-plan at `t`: every link has adopted its new plan.
  virtual void after_replan(double /*t*/) {}

  /// End of trial at `horizon`: stop every service, then add their
  /// generation accounting (epr_*, links_stalled) to `result`.
  void finish(double horizon, RunResult& result);
  /// The generation services this trial runs.
  std::span<const std::unique_ptr<ent::GenerationService>> services() const {
    return {services_.data(), running_};
  }

  /// Services run per physical edge (traced on the edge tracks), and a
  /// claim fuses one pair per hop at the claiming instant.
  const bool per_edge;

 protected:
  Delivery(TrialState& t, FaultController& faults, TrialObserver& observer,
           bool edges)
      : per_edge(edges), t_(t), faults_(faults), obs_(observer) {}

  /// Run the first `n` services this trial, constructing any missing one
  /// (with placeholder parameters: each is reset before it starts).
  void run_services(std::size_t n) {
    while (services_.size() < n) {
      services_.push_back(std::make_unique<ent::GenerationService>(
          t_.sim, ent::LinkParams{}, t_.rng, ent::ServiceMode::Buffered));
    }
    running_ = n;
  }

  /// One consumed pair's buffer dwell, recorded in pop order.
  void record_pair_age(double age) {
    t_.pair_age_acc.add(age);
    obs_.pair_age(age);
  }

  TrialState& t_;
  FaultController& faults_;
  TrialObserver& obs_;
  std::vector<std::unique_ptr<ent::GenerationService>> services_;
  std::size_t running_ = 0;
};

/// The delivery `t.config` selects, built on first use into `cache` (one
/// slot per delivery model) and kept warm there across trials.
Delivery& select_delivery(TrialState& t, FaultController& faults,
                          TrialObserver& observer,
                          std::array<std::unique_ptr<Delivery>, 2>& cache);

}  // namespace dqcsim::runtime::detail
