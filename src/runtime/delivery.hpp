/// \file delivery.hpp
/// \brief The engine's delivery seam (internal; not exported through
/// dqcsim.hpp). Entanglement delivery (generation, buffering, swapping)
/// sits behind one Delivery type, chosen once per trial from the config:
/// composed delivery runs one GenerationService per logical link,
/// swap-as-you-go one buffered service per physical edge. The scheduler in
/// engine.cpp asks it to claim a gate's pairs and never branches on the
/// mode. Routing and scenario state live once, in TrialState.

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
#include "obs/observe.hpp"
#include "obs/trace.hpp"
#include "runtime/arch_config.hpp"
#include "runtime/metrics.hpp"
#include "scenario/runtime.hpp"

namespace dqcsim::runtime::detail {

/// One entanglement link per node pair that carries remote gates (links
/// without traffic are not instantiated), with the route backing it.
struct LogicalLink {
  int node_a = 0;              ///< logical endpoint pair served
  int node_b = 0;
  int hops = 1;                ///< physical edges backing the pair
  double extra_latency = 0.0;  ///< swap-chain delay per consuming gate

  // Live route on a topology (see plan_links / update_link_from_plan).
  // Under a scenario the path, p_succ and f0 follow it, while structural
  // parameters (capacities, cycle time) stay frozen at the t=0 composition
  // for the whole trial: endpoint hardware is the binding resource.
  std::vector<std::size_t> route_edges;  ///< physical edges, route order
  bool route_up = true;                  ///< false while no live route
  des::SimTime down_since = 0.0;         ///< when the route was lost
};

/// The path one successful Delivery::claim drew its pairs over.
struct PairClaim {
  int hops = 1;             ///< physical edges on the path
  double swap_delay = 0.0;  ///< swap-chain delay before the gate starts
  bool salvaged = false;    ///< served from stock kept across an outage
};

class Delivery;

/// Trial-scoped state shared by the scheduler (RunContext::State, which
/// derives from it and answers the two callbacks) and the delivery layer,
/// including the one copy of the routing and scenario state.
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

  // --- observability (config.observe; see src/obs/) -------------------------
  // Every hook below branches on the `observe` pointer and is dormant when
  // it is null: one predictable branch, no clock read, no allocation — the
  // contract behind the observer-off bit-identical + 0-alloc guarantee.
  // Observation never draws from the RNG or schedules an event, so the
  // observer-on results are bit-identical to observer-off too.
  obs::Observe* observe = nullptr;  ///< borrowed from config.observe
  bool obs_trace = false;           ///< this trial is the traced one
  obs::TraceBuffer trace_buf;
  obs::Registry reg;     ///< this worker's accumulation, merged per trial
  obs::Profile profile;  ///< this worker's phase timings
  /// Traced trial only: open outage start per physical edge.
  std::vector<double> edge_down_since;

  /// Registry handles, resolved once per RunContext (registration is the
  /// cold path; recording through a handle is a vector index).
  struct RegHandles {
    bool valid = false;
    obs::Registry::Handle trials = 0;
    obs::Registry::Handle setup_hits = 0;
    obs::Registry::Handle setup_misses = 0;
    obs::Registry::Handle route_hits = 0;
    obs::Registry::Handle route_misses = 0;
    obs::Registry::Handle trace_dropped = 0;
    obs::Registry::Handle max_delivery_gap = 0;
    obs::Registry::Handle makespan_max = 0;
    obs::Registry::Handle pair_age = 0;
    obs::Registry::Handle remote_wait = 0;
    obs::Registry::Handle outage_downtime = 0;
    obs::Registry::Handle route_hops = 0;
    /// The metric table's counter rows, in table order.
    std::array<obs::Registry::Handle, kRegistryCounterCount> metrics{};
  } regh;

  bool obs_metrics() const noexcept {
    return observe != nullptr && observe->metrics;
  }
  obs::Profile* prof() noexcept {
    return observe != nullptr && observe->profile ? &profile : nullptr;
  }
  /// Trace track ids: 0 = engine, then logical links, then physical edges.
  std::uint32_t link_track(std::size_t i) const noexcept {
    return 1 + static_cast<std::uint32_t>(i);
  }
  std::uint32_t edge_track(std::size_t e) const noexcept {
    return static_cast<std::uint32_t>(1 + links.size() + e);
  }
  /// One consumed pair's buffer dwell, recorded in pop order.
  void record_pair_age(double age) noexcept {
    pair_age_acc.add(age);
    if (obs_metrics()) reg.observe(regh.pair_age, age);
  }
  /// A logical link's outage interval [since, t] just closed.
  void obs_outage_over(std::uint32_t track, double since, double t) noexcept {
    if (obs_metrics()) reg.observe(regh.outage_downtime, t - since);
    if (obs_trace) trace_buf.span(obs::Ev::Outage, track, since, t);
  }

  // --- logical links (rebuilt with the setup) and their delivery -----------
  std::vector<LogicalLink> links;
  Delivery* delivery = nullptr;  ///< this trial's; null when no link runs
  /// The generation services this trial runs (none when no link runs).
  std::span<const std::unique_ptr<ent::GenerationService>> services;

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
    bool valid = false;
    /// Shared ownership pins the cached topology's address, so the pointer
    /// comparison in plan_links can never alias a recycled object.
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

  // --- fault-scenario state (config.scenario; see src/scenario/) -----------
  // Scenario boundaries (outage flips and every drift or snapshot change)
  // re-plan routes when the up mask changed and push every generation
  // service its new effective link (link_effective / edge_effective):
  // between boundaries the services run one constant segment each.
  scenario::ScenarioRuntime scen;
  bool scen_active = false;
  std::vector<char> scen_edge_up;   ///< current up mask, per topology edge
  std::vector<double> scen_hop_f0;  ///< scratch for route f0 composition

  // Routing and scenario steps (see the definitions).
  void plan_links();
  void apply_boundary(double t);
  ent::EffectiveLink link_effective(std::size_t i, des::SimTime t);
  ent::EffectiveLink edge_effective(std::size_t e, des::SimTime t);
  void plan_all_routes(const std::vector<char>* mask);
  bool update_link_from_plan(std::size_t i, double t);
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
  /// Scenario boundary at `t`: start every service's next segment.
  virtual void push_boundary(double t) = 0;
  /// Outage re-plan at `t`: link `link` moved to a different live path.
  virtual void on_path_change(std::size_t /*link*/, double /*t*/) {}
  /// Outage re-plan at `t`: every link has adopted its new plan.
  virtual void after_replan(double /*t*/) {}

  /// Services run per physical edge (traced on the edge tracks), and a
  /// claim fuses one pair per hop at the claiming instant.
  const bool per_edge;

 protected:
  Delivery(TrialState& t, bool edges) : per_edge(edges), t_(t) {}

  /// Run the first `n` services this trial, constructing any missing one
  /// (with placeholder parameters: each is reset before it starts).
  void run_services(std::size_t n) {
    while (services_.size() < n) {
      services_.push_back(std::make_unique<ent::GenerationService>(
          t_.sim, ent::LinkParams{}, t_.rng, ent::ServiceMode::Buffered));
    }
    running_ = n;
    t_.services = {services_.data(), n};
  }

  TrialState& t_;
  std::vector<std::unique_ptr<ent::GenerationService>> services_;
  std::size_t running_ = 0;
};

/// The delivery `t.config` selects, built on first use into `cache` (one
/// slot per delivery model) and kept warm there across trials.
Delivery& select_delivery(TrialState& t,
                          std::array<std::unique_ptr<Delivery>, 2>& cache);

}  // namespace dqcsim::runtime::detail
