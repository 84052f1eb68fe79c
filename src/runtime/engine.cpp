#include "runtime/engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "des/simulator.hpp"
#include "ent/generation_service.hpp"
#include "net/congestion.hpp"
#include "net/router.hpp"
#include "net/swap.hpp"
#include "noise/fidelity_ledger.hpp"
#include "noise/purification.hpp"
#include "noise/werner.hpp"
#include "obs/observe.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"
#include "scenario/runtime.hpp"
#include "sched/adaptive_policy.hpp"
#include "sched/remote_gates.hpp"
#include "sched/segmentation.hpp"
#include "sched/variants.hpp"

namespace dqcsim::runtime {

namespace {

/// Cheap content hash guarding the setup cache against a different circuit
/// materializing at a recycled address.
std::uint64_t circuit_fingerprint(const Circuit& c) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(static_cast<std::uint64_t>(c.num_qubits()));
  mix(c.num_gates());
  for (std::size_t i = 0; i < c.num_gates(); ++i) {
    const Gate& g = c.gate(i);
    mix(static_cast<std::uint64_t>(g.kind));
    mix((static_cast<std::uint64_t>(static_cast<std::uint32_t>(g.qubits[0]))
         << 32) |
        static_cast<std::uint32_t>(g.qubits[1]));
    std::uint64_t param_bits;
    std::memcpy(&param_bits, &g.param, sizeof param_bits);
    mix(param_bits);
  }
  return h;
}

bool same_fidelities(const Fidelities& a, const Fidelities& b) {
  return a.one_qubit == b.one_qubit && a.local_cnot == b.local_cnot &&
         a.measurement == b.measurement && a.epr_f0 == b.epr_f0;
}

void validate_inputs(const Circuit& circuit, const std::vector<int>& assignment,
                     const ArchConfig& config, DesignKind design) {
  config.validate();
  if (design != DesignKind::IdealMono) {
    DQCSIM_EXPECTS_MSG(
        assignment.size() == static_cast<std::size_t>(circuit.num_qubits()),
        "partition assignment must cover every qubit");
    for (int node : assignment) {
      DQCSIM_EXPECTS_MSG(node >= 0 && node < config.num_nodes,
                         "node id outside [0, num_nodes)");
    }
  }
}

}  // namespace

std::vector<std::size_t> fusible_1q_chain_next(const Circuit& qc) {
  std::vector<std::size_t> next(qc.num_gates(), kNoFusedNext);
  std::vector<std::size_t> last_1q_on_wire(
      static_cast<std::size_t>(qc.num_qubits()), kNoFusedNext);
  for (std::size_t g = 0; g < qc.num_gates(); ++g) {
    const Gate& gate = qc.gate(g);
    if (gate.arity() == 1) {
      const auto w = static_cast<std::size_t>(gate.q0());
      if (last_1q_on_wire[w] != kNoFusedNext) {
        next[last_1q_on_wire[w]] = g;
      }
      last_1q_on_wire[w] = g;
    } else {
      // A two-qubit gate breaks any chain on both wires.
      last_1q_on_wire[static_cast<std::size_t>(gate.q0())] = kNoFusedNext;
      last_1q_on_wire[static_cast<std::size_t>(gate.q1())] = kNoFusedNext;
    }
  }
  return next;
}

struct RunContext::State {
  static constexpr std::size_t kNone = ~std::size_t{0};
  /// Capacity of the inline pair-birth store: 2 pairs (state teleport)
  /// doubled by purify-on-consume is the structural maximum.
  static constexpr std::size_t kMaxPairsPerGate = 4;

  // --- persistent workspace (reused across trials) --------------------------
  des::Simulator sim;
  Rng rng{0};

  // --- current-trial inputs -------------------------------------------------
  const Circuit* circuit = nullptr;
  ArchConfig config;
  DesignKind design = DesignKind::AsyncBuf;
  std::uint64_t trial_seed = 0;
  const noise::TeleportFidelityModel* teleport_model = nullptr;

  // --- cached setup (rebuilt only when the key changes) ---------------------
  struct SetupKey {
    bool valid = false;
    const Circuit* circuit = nullptr;
    std::uint64_t fingerprint = 0;
    std::vector<int> assignment;
    DesignKind design = DesignKind::AsyncBuf;
    int num_nodes = 0;
    std::size_t effective_segment_size = 0;
    bool fuse_local_gates = false;
    RemoteImpl remote_impl = RemoteImpl::GateTeleport;
    Fidelities fid;
  } key;

  sched::GatePlacement placement;
  std::vector<sched::Segment> segments;
  std::unique_ptr<sched::SegmentVariantTable> variant_table;
  std::optional<sched::AdaptivePolicy> adaptive_policy;
  std::vector<std::size_t> chain_next;  ///< kNoFusedNext-terminated chains
  std::optional<noise::TeleportFidelityModel> owned_model;
  std::optional<noise::StateTeleportCnotModel> state_model;
  bool use_adaptive = false;

  // --- local 1q chain fusion (config.fuse_local_gates) ----------------------
  // Runs of consecutive one-qubit gates on a wire execute as one event with
  // summed latency. Chain members have no observers between them (a 1q
  // gate's only successor is the next gate on its wire), so eliding the
  // intermediate events leaves every completion instant, ledger factor and
  // statistic bit-identical. Active only for non-adaptive designs: the
  // adaptive controller samples buffer occupancy as segments start, and
  // coarsening events would move those sampling instants.
  bool fuse_chains = false;

  // Remote gates waiting for pairs, FIFO by readiness. A gate needs
  // pairs_per_remote_gate() pairs; in the bufferless design they may be
  // collected across heralding instants (held on communication qubits,
  // decaying under the same Werner law).
  struct PendingRemote {
    std::size_t gate = 0;
    des::SimTime ready_at = 0.0;
    std::array<des::SimTime, kMaxPairsPerGate> births{};
    /// Fidelity each pair had at its birth instant. Equals the link's f0 on
    /// a stationary fabric; under a scenario it captures the drifted value,
    /// so consumption-time decay is exact even after drift or a reroute.
    std::array<double, kMaxPairsPerGate> birth_f0{};
    std::uint32_t num_births = 0;
  };

  /// Head-indexed FIFO that recycles its storage once drained, so the
  /// steady-state trial loop never reallocates.
  struct PendingFifo {
    std::vector<PendingRemote> items;
    std::size_t head = 0;

    bool empty() const noexcept { return head == items.size(); }
    PendingRemote& front() noexcept { return items[head]; }
    void push_back(const PendingRemote& req) { items.push_back(req); }
    void pop_front() noexcept {
      ++head;
      if (head == items.size()) {
        clear();
      } else if (head >= 64 && 2 * head >= items.size()) {
        // Reclaim the consumed prefix (trivially-copyable shift, no
        // allocation) so a never-draining queue stays O(live depth),
        // amortized O(1) per pop.
        items.erase(items.begin(),
                    items.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
    }
    void clear() noexcept {
      items.clear();
      head = 0;
    }
  };

  // One entanglement link per node pair that carries remote gates (links
  // without traffic are not instantiated). Services persist across trials
  // and are reset() per trial with that trial's parameters: homogeneous
  // all-to-all without a topology, or the routed end-to-end composition of
  // the pair's physical path with one (see setup_composed_links).
  struct LinkState {
    std::unique_ptr<ent::GenerationService> service;
    PendingFifo pending;
    int node_a = 0;             ///< logical endpoint pair served
    int node_b = 0;
    int hops = 1;               ///< physical edges backing the pair
    double extra_latency = 0.0; ///< swap-chain delay per consuming gate

    // Fault-scenario route state (maintained only while a scenario is
    // active; see apply_scen_boundary). Structural parameters (capacities,
    // cycle time) stay frozen at the t=0 composition for the whole trial —
    // endpoint hardware is the binding resource — while the path, p_succ,
    // and f0 follow the live route.
    std::vector<std::size_t> route_edges;  ///< physical edges, route order
    bool route_up = true;                  ///< false while no live route
    des::SimTime down_since = 0.0;         ///< when the route was lost
  };
  std::vector<LinkState> links;
  std::vector<int> link_of_pair;  // [a * num_nodes + b] -> index or -1

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
    /// comparison in refresh_routing can never alias a recycled object.
    std::shared_ptr<const net::Topology> topology;
    RouteInputs inputs;
    std::vector<ent::LinkParams> edge_params;  ///< per topology edge
    std::vector<double> edge_costs;
    net::Router router;
  };
  RouteCache route_cache;

  // --- congestion / shared-capacity machinery (opt-in ArchConfig knobs;
  // see net/congestion.hpp). Trial-scoped: plans are recomputed at t=0 and
  // at outage boundaries; every container is reused across trials so the
  // steady-state loop stays allocation-free.
  net::CongestionPlanner planner;
  std::vector<net::RoutePlan> link_plans;  ///< parallel to links
  std::vector<int> edge_rank;              ///< next share rank per edge
  std::vector<int> hop_comm_scratch;       ///< per-hop comm share
  std::vector<int> hop_buf_scratch;        ///< per-hop buffer share
  std::vector<double> hop_fid_scratch;     ///< swap-as-you-go hop fidelities
  /// Swap-as-you-go: one buffered generation service per *physical edge*
  /// (every topology edge generates continuously — unrouted edges waste
  /// their successes into a full buffer, which is what idle hardware does).
  std::vector<std::unique_ptr<ent::GenerationService>> edge_services;
  /// Links whose current plan crosses each edge, in link creation order:
  /// the deterministic arbitration order for pairs deposited on that edge.
  std::vector<std::vector<int>> links_on_edge;
  bool use_swap_go = false;      ///< this trial runs per-edge services
  bool use_shared_caps = false;  ///< composed links get capacity shares
  bool use_congestion = false;   ///< routes picked by load-scaled costs

  bool contended() const noexcept {
    return use_swap_go || use_shared_caps || use_congestion;
  }

  // --- fault-scenario state (config.scenario; see src/scenario/) -----------
  // Scenario boundaries (outage flips and every drift or snapshot change)
  // are engine-pushed events, scheduled lazily, one at a time, from the
  // ScenarioRuntime's boundary stream. Each one re-plans routes when the
  // up mask changed and pushes every generation service its new effective
  // link (link_effective / edge_effective): between boundaries the
  // services run one constant segment each.
  scenario::ScenarioRuntime scen;
  bool scen_active = false;
  std::uint64_t scen_epoch = 0;    ///< invalidates stale boundary events
  std::vector<char> scen_edge_up;  ///< current up mask, per topology edge
  bool scen_any_down = false;      ///< any entry of scen_edge_up is 0
  net::Router scen_router;         ///< masked router while any edge is down
  std::vector<double> scen_hop_f0; ///< scratch for route f0 composition

  // --- adaptive scheduling state (per trial) --------------------------------
  std::size_t next_segment = 0;  ///< index of the next segment to admit
  bool admitting = false;        ///< re-entrancy guard for pump_segments
  std::vector<std::size_t> segment_of_gate;   // valid once admitted
  std::vector<std::size_t> unstarted_in_segment;

  // --- per-gate scheduling state (per trial) --------------------------------
  /// Flat successor store: a gate has at most one successor per wire, so
  /// two slots cover every case without per-gate vectors.
  struct GateSuccs {
    std::size_t s[2];
    std::uint8_t n = 0;
  };
  std::vector<std::size_t> last_on_wire;      // per qubit, kNone if none
  std::vector<std::size_t> remaining_preds;
  std::vector<GateSuccs> succs_of;
  std::vector<char> admitted, started, completed_flag;
  std::size_t num_completed = 0;
  double makespan = 0.0;

  // --- reusable scratch (hoisted per-event temporaries) ---------------------
  std::vector<double> scratch_raw;      ///< decayed pair fidelities
  std::vector<double> scratch_logical;  ///< post-purification fidelities
  std::vector<noise::PurificationOutcome> scratch_outcomes;
  std::vector<double> scratch_uniforms;

  // --- metrics (per trial) --------------------------------------------------
  noise::FidelityLedger ledger;
  RunResult result;
  Accumulator pair_age_acc;
  Accumulator remote_wait_acc;
  Accumulator route_hops_acc;

  // --- observability (config.observe; see src/obs/) -------------------------
  // Every hook below branches on the `observe` pointer and is dormant when
  // it is null: one predictable branch, no clock read, no allocation — the
  // contract behind the observer-off bit-identical + 0-alloc guarantee.
  // Observation never draws from the RNG or schedules an event, so the
  // observer-on results are bit-identical to observer-off too.
  obs::Observe* observe = nullptr;  ///< borrowed from config.observe
  bool obs_trace = false;           ///< this trial is the traced one
  obs::TraceBuffer trace_buf;
  obs::TraceSink trace_sink;
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
  /// Tell generation service `index` (a link's, or an edge's under
  /// swap-as-you-go) whether this trial reads its max_delivery_gap — only
  /// the link_stalled watchdog and the registry gauge do — and seed its
  /// side stream from the trial seed, never from `rng`.
  void arm_gap_tracking(ent::GenerationService& svc, std::size_t index) {
    constexpr std::uint64_t kTagGenSide = 0x47454E53ULL;  // "GENS"
    svc.set_gap_tracking(config.stall_windows > 0 || obs_metrics(),
                         Rng::derive_seed(trial_seed, 0, kTagGenSide, index));
  }
  obs::Profile* prof() noexcept {
    return observe != nullptr && observe->profile ? &profile : nullptr;
  }
  /// Trace track ids: 0 = engine, then logical links, then physical edges.
  std::uint32_t link_track(const LinkState& link) const noexcept {
    return 1 + static_cast<std::uint32_t>(&link - links.data());
  }
  std::uint32_t edge_track(std::size_t e) const noexcept {
    return static_cast<std::uint32_t>(1 + links.size() + e);
  }

  void resolve_reg_handles() {
    regh.trials = reg.counter("trials");
    // The four *_cache_* counters measure per-worker work done: every
    // RunContext misses its workspace/route caches once, so their totals
    // scale with the worker count. They sit outside the bit-identical
    // thread-count guarantee, which covers all trial-scoped metrics
    // (docs/ARCHITECTURE.md "Observability").
    regh.setup_hits = reg.counter("setup_cache_hits");
    regh.setup_misses = reg.counter("setup_cache_misses");
    regh.route_hits = reg.counter("route_cache_hits");
    regh.route_misses = reg.counter("route_cache_misses");
    // Only the names are read here; finish_observation adds the values.
    std::size_t k = 0;
    for_each_registry_counter(result, [&](const char* name, std::uint64_t) {
      regh.metrics[k++] = reg.counter(name);
    });
    regh.trace_dropped = reg.counter("trace_dropped_events");
    regh.max_delivery_gap = reg.gauge("max_delivery_gap");
    regh.makespan_max = reg.gauge("makespan_max");
    regh.pair_age = reg.log_histogram("pair_age");
    regh.remote_wait = reg.log_histogram("remote_wait");
    regh.outage_downtime = reg.log_histogram("outage_downtime");
    regh.route_hops = reg.fixed_histogram("route_hops", 0.0, 64.0, 64);
    regh.valid = true;
  }

  /// One consumed-pair buffer-dwell sample.
  void obs_pair_age(double age) noexcept {
    if (obs_metrics()) reg.observe(regh.pair_age, age);
  }

  /// One served remote gate: wait/hops samples plus, on the traced trial,
  /// the wait span and the execution span on the link's track.
  void obs_remote_served(const LinkState& link, double ready_at, double hops,
                         double exec_latency) noexcept {
    if (observe == nullptr) return;
    if (observe->metrics) {
      reg.observe(regh.remote_wait, sim.now() - ready_at);
      reg.observe(regh.route_hops, hops);
    }
    if (obs_trace) {
      const std::uint32_t track = link_track(link);
      trace_buf.span(obs::Ev::RemoteWait, track, ready_at, sim.now());
      trace_buf.span(obs::Ev::RemoteExec, track, sim.now(),
                     sim.now() + exec_latency);
    }
  }

  /// A logical link's outage interval [since, t] just closed.
  void obs_outage_over(std::uint32_t track, double since, double t) noexcept {
    if (obs_metrics()) reg.observe(regh.outage_downtime, t - since);
    if (obs_trace) trace_buf.span(obs::Ev::Outage, track, since, t);
  }

  /// End-of-trial observation: close outage intervals still open at the
  /// makespan, fold the trial's result counters into the registry, export
  /// the traced trial, and merge this worker's accumulation into the
  /// shared collector (then reset it — registrations and capacity stay).
  void finish_observation() {
    if (scen_active) {
      for (const auto& link : links) {
        if (!link.route_up) {
          obs_outage_over(link_track(link), link.down_since,
                          std::max(link.down_since, makespan));
        }
      }
      if (obs_trace) {
        for (std::size_t e = 0; e < scen_edge_up.size(); ++e) {
          if (!scen_edge_up[e]) {
            trace_buf.span(obs::Ev::Outage, edge_track(e),
                           edge_down_since[e],
                           std::max(edge_down_since[e], makespan));
          }
        }
      }
    }
    if (obs_trace) {
      trace_buf.span(obs::Ev::Trial, 0, 0.0, makespan);
    }
    if (observe->metrics) {
      std::size_t k = 0;
      for_each_registry_counter(result, [&](const char*, std::uint64_t v) {
        reg.add(regh.metrics[k++], v);
      });
      if (obs_trace) reg.add(regh.trace_dropped, trace_buf.dropped());
      reg.gauge_max(regh.makespan_max, makespan);
      for_each_running_service([&](const ent::GenerationService& svc) {
        reg.gauge_max(regh.max_delivery_gap, svc.max_delivery_gap(makespan));
      });
      observe->collector.merge_registry(reg);
      reg.reset_values();
    }
    if (observe->profile) {
      observe->collector.merge_profile(profile);
      profile.reset();
    }
    if (obs_trace) {
      trace_sink.clear();
      trace_sink.set_track_name(0, "engine");
      for (const auto& link : links) {
        trace_sink.set_track_name(link_track(link),
                                  "link " + std::to_string(link.node_a) +
                                      "-" + std::to_string(link.node_b));
      }
      if (config.topology != nullptr && (scen_active || use_swap_go)) {
        for (std::size_t e = 0; e < config.topology->num_edges(); ++e) {
          const net::TopologyEdge& edge = config.topology->edge(e);
          trace_sink.set_track_name(edge_track(e),
                                    "edge " + std::to_string(edge.a) + "-" +
                                        std::to_string(edge.b));
        }
      }
      if (!observe->trace_path.empty()) {
        trace_sink.write_file(trace_buf, observe->trace_path,
                              observe->trace_us_per_unit);
      }
      observe->collector.set_trace_json(
          trace_sink.to_json(trace_buf, observe->trace_us_per_unit).dump(0));
    }
  }

  // --- setup / reuse --------------------------------------------------------

  /// Setup-key equality for everything except circuit identity (which the
  /// caller resolves via pointer or fingerprint).
  bool setup_fields_match(const std::vector<int>& assignment,
                          const ArchConfig& cfg, DesignKind d) const {
    return key.valid && key.design == d && key.num_nodes == cfg.num_nodes &&
           key.effective_segment_size == cfg.effective_segment_size() &&
           key.fuse_local_gates == cfg.fuse_local_gates &&
           key.remote_impl == cfg.remote_impl &&
           same_fidelities(key.fid, cfg.fid) && key.assignment == assignment;
  }

  /// Recompute every circuit/assignment/design-derived artifact. Called
  /// only when the setup key changes; consecutive trials of one sweep cell
  /// reuse everything built here.
  void rebuild_setup(const Circuit& c, const std::vector<int>& assignment,
                     const ArchConfig& cfg, DesignKind d,
                     std::uint64_t fingerprint) {
    key.valid = false;
    owned_model.reset();
    state_model.reset();

    if (d != DesignKind::IdealMono) {
      sched::classify_gates(c, assignment, placement);
    } else {
      placement.is_remote.assign(c.num_gates(), 0);
      placement.num_remote_2q = 0;
      placement.num_local_2q = 0;
      placement.num_1q = 0;
      placement.num_measure = 0;
    }

    const bool needs_link =
        d != DesignKind::IdealMono && placement.num_remote_2q > 0;
    use_adaptive = design_uses_adaptive(d) && needs_link;
    fuse_chains = !use_adaptive && cfg.fuse_local_gates;
    if (fuse_chains) {
      chain_next = fusible_1q_chain_next(c);
    } else {
      chain_next.clear();
    }

    if (use_adaptive) {
      segments = sched::segment_by_remote_gates(
          placement, cfg.effective_segment_size());
      variant_table = std::make_unique<sched::SegmentVariantTable>(
          c, placement, segments);
      adaptive_policy.emplace(cfg.effective_segment_size());
    } else {
      segments.clear();
      variant_table.reset();
      adaptive_policy.reset();
    }

    // Link topology: one generation service per node pair with remote
    // traffic, instantiated in first-traffic order (the order events are
    // later scheduled in, which the FIFO tie-break observes).
    links.clear();
    link_of_pair.clear();
    if (needs_link) {
      const auto n = static_cast<std::size_t>(cfg.num_nodes);
      link_of_pair.assign(n * n, -1);
      const auto mode = design_uses_buffer(d) ? ent::ServiceMode::Buffered
                                              : ent::ServiceMode::OnDemand;
      for (std::size_t g = 0; g < c.num_gates(); ++g) {
        if (!placement.is_remote[g]) continue;
        const Gate& gate = c.gate(g);
        const auto a = static_cast<std::size_t>(
            assignment[static_cast<std::size_t>(gate.q0())]);
        const auto b = static_cast<std::size_t>(
            assignment[static_cast<std::size_t>(gate.q1())]);
        if (link_of_pair[a * n + b] >= 0) continue;
        const int idx = static_cast<int>(links.size());
        link_of_pair[a * n + b] = idx;
        link_of_pair[b * n + a] = idx;
        // Construct with placeholder defaults: do_run resets every service
        // with the trial's actual (possibly routed) parameters before it
        // starts, so nothing behavioral is derived from these.
        links.push_back(LinkState{
            std::make_unique<ent::GenerationService>(sim, ent::LinkParams{},
                                                     rng, mode),
            {},
            static_cast<int>(a),
            static_cast<int>(b),
            1,
            0.0,
            {}});
      }
    }

    key.circuit = &c;
    key.fingerprint = fingerprint;
    key.assignment = assignment;
    key.design = d;
    key.num_nodes = cfg.num_nodes;
    key.effective_segment_size = cfg.effective_segment_size();
    key.fuse_local_gates = cfg.fuse_local_gates;
    key.remote_impl = cfg.remote_impl;
    key.fid = cfg.fid;
    key.valid = true;
  }

  /// Point the workspace at one trial's inputs: reseed, rewind the
  /// simulator, and re-zero all per-trial state. Reuses every buffer.
  void prepare(const Circuit& c, const std::vector<int>& assignment,
               const ArchConfig& cfg, DesignKind d, std::uint64_t seed,
               const noise::TeleportFidelityModel* model) {
    validate_inputs(c, assignment, cfg, d);
    DQCSIM_ENSURES(static_cast<std::size_t>(cfg.pairs_per_remote_gate()) <=
                   kMaxPairsPerGate);

    circuit = &c;
    config = cfg;
    design = d;
    trial_seed = seed;
    rng = Rng(seed);
    sim.reset();

    // Arm observability for this trial (config.observe; see src/obs/). The
    // traced trial is selected by its per-run seed, so the choice — and the
    // exported trace — is thread-count independent. Its ring is (re)sized
    // here, outside the steady-state path: non-traced trials never touch
    // the buffer.
    observe = config.observe.get();
    obs_trace = observe != nullptr && observe->trace_seed == seed;
    if (obs_trace) trace_buf.reset(observe->trace_capacity);
    if (obs_metrics()) {
      if (!regh.valid) resolve_reg_handles();
      reg.add(regh.trials);
    }

    // Arm the fault scenario for this trial. A genuinely empty scenario is
    // treated as absent, keeping the stationary fast path; the schedule is
    // derived from the trial seed (never from `rng`), so enabling a
    // scenario cannot perturb the generation stream's draws.
    ++scen_epoch;
    scen_active = config.scenario != nullptr && !config.scenario->empty();
    if (scen_active) {
      scen.begin_trial(*config.scenario, *config.topology, seed);
      scen_edge_up.assign(config.topology->num_edges(), 1);
      scen_any_down = false;
      if (obs_trace) {
        edge_down_since.assign(config.topology->num_edges(), 0.0);
      }
    }

    // Cache-hit resolution: the same Circuit object hits on pointer
    // identity alone, keeping the per-trial cost O(1) (a circuit must not
    // be mutated in place between execute() calls; release_inputs() forgets
    // the address between batches). A *different* address — including a
    // new circuit recycled at the old address — hits only if its content
    // fingerprint matches the cached one; the fingerprint covers gate
    // count and width, so a shape change always rebuilds.
    bool setup_hit = false;
    if (setup_fields_match(assignment, cfg, d)) {
      if (key.circuit == &c) {
        setup_hit = true;
      } else if (circuit_fingerprint(c) == key.fingerprint) {
        setup_hit = true;
        key.circuit = &c;
      }
    }
    if (obs_metrics()) {
      reg.add(setup_hit ? regh.setup_hits : regh.setup_misses);
    }
    if (!setup_hit) {
      OBS_SCOPE(prof(), obs::Phase::Setup);
      rebuild_setup(c, assignment, cfg, d, circuit_fingerprint(c));
    }

    noise::TeleportNoiseParams tele;
    tele.local_2q_fidelity = config.fid.local_cnot;
    tele.local_1q_fidelity = config.fid.one_qubit;
    tele.readout_fidelity = config.fid.measurement;
    teleport_model = nullptr;
    if (config.remote_impl == RemoteImpl::GateTeleport) {
      if (model != nullptr) {
        teleport_model = model;
      } else if (placement.num_remote_2q > 0) {
        if (!owned_model) owned_model.emplace(tele);
        teleport_model = &*owned_model;
      }
    } else if (placement.num_remote_2q > 0) {
      if (!state_model) state_model.emplace(tele);
    }

    const std::size_t n = c.num_gates();
    last_on_wire.assign(static_cast<std::size_t>(c.num_qubits()), kNone);
    remaining_preds.assign(n, 0);
    succs_of.assign(n, GateSuccs{});
    admitted.assign(n, 0);
    started.assign(n, 0);
    completed_flag.assign(n, 0);
    segment_of_gate.assign(n, 0);
    unstarted_in_segment.assign(segments.size(), 0);
    next_segment = 0;
    admitting = false;
    num_completed = 0;
    makespan = 0.0;
    for (auto& link : links) link.pending.clear();
    use_swap_go = false;
    use_shared_caps = false;
    use_congestion = false;

    ledger = noise::FidelityLedger{};
    result = RunResult{};
    pair_age_acc = Accumulator{};
    remote_wait_acc = Accumulator{};
    route_hops_acc = Accumulator{};
  }

  /// Bring the routing cache up to date with the current trial's topology
  /// and link parameters. A cache hit (consecutive trials of one sweep
  /// cell) is one scalar compare and performs no allocation; a miss
  /// re-derives per-edge parameters, edge costs and all-pairs routes.
  void refresh_routing() {
    RouteInputs inputs;
    inputs.design = design;
    inputs.comm_per_node = config.comm_per_node;
    inputs.buffer_per_node = config.buffer_per_node;
    inputs.p_succ = config.p_succ;
    inputs.epr_cycle = config.lat.epr_cycle;
    inputs.swap_buffer = config.lat.swap_buffer;
    inputs.f0 = config.fid.epr_f0;
    inputs.kappa = config.kappa;
    inputs.cutoff = config.buffer_cutoff;
    inputs.async_subgroups = config.async_subgroups;
    inputs.consume_freshest = config.consume_freshest;
    inputs.record_trace = config.record_arrival_trace;
    inputs.swap = config.swap_params();
    if (route_cache.valid && route_cache.topology == config.topology &&
        route_cache.inputs == inputs) {
      if (obs_metrics()) reg.add(regh.route_hits);
      return;
    }
    if (obs_metrics()) reg.add(regh.route_misses);
    OBS_SCOPE(prof(), obs::Phase::Routing);
    const net::Topology& topo = *config.topology;
    const std::size_t num_edges = topo.num_edges();
    route_cache.valid = false;
    route_cache.topology = config.topology;
    route_cache.inputs = inputs;
    route_cache.edge_params.resize(num_edges);
    route_cache.edge_costs.resize(num_edges);
    for (std::size_t e = 0; e < num_edges; ++e) {
      const net::TopologyEdge& edge = topo.edge(e);
      const ent::LinkParams p =
          config.link_params(design, edge.a, edge.b);
      route_cache.edge_params[e] = p;
      // Expected time per delivered pair: attempt window over the link's
      // aggregate success rate.
      route_cache.edge_costs[e] =
          p.cycle_time / (p.p_succ * static_cast<double>(p.num_comm_pairs));
    }
    route_cache.router = net::Router(topo, route_cache.edge_costs);
    route_cache.valid = true;
  }

  // --- fault scenario (drift, outages, re-routing) --------------------------

  /// Effective end-to-end parameters of a logical link at time `t`: per-hop
  /// base values from the route cache, scaled by the scenario and composed
  /// exactly like net::compose_route (same product order for p_succ, same
  /// weight fold via swap_composed_fidelity for f0), so unit scales
  /// reproduce the stationary composition bit-for-bit.
  ent::EffectiveLink link_effective(const LinkState& link, des::SimTime t) {
    ent::EffectiveLink eff;
    eff.up = link.route_up;
    double p = 1.0;
    scen_hop_f0.clear();
    for (const std::size_t e : link.route_edges) {
      if (!scen.edge_up(e, t)) eff.up = false;
      const ent::LinkParams& ep = route_cache.edge_params[e];
      p *= scen.effective_p_succ(e, ep.p_succ, t);
      scen_hop_f0.push_back(scen.effective_f0(e, ep.f0, t));
    }
    eff.p_succ = p;
    eff.f0 = net::swap_composed_fidelity(
        scen_hop_f0.data(), scen_hop_f0.size(),
        route_cache.inputs.swap.bsm_fidelity);
    return eff;
  }

  /// Effective parameters of physical edge `e` at time `t` (the
  /// swap-as-you-go per-edge services).
  ent::EffectiveLink edge_effective(std::size_t e, des::SimTime t) {
    const ent::LinkParams& ep = route_cache.edge_params[e];
    return {scen.effective_p_succ(e, ep.p_succ, t),
            scen.effective_f0(e, ep.f0, t), scen.edge_up(e, t)};
  }

  /// Scenario boundary at `t`: re-route when the up mask changed, then
  /// start every generation service's next segment. A service whose
  /// effective link did not change ignores the push.
  void apply_scen_boundary(double t) {
    reroute_at_boundary(t);
    if (use_swap_go) {
      for (std::size_t e = 0; e < edge_services.size(); ++e) {
        edge_services[e]->set_effective(edge_effective(e, t));
      }
    } else {
      for (LinkState& link : links) {
        link.service->set_effective(link_effective(link, t));
      }
    }
  }

  /// Recompute the edge up/down mask at boundary time `t` and re-route
  /// every logical link whose state it affects. Spurious boundaries
  /// (overlapping outage windows, drift-only boundaries) change nothing
  /// and return early. Rebuilds the masked router when edges are down — an
  /// allocation, but outage boundaries are rare relative to simulation
  /// events, so the steady-state trial loop stays allocation-free.
  void reroute_at_boundary(double t) {
    bool changed = false;
    bool any_down = false;
    for (std::size_t e = 0; e < scen_edge_up.size(); ++e) {
      const char up = scen.edge_up(e, t) ? 1 : 0;
      if (up != scen_edge_up[e]) {
        changed = true;
        // Traced trial: physical-edge outage intervals as spans on the
        // edge's own track (logical-link outages live on the link tracks).
        if (obs_trace) {
          if (up) {
            trace_buf.span(obs::Ev::Outage, edge_track(e), edge_down_since[e],
                           t);
          } else {
            edge_down_since[e] = t;
          }
        }
      }
      scen_edge_up[e] = up;
      if (!up) any_down = true;
    }
    if (!changed) return;
    scen_any_down = any_down;
    if (any_down && !use_congestion) {
      scen_router =
          net::Router(*config.topology, route_cache.edge_costs, scen_edge_up);
    }
    // Re-plan every route over the surviving subgraph — with congestion
    // routing the detours contend again (load-scaled costs), otherwise the
    // masked static routes are adopted.
    plan_all_routes(&scen_edge_up);
    bool any_lost = false;
    for (std::size_t i = 0; i < links.size(); ++i) {
      const bool was_up = links[i].route_up;
      update_link_from_plan(i, t);
      if (was_up && !links[i].route_up) any_lost = true;
    }
    if (any_lost) ++result.outage_events;
    if (use_swap_go) {
      rebuild_links_on_edge();
      if (config.salvage_pairs) {
        // A down node loses its stored halves: flush the buffers of its
        // incident edges before anyone salvages through them.
        for (std::size_t e = 0; e < edge_services.size(); ++e) {
          const net::TopologyEdge& edge = config.topology->edge(e);
          if (!scen.node_up(edge.a, t) || !scen.node_up(edge.b, t)) {
            result.pairs_discarded += edge_services[e]->flush_buffer(t);
          }
        }
      }
      // Deposits wasted against full buffers do not re-fire the arrival
      // handler, so a link re-planned onto already-full edges would
      // otherwise stall until some other deposit lands: serve everyone
      // once against the new plans. With salvage_pairs this same pass is
      // the salvage drain — links whose routes were just severed consume
      // their pre-outage stock here, in creation order.
      for (std::size_t i = 0; i < links.size(); ++i) {
        try_serve_pending_swap(i);
      }
    }
  }

  /// Schedule the next scenario boundary as a simulation event (lazily, one
  /// at a time: the stochastic schedule is unbounded, and sim.reset()
  /// between trials discards whatever was left pending).
  void schedule_next_scen_boundary(double t) {
    const std::optional<double> next = scen.next_boundary(t);
    if (!next) return;
    const double when = *next;
    sim.schedule_at(when, [this, when, epoch = scen_epoch] {
      if (epoch != scen_epoch) return;
      apply_scen_boundary(when);
      schedule_next_scen_boundary(when);
    });
  }

  // --- congestion-aware planning & swap-as-you-go (opt-in modes) ------------

  /// (Re)assign every logical link's physical path, in link creation order.
  /// With congestion-aware routing each link is routed over load-scaled
  /// costs (alpha = 1: earlier traffic raises the cost later traffic sees)
  /// and, under swap-as-you-go, cost-tied disjoint paths split the link's
  /// traffic; otherwise the static all-pairs route is adopted and only the
  /// load accounting runs (capacity shares are load-derived even under
  /// static routes). `mask` selects the surviving subgraph during an
  /// outage; null is the full fabric at t=0.
  void plan_all_routes(const std::vector<char>* mask) {
    planner.begin(*config.topology, route_cache.edge_costs, /*alpha=*/1.0,
                  mask);
    link_plans.resize(links.size());
    for (std::size_t i = 0; i < links.size(); ++i) {
      net::RoutePlan& plan = link_plans[i];
      if (use_congestion) {
        planner.plan(links[i].node_a, links[i].node_b, use_swap_go, plan);
        continue;
      }
      const net::Router& router =
          (mask != nullptr && scen_any_down) ? scen_router
                                             : route_cache.router;
      plan.split = false;
      plan.has_route = router.has_route(links[i].node_a, links[i].node_b);
      if (!plan.has_route) continue;
      const net::Route& r = router.route(links[i].node_a, links[i].node_b);
      plan.primary.cost = r.cost;
      plan.primary.nodes.assign(r.nodes.begin(), r.nodes.end());
      plan.primary.edges.assign(r.edges.begin(), r.edges.end());
      planner.charge(plan.primary);
    }
  }

  /// Contention figures of the t=0 placement (RunResult accounting).
  void record_plan_metrics() {
    for (const int load : planner.edge_load()) {
      if (load > 1) ++result.edges_shared;
      result.max_edge_load =
          std::max(result.max_edge_load, static_cast<std::size_t>(load));
    }
    for (const net::RoutePlan& plan : link_plans) {
      if (plan.split) ++result.route_splits;
    }
  }

  /// Per-hop capacity grants of one link along `route`, written to
  /// hop_comm_scratch / hop_buf_scratch: with share_edge_capacity, the
  /// link's share of each edge by its creation rank there (advancing
  /// edge_rank — callers zero it before a pass), else the full budget.
  void grant_hop_shares(const net::Route& route) {
    const std::size_t hops = route.edges.size();
    hop_comm_scratch.resize(hops);
    hop_buf_scratch.resize(hops);
    for (std::size_t k = 0; k < hops; ++k) {
      const std::size_t e = route.edges[k];
      const ent::LinkParams& ep = route_cache.edge_params[e];
      hop_comm_scratch[k] = ep.num_comm_pairs;
      hop_buf_scratch[k] = ep.buffer_capacity;
      if (use_shared_caps) {
        const int load = planner.edge_load()[e];
        const int rank = edge_rank[e]++;
        hop_comm_scratch[k] =
            net::capacity_share(ep.num_comm_pairs, load, rank);
        hop_buf_scratch[k] =
            net::capacity_share(ep.buffer_capacity, load, rank);
      }
    }
  }

  /// Per-link (composed) delivery setup, every mode but swap-as-you-go.
  /// Without a topology each link gets the homogeneous all-to-all
  /// parameters. With one, the link's planned route (static or
  /// congestion-selected) is composed hop by hop from the hop grants
  /// above, frozen at t=0 like the rest of the structural composition.
  void setup_composed_links(ent::ServiceMode mode) {
    const bool routed = config.topology != nullptr;
    net::RoutedLink flat;
    if (routed) {
      edge_rank.assign(config.topology->num_edges(), 0);
    } else {
      flat.params = config.link_params(design);
    }
    for (std::size_t i = 0; i < links.size(); ++i) {
      LinkState& link = links[i];
      LinkState* link_ptr = &link;
      const net::Route* route = routed ? &link_plans[i].primary : nullptr;
      net::RoutedLink rl = flat;
      if (routed) {
        grant_hop_shares(*route);
        rl = net::compose_route_shared(
            *route, route_cache.edge_params, route_cache.inputs.swap,
            hop_comm_scratch.data(), hop_buf_scratch.data());
      }
      link.service->reset(rl.params, mode);
      arm_gap_tracking(*link.service, i);
      if (obs_trace) {
        link.service->set_trial_trace(&trace_buf, link_track(link));
      }
      link.hops = rl.hops;
      link.extra_latency = rl.extra_latency;
      if (scen_active) {  // a scenario implies a topology
        link.route_edges.assign(route->edges.begin(), route->edges.end());
        link.route_up = true;
        link.down_since = 0.0;
        link.service->set_effective(link_effective(link, sim.now()));
      }
      if (mode == ent::ServiceMode::Buffered) {
        link.service->set_arrival_handler([this, link_ptr](des::SimTime) {
          try_serve_pending(*link_ptr);
          return true;
        });
      } else {
        link.service->set_arrival_handler(
            [this, link_ptr](des::SimTime now) {
              return on_demand_arrival(*link_ptr, now);
            });
      }
      if (design_uses_prefill(design)) link.service->pre_fill_buffer();
      link.service->start();
    }
  }

  /// Deterministic arbitration index: which links a deposit on each edge
  /// may serve, in link creation order. Rebuilt whenever plans change.
  void rebuild_links_on_edge() {
    links_on_edge.resize(config.topology->num_edges());
    for (auto& v : links_on_edge) v.clear();
    for (std::size_t i = 0; i < links.size(); ++i) {
      const net::RoutePlan& plan = link_plans[i];
      if (!plan.has_route) continue;
      for (const std::size_t e : plan.primary.edges) {
        links_on_edge[e].push_back(static_cast<int>(i));
      }
      if (plan.split) {
        for (const std::size_t e : plan.alternate.edges) {
          links_on_edge[e].push_back(static_cast<int>(i));
        }
      }
    }
  }

  /// Swap-as-you-go setup: per-link route state from the plan, then one
  /// buffered generation service per physical edge with the edge's full
  /// budget (sharing is dynamic — routes drain a common buffer).
  void setup_edge_services() {
    const std::size_t num_edges = config.topology->num_edges();
    if (edge_services.size() != num_edges) {
      edge_services.clear();
      edge_services.reserve(num_edges);
      for (std::size_t e = 0; e < num_edges; ++e) {
        edge_services.push_back(std::make_unique<ent::GenerationService>(
            sim, ent::LinkParams{}, rng, ent::ServiceMode::Buffered));
      }
    }
    for (std::size_t i = 0; i < links.size(); ++i) {
      LinkState& link = links[i];
      const net::RoutePlan& plan = link_plans[i];
      link.hops = plan.has_route ? plan.primary.hops() : 1;
      link.extra_latency = static_cast<double>(link.hops - 1) *
                           route_cache.inputs.swap.latency;
      link.route_edges.assign(plan.primary.edges.begin(),
                              plan.primary.edges.end());
      link.route_up = plan.has_route;
      link.down_since = 0.0;
    }
    rebuild_links_on_edge();
    for (std::size_t e = 0; e < num_edges; ++e) {
      ent::GenerationService& svc = *edge_services[e];
      // Bufferless designs hold each hop pair on the edge's communication
      // qubits until the end-to-end fusion drains it: a degraded one-slot
      // buffer per edge, so swap-as-you-go applies to every design.
      ent::LinkParams ep = route_cache.edge_params[e];
      if (!design_uses_buffer(design)) ep.buffer_capacity = 1;
      svc.reset(ep, ent::ServiceMode::Buffered);
      arm_gap_tracking(svc, e);
      if (obs_trace) svc.set_trial_trace(&trace_buf, edge_track(e));
      svc.set_arrival_handler([this, e](des::SimTime) {
        on_edge_deposit(e);
        return true;
      });
      if (scen_active) svc.set_effective(edge_effective(e, sim.now()));
      if (design_uses_prefill(design)) svc.pre_fill_buffer();
      svc.start();
    }
  }

  /// Adopt link i's freshly planned path at outage boundary `t`: count a
  /// reroute on any route re-establishment (a path change while live, or a
  /// recovery after downtime), or mark the link down when no path survives.
  void update_link_from_plan(std::size_t i, double t) {
    LinkState& link = links[i];
    const net::RoutePlan& plan = link_plans[i];
    if (!plan.has_route) {
      if (link.route_up) {
        link.route_up = false;
        link.down_since = t;
      }
      return;
    }
    const net::Route& route = plan.primary;
    const bool path_changed =
        link.route_edges.size() != route.edges.size() ||
        !std::equal(route.edges.begin(), route.edges.end(),
                    link.route_edges.begin());
    if (link.route_up && !path_changed) return;
    if (!link.route_up) {
      result.outage_downtime += t - link.down_since;
      obs_outage_over(link_track(link), link.down_since, t);
      link.route_up = true;
    }
    ++result.reroutes;
    if (obs_trace) trace_buf.instant(obs::Ev::Reroute, link_track(link), t);
    if (path_changed) {
      if (config.salvage_pairs && !use_swap_go) {
        // The stock kept across the re-plan is re-credited to the new
        // route's budget instead of rotting against the dead path.
        result.pairs_salvaged += link.service->available(t);
      }
      link.route_edges.assign(route.edges.begin(), route.edges.end());
      link.hops = route.hops();
      link.extra_latency = static_cast<double>(link.hops - 1) *
                           route_cache.inputs.swap.latency;
    }
  }

  /// True when every edge buffer along `edges` holds the full pair quota.
  bool edges_ready(const std::vector<std::size_t>& edges,
                   std::size_t needed) {
    for (const std::size_t e : edges) {
      if (edge_services[e]->available(sim.now()) < needed) return false;
    }
    return true;
  }

  /// Salvage eligibility of a severed route: every endpoint node along it
  /// must be up at time `t`. Stored pair halves survive a *channel*
  /// outage — only new generation pauses — but die with a down node.
  bool salvage_nodes_up(const std::vector<std::size_t>& edges, double t) {
    for (const std::size_t e : edges) {
      const net::TopologyEdge& edge = config.topology->edge(e);
      if (!scen.node_up(edge.a, t) || !scen.node_up(edge.b, t)) {
        return false;
      }
    }
    return true;
  }

  /// Swap-as-you-go service of one link's queued remote gates: assemble an
  /// end-to-end pair by popping one buffered pair per hop and fusing them
  /// at the intermediate nodes *now*. Each hop pair decays from its own
  /// deposit instant; the fused pair is born at the assembly instant, so
  /// it reaches the consuming gate fresh. With a split plan a request is
  /// served by the primary path when ready, else by the cost-tied
  /// alternate; with neither ready it waits for the next deposit.
  ///
  /// Mid-flight pair salvage (config.salvage_pairs): a link whose whole
  /// route was severed may still drain hop pairs buffered *before* the
  /// outage along its last route, provided every node on it survives —
  /// the gate completes on pre-outage stock instead of stalling for the
  /// repair window. Links salvage in creation order (the boundary loop in
  /// apply_scen_boundary), the same arbitration rule deposits follow.
  void try_serve_pending_swap(std::size_t link_index) {
    LinkState& link = links[link_index];
    const net::RoutePlan& plan = link_plans[link_index];
    const bool salvaging = !plan.has_route;
    if (salvaging && !(config.salvage_pairs && scen_active &&
                       !link.route_edges.empty() &&
                       salvage_nodes_up(link.route_edges, sim.now()))) {
      return;
    }
    const auto order = config.consume_freshest
                           ? ent::ConsumeOrder::FreshestFirst
                           : ent::ConsumeOrder::OldestFirst;
    const auto needed =
        static_cast<std::size_t>(config.pairs_per_remote_gate());
    while (!link.pending.empty()) {
      const std::vector<std::size_t>* path_edges = nullptr;
      if (salvaging) {
        if (!edges_ready(link.route_edges, needed)) break;
        path_edges = &link.route_edges;
      } else if (edges_ready(plan.primary.edges, needed)) {
        path_edges = &plan.primary.edges;
      } else if (plan.split && edges_ready(plan.alternate.edges, needed)) {
        path_edges = &plan.alternate.edges;
      } else {
        break;
      }
      const std::size_t path_hops = path_edges->size();
      PendingRemote& req = link.pending.front();
      req.num_births = 0;
      for (std::size_t i = 0; i < needed; ++i) {
        hop_fid_scratch.clear();
        for (const std::size_t e : *path_edges) {
          auto pair = edge_services[e]->pop(sim.now(), order);
          DQCSIM_ENSURES(pair.has_value());
          const double age = sim.now() - pair->deposited;
          pair_age_acc.add(age);
          obs_pair_age(age);
          hop_fid_scratch.push_back(noise::werner_decayed_fidelity(
              pair->f0, route_cache.edge_params[e].kappa, age));
        }
        req.births[req.num_births] = sim.now();
        req.birth_f0[req.num_births] = net::swap_composed_fidelity(
            hop_fid_scratch.data(), hop_fid_scratch.size(),
            route_cache.inputs.swap.bsm_fidelity);
        ++req.num_births;
      }
      if (salvaging) result.pairs_salvaged += needed;
      result.entanglement_swaps += (path_hops - 1) * needed;
      if (obs_trace) {
        trace_buf.instant(obs::Ev::SwapAssemble, link_track(link), sim.now());
        if (salvaging) {
          trace_buf.instant(obs::Ev::Salvage, link_track(link), sim.now());
        }
      }
      // The assembled pairs are born at this instant, so decay over
      // [birth, now] is the identity: the fused fidelities feed
      // purification directly.
      scratch_raw.clear();
      for (std::size_t i = 0; i < req.num_births; ++i) {
        scratch_raw.push_back(req.birth_f0[i]);
      }
      const auto* logical = maybe_purify(scratch_raw);
      if (logical == nullptr) {
        req.num_births = 0;  // hop pairs lost; the gate retries
        continue;
      }
      serve_head(link, *logical, static_cast<int>(path_hops),
                 static_cast<double>(path_hops - 1) *
                     route_cache.inputs.swap.latency);
    }
  }

  /// Deposit on edge `e`: offer the pair to the links crossing it, in link
  /// creation order (the deterministic arbitration rule).
  void on_edge_deposit(std::size_t e) {
    for (const int link_index : links_on_edge[e]) {
      try_serve_pending_swap(static_cast<std::size_t>(link_index));
    }
  }

  // --- helpers --------------------------------------------------------------

  /// Visit every generation service this trial ran: the per-edge pool
  /// under swap-as-you-go (per-link services never start there), else the
  /// per-link services.
  template <typename Fn>
  void for_each_running_service(Fn&& fn) {
    if (use_swap_go) {
      for (auto& svc : edge_services) fn(*svc);
    } else {
      for (auto& link : links) fn(*link.service);
    }
  }

  std::size_t link_index_of_gate(std::size_t g) {
    const Gate& gate = circuit->gate(g);
    const int a = key.assignment[static_cast<std::size_t>(gate.q0())];
    const int b = key.assignment[static_cast<std::size_t>(gate.q1())];
    const int idx =
        link_of_pair[static_cast<std::size_t>(a) *
                         static_cast<std::size_t>(config.num_nodes) +
                     static_cast<std::size_t>(b)];
    DQCSIM_ENSURES(idx >= 0);
    return static_cast<std::size_t>(idx);
  }

  LinkState& link_of_gate(std::size_t g) {
    return links[link_index_of_gate(g)];
  }

  /// Buffered pairs currently available across every link (the adaptive
  /// controller's occupancy signal e). In swap-as-you-go mode a link's
  /// availability is the bottleneck hop's buffered count along its primary
  /// path — optimistic when routes overlap (each counts the shared buffer
  /// in full), but a deterministic, cheap occupancy signal.
  std::size_t total_buffered_pairs() {
    std::size_t total = 0;
    if (use_swap_go) {
      for (std::size_t i = 0; i < links.size(); ++i) {
        const net::RoutePlan& plan = link_plans[i];
        if (!plan.has_route) continue;
        std::size_t avail = ~std::size_t{0};
        for (const std::size_t e : plan.primary.edges) {
          avail = std::min(avail, edge_services[e]->available(sim.now()));
        }
        total += avail;
      }
      return total;
    }
    for (auto& link : links) {
      total += link.service->available(sim.now());
    }
    return total;
  }

  double latency_of(const Gate& g, bool remote) const {
    if (remote) {
      return config.remote_impl == RemoteImpl::GateTeleport
                 ? config.lat.remote_gate
                 : config.lat.remote_gate_state;
    }
    if (g.kind == GateKind::Measure) return config.lat.measurement;
    if (g.arity() == 2) return config.lat.local_cnot;
    return config.lat.one_qubit;
  }

  double gate_fidelity_local(const Gate& g) const {
    if (g.kind == GateKind::Measure) return config.fid.measurement;
    if (g.arity() == 2) return config.fid.local_cnot;
    return config.fid.one_qubit;
  }

  bool is_remote(std::size_t gate_index) const {
    return design != DesignKind::IdealMono &&
           placement.is_remote[gate_index] != 0;
  }

  // --- admission (stream construction) --------------------------------------

  /// Admit gate `g` into the execution stream: wire up dependencies on the
  /// previously admitted gates sharing its qubits.
  void admit_gate(std::size_t g, std::size_t segment_index) {
    DQCSIM_ENSURES(!admitted[g]);
    admitted[g] = 1;
    segment_of_gate[g] = segment_index;
    const Gate& gate = circuit->gate(g);
    std::size_t preds = 0;
    for (int k = 0; k < gate.arity(); ++k) {
      auto& last = last_on_wire[static_cast<std::size_t>(
          gate.qubits[static_cast<std::size_t>(k)])];
      if (last != kNone && !completed_flag[last]) {
        // Duplicate edges (same pred via both wires) are fine: count both
        // and notify twice on completion — avoided by checking succs back:
        auto& sv = succs_of[last];
        if (sv.n == 0 || sv.s[sv.n - 1] != g) {
          DQCSIM_ENSURES(sv.n < 2);  // one successor per wire
          sv.s[sv.n++] = g;
          ++preds;
        }
      }
      last = g;
    }
    remaining_preds[g] = preds;
    if (preds == 0) on_gate_ready(g);
  }

  /// Admit every gate of segment s in the order of the selected variant.
  /// Callers must hold the `admitting` guard so nested gate starts cannot
  /// interleave another segment's admission mid-way.
  void admit_segment(std::size_t s) {
    DQCSIM_ENSURES(s < segments.size());
    sched::SchedulingPolicy policy = sched::SchedulingPolicy::Original;
    if (use_adaptive) {
      const std::size_t available = total_buffered_pairs();
      policy = adaptive_policy->choose(available);
      switch (policy) {
        case sched::SchedulingPolicy::Asap: ++result.segments_asap; break;
        case sched::SchedulingPolicy::Alap: ++result.segments_alap; break;
        case sched::SchedulingPolicy::Original:
          ++result.segments_original;
          break;
      }
    }
    const auto& order = variant_table->order(s, policy);
    unstarted_in_segment[s] = order.size();
    for (std::size_t g : order) admit_gate(g, s);
  }

  /// Admit further segments while the most recently admitted one has fully
  /// started (paper §III-D: the controller picks the next segment's variant
  /// as execution reaches it). Re-entrant calls (a gate starting during
  /// admission) defer to the outer loop.
  void pump_segments() {
    if (admitting || !use_adaptive) return;
    admitting = true;
    while (next_segment < segments.size() &&
           unstarted_in_segment[next_segment - 1] == 0) {
      const std::size_t s = next_segment++;
      admit_segment(s);
    }
    admitting = false;
  }

  // --- execution -------------------------------------------------------------

  void on_gate_ready(std::size_t g) {
    if (is_remote(g)) {
      const std::size_t i = link_index_of_gate(g);
      links[i].pending.push_back(PendingRemote{g, sim.now(), {}, 0});
      if (use_swap_go) {
        try_serve_pending_swap(i);
      } else {
        try_serve_pending(links[i]);
      }
    } else {
      start_local_gate(g);
    }
  }

  static noise::FidelityTerm local_term_of(const Gate& gate) {
    return (gate.arity() == 2) ? noise::FidelityTerm::Local2Q
           : (gate.kind == GateKind::Measure)
               ? noise::FidelityTerm::Measurement
               : noise::FidelityTerm::Local1Q;
  }

  void start_local_gate(std::size_t g) {
    if (fuse_chains && circuit->gate(g).arity() == 1) {
      start_local_chain(g);
      return;
    }
    const Gate& gate = circuit->gate(g);
    ledger.add_factor(local_term_of(gate), gate_fidelity_local(gate));
    begin_execution(g, latency_of(gate, /*remote=*/false));
  }

  /// Start the maximal admitted 1q chain beginning at `g` as one event.
  void start_local_chain(std::size_t head) {
    // Left-fold the member latencies onto the clock exactly as sequential
    // scheduling would (t -> t + l0 -> (t + l0) + l1 ...), so the chain's
    // completion instant is bit-identical to the unfused execution.
    des::SimTime end = sim.now();
    std::size_t tail = head;
    for (std::size_t g = head;; g = chain_next[g]) {
      DQCSIM_ENSURES(!started[g]);
      started[g] = 1;
      const Gate& gate = circuit->gate(g);
      ledger.add_factor(local_term_of(gate), gate_fidelity_local(gate));
      end += latency_of(gate, /*remote=*/false);
      tail = g;
      if (chain_next[g] == kNoFusedNext || !admitted[chain_next[g]]) break;
    }
    sim.schedule_at(end, [this, head, tail] {
      for (std::size_t g = head;; g = chain_next[g]) {
        complete_gate(g);
        if (g == tail) break;
      }
    });
  }

  /// Werner-decayed fidelities of collected pairs at the current instant,
  /// recording their ages. Each pair decays from its own birth fidelity
  /// (the serving link's effective fresh fidelity at the birth instant:
  /// swap-composed on routed links, drift-scaled under a scenario, the
  /// architecture-wide f0 on homogeneous stationary ones). Returns the
  /// reusable scratch buffer.
  const std::vector<double>& decay_births(const LinkState& link,
                                          const PendingRemote& req) {
    const ent::LinkParams& lp = link.service->params();
    scratch_raw.clear();
    for (std::size_t i = 0; i < req.num_births; ++i) {
      const double age = sim.now() - req.births[i];
      pair_age_acc.add(age);
      obs_pair_age(age);
      scratch_raw.push_back(
          noise::werner_decayed_fidelity(req.birth_f0[i], lp.kappa, age));
    }
    return scratch_raw;
  }

  /// With purify_on_consume, distill every two raw pairs into one logical
  /// pair (BBPSSW). Returns nullptr when any round fails — all raw pairs
  /// are lost and the caller must re-collect (a failure of one round
  /// discards the whole batch; see DESIGN.md). Without purification the
  /// raw fidelities pass through. The returned pointer aims at caller-
  /// provided or scratch storage valid until the next serve.
  const std::vector<double>* maybe_purify(const std::vector<double>& raw) {
    if (!config.purify_on_consume) return &raw;
    // The serving link is unknown here, so purification rounds mark the
    // engine track; per-round counters fold at trial end.
    if (obs_trace) trace_buf.instant(obs::Ev::Purify, 0, sim.now());
    scratch_outcomes.clear();
    std::size_t draws_needed = 0;
    for (std::size_t i = 0; i + 1 < raw.size(); i += 2) {
      scratch_outcomes.push_back(noise::purify_werner(raw[i], raw[i + 1]));
      const double p = scratch_outcomes.back().success_probability;
      if (p > 0.0 && p < 1.0) ++draws_needed;
    }
    // One batched draw covers every probabilistic round. Stream order is
    // identical to per-round bernoulli() calls, which consume no draw at
    // p <= 0 or p >= 1 — hence the outcome-first pass above.
    scratch_uniforms.resize(draws_needed);
    rng.fill_uniform(scratch_uniforms.data(), draws_needed);
    scratch_logical.clear();
    std::size_t next_draw = 0;
    bool all_succeeded = true;
    for (const noise::PurificationOutcome& outcome : scratch_outcomes) {
      ++result.purification_rounds;
      const double p = outcome.success_probability;
      const bool success =
          p >= 1.0 || (p > 0.0 && scratch_uniforms[next_draw++] < p);
      if (success) {
        scratch_logical.push_back(outcome.fidelity);
      } else {
        ++result.purification_failures;
        all_succeeded = false;
      }
    }
    if (!all_succeeded) return nullptr;
    return &scratch_logical;
  }

  /// Start a remote gate from its (logical) pair fidelities; `extra_delay`
  /// models local purification time before the teleportation begins.
  void start_remote_gate(std::size_t g,
                         const std::vector<double>& pair_fidelity,
                         double extra_delay = 0.0) {
    const std::size_t expected =
        config.remote_impl == RemoteImpl::GateTeleport ? 1u : 2u;
    DQCSIM_ENSURES(pair_fidelity.size() == expected);
    const double gate_fidelity =
        config.remote_impl == RemoteImpl::GateTeleport
            ? teleport_model->eval(pair_fidelity[0])
            : state_model->eval(pair_fidelity[0], pair_fidelity[1]);
    ledger.add_factor(noise::FidelityTerm::Remote, gate_fidelity);
    begin_execution(
        g, extra_delay + latency_of(circuit->gate(g), /*remote=*/true));
  }

  void begin_execution(std::size_t g, double latency) {
    DQCSIM_ENSURES(!started[g]);
    started[g] = 1;

    // Segment bookkeeping for adaptive admission.
    if (use_adaptive) {
      const std::size_t s = segment_of_gate[g];
      DQCSIM_ENSURES(unstarted_in_segment[s] > 0);
      --unstarted_in_segment[s];
      pump_segments();
    }

    sim.schedule_in(latency, [this, g] { complete_gate(g); });
  }

  void complete_gate(std::size_t g) {
    DQCSIM_ENSURES(!completed_flag[g]);
    completed_flag[g] = 1;
    ++num_completed;
    makespan = std::max(makespan, sim.now());
    const GateSuccs& sv = succs_of[g];
    for (std::uint8_t k = 0; k < sv.n; ++k) {
      const std::size_t next = sv.s[k];
      DQCSIM_ENSURES(remaining_preds[next] > 0);
      // A chain-fused successor is already running; just settle the edge.
      if (--remaining_preds[next] == 0 && !started[next]) {
        on_gate_ready(next);
      }
    }
  }

  /// Start the remote gate at the head of `link`'s queue from its logical
  /// pair fidelities over a `hops`-edge path whose swap chain adds
  /// `swap_delay` (plus the purification time, if any) before execution.
  void serve_head(LinkState& link, const std::vector<double>& logical,
                  int hops, double swap_delay) {
    const std::size_t gate = link.pending.front().gate;
    const double ready_at = link.pending.front().ready_at;
    remote_wait_acc.add(sim.now() - ready_at);
    route_hops_acc.add(static_cast<double>(hops));
    const double extra_delay =
        swap_delay +
        (config.purify_on_consume ? config.purification_latency : 0.0);
    obs_remote_served(
        link, ready_at, static_cast<double>(hops),
        extra_delay + latency_of(circuit->gate(gate), /*remote=*/true));
    link.pending.pop_front();
    // start_remote_gate reads `logical` before any re-entrant serve (via
    // segment pumping) can clobber the scratch buffers it points into.
    start_remote_gate(gate, logical, extra_delay);
  }

  /// Serve queued remote gates from a link's buffer (buffered designs). A
  /// gate is served only when the buffer holds its full pair quota, so a
  /// two-pair gate cannot strand a half-claimed pair decaying outside the
  /// cutoff policy's reach.
  void try_serve_pending(LinkState& link) {
    if (link.service->mode() != ent::ServiceMode::Buffered) return;
    const auto order = link.service->params().consume_freshest
                           ? ent::ConsumeOrder::FreshestFirst
                           : ent::ConsumeOrder::OldestFirst;
    const auto needed =
        static_cast<std::size_t>(config.pairs_per_remote_gate());
    while (!link.pending.empty() &&
           link.service->available(sim.now()) >= needed) {
      PendingRemote& req = link.pending.front();
      req.num_births = 0;
      for (std::size_t i = 0; i < needed; ++i) {
        auto pair = link.service->pop(sim.now(), order);
        DQCSIM_ENSURES(pair.has_value());
        req.births[req.num_births] = pair->deposited;
        req.birth_f0[req.num_births] = pair->f0;
        ++req.num_births;
      }
      // Each consumed end-to-end pair carried hops - 1 entanglement swaps.
      result.entanglement_swaps +=
          static_cast<std::size_t>(link.hops - 1) * needed;
      if (config.salvage_pairs && scen_active && !link.route_up) {
        // The composed model never discards stock at boundaries, so
        // salvage here is accounting: pairs buffered before the outage
        // serving a gate while the route is severed.
        result.pairs_salvaged += needed;
        if (obs_trace) {
          trace_buf.instant(obs::Ev::Salvage, link_track(link), sim.now());
        }
      }
      const auto* logical = maybe_purify(decay_births(link, req));
      if (logical == nullptr) {
        // Purification failed: pairs are lost, the gate retries from the
        // head of the queue (the buffer shrank, so this loop terminates).
        req.num_births = 0;
        continue;
      }
      serve_head(link, *logical, link.hops, link.extra_latency);
    }
  }

  /// OnDemand arrival (bufferless original design): a waiting remote gate
  /// on this link claims the pair at its heralding instant. Multi-pair
  /// gates hold already-claimed pairs on the communication qubits (same
  /// decay law) until their quota fills.
  bool on_demand_arrival(LinkState& link, des::SimTime now) {
    if (link.pending.empty()) return false;
    PendingRemote& req = link.pending.front();
    // A heralded pair is born right now, at the current segment's f0.
    req.birth_f0[req.num_births] = link.service->effective().f0;
    req.births[req.num_births++] = now;
    result.entanglement_swaps += static_cast<std::size_t>(link.hops - 1);
    if (static_cast<int>(req.num_births) < config.pairs_per_remote_gate()) {
      return true;  // claimed and held; wait for the next herald
    }
    const auto* logical = maybe_purify(decay_births(link, req));
    if (logical == nullptr) {
      req.num_births = 0;  // pairs lost; keep collecting
      return true;
    }
    serve_head(link, *logical, link.hops, link.extra_latency);
    return true;
  }

  RunResult do_run() {
    const bool needs_link =
        design != DesignKind::IdealMono && placement.num_remote_2q > 0;
    if (needs_link) {
      // The Plan phase covers per-trial link/service preparation; it nests
      // the Routing phase on a routing-cache miss.
      OBS_SCOPE(prof(), obs::Phase::Plan);
      if (design_uses_buffer(design) && config.buffer_per_node < 1) {
        throw ConfigError(
            "buffered designs need at least one buffer qubit per node");
      }
      const auto mode = design_uses_buffer(design)
                            ? ent::ServiceMode::Buffered
                            : ent::ServiceMode::OnDemand;
      // The opt-in contention modes require a topology (validated).
      // Swap-as-you-go covers every design: bufferless (OnDemand) designs
      // run degraded one-slot-per-edge services (see setup_edge_services)
      // instead of silently falling back to the composed model.
      use_swap_go = config.swap_as_you_go;
      use_shared_caps = config.share_edge_capacity;
      use_congestion = config.congestion_aware_routing;
      if (config.topology != nullptr) {
        refresh_routing();
        plan_all_routes(nullptr);
        // Knobs-off runs report no contention, even though the static
        // plan's load map is populated.
        if (contended()) record_plan_metrics();
      }
      if (use_swap_go) {
        setup_edge_services();
      } else {
        setup_composed_links(mode);
      }
      // Apply any outage already in force at t = 0, then start the lazy
      // boundary event chain.
      if (scen_active) {
        apply_scen_boundary(0.0);
        schedule_next_scen_boundary(0.0);
      }
    }

    if (use_adaptive) {
      admitting = true;
      next_segment = 1;
      admit_segment(0);
      admitting = false;
      pump_segments();
    } else {
      // Single implicit segment: the whole circuit in program order.
      for (std::size_t g = 0; g < circuit->num_gates(); ++g) {
        admit_gate(g, 0);
      }
    }

    // Drive the simulation until every gate has completed. A finite
    // max_trial_sim_time bounds the drive: an event strictly beyond the
    // budget never executes, so a trial that cannot finish (e.g. total
    // disconnection) stops deterministically with partial metrics instead
    // of spinning on generation windows forever. An empty queue counts as
    // reaching the budget: lazy generation services schedule nothing while
    // parked or when no pair can succeed, so a trial stuck on them runs
    // out of events rather than sim time. Unbounded, an empty queue with
    // unfinished gates can never make progress.
    const double budget = config.max_trial_sim_time;
    const bool bounded = std::isfinite(budget);
    {
      OBS_SCOPE(prof(), obs::Phase::Drive);
      while (num_completed < circuit->num_gates()) {
        if (bounded && (sim.idle() || sim.next_event_time() > budget)) {
          result.truncated = true;
          break;
        }
        const bool progressed = sim.step();
        DQCSIM_ENSURES_MSG(progressed,
                           "simulation ran out of events with unfinished "
                           "gates (set max_trial_sim_time to bound it)");
      }
    }
    {
      // Finalize must close before finish_observation merges the profile,
      // or its own timing would lag one trial behind the collector.
      OBS_SCOPE(prof(), obs::Phase::Finalize);
      if (result.truncated) {
        // Depth and idling report the budget horizon the trial ran out at.
        makespan = std::max(makespan, budget);
      }
      // Generation ends with the trial, at its makespan: the last gate's
      // completion, or the budget when truncated (lazy services settle
      // their skipped windows up to it).
      const double horizon = makespan;
      for_each_running_service(
          [horizon](ent::GenerationService& svc) { svc.stop(horizon); });

      // link_stalled watchdog: services that at some point went longer than
      // stall_windows attempt windows without one successful generation.
      // Pure observation over the tracked success-gap maximum — no draw
      // from the trial's stream, no event, so the knob cannot perturb the
      // trial itself.
      if (config.stall_windows > 0) {
        for_each_running_service([&](const ent::GenerationService& svc) {
          if (svc.max_delivery_gap(horizon) >
              static_cast<double>(config.stall_windows) *
                  svc.params().cycle_time) {
            ++result.links_stalled;
          }
        });
      }

      // Links still routeless when the last gate completes accrue their
      // downtime up to the makespan (the reported trial duration).
      if (scen_active) {
        for (const auto& link : links) {
          if (!link.route_up) {
            result.outage_downtime += std::max(0.0, makespan - link.down_since);
          }
        }
      }

      // Figures of merit.
      ledger.add_idling(config.kappa, makespan);
      result.depth = makespan / config.lat.local_cnot;
      // The trial fidelity is a product of positive factors, but a trial
      // that runs thousands of times its ideal depth decays below the
      // double range, where the ledger's exp() rounds to zero. Report the
      // smallest positive double there: the estimate stays a fidelity
      // (0 < F), and its -log10 stays finite.
      result.fidelity = std::max(ledger.fidelity(),
                                 std::numeric_limits<double>::denorm_min());
      result.fidelity_local =
          ledger.category_fidelity(noise::FidelityTerm::Local1Q) *
          ledger.category_fidelity(noise::FidelityTerm::Local2Q) *
          ledger.category_fidelity(noise::FidelityTerm::Measurement);
      result.fidelity_remote =
          ledger.category_fidelity(noise::FidelityTerm::Remote);
      result.fidelity_idling =
          ledger.category_fidelity(noise::FidelityTerm::Idling);
      result.remote_gates = placement.num_remote_2q;
      // Under swap-as-you-go a "consumed" pair is a single-hop pair
      // drained into an end-to-end fusion. OnDemand pairs are consumed at
      // their herald unless no gate claimed them.
      for_each_running_service([&](const ent::GenerationService& svc) {
        result.epr_attempts += svc.attempts();
        result.epr_successes += svc.successes();
        result.epr_consumed +=
            svc.buffer().total_consumed() +
            (svc.mode() == ent::ServiceMode::OnDemand
                 ? svc.successes() - svc.wasted_unconsumed()
                 : 0);
        result.epr_wasted += svc.wasted_buffer_full() + svc.wasted_unconsumed();
        result.epr_expired += svc.buffer().total_expired();
      });
      result.avg_pair_age = pair_age_acc.mean();
      result.avg_remote_wait = remote_wait_acc.mean();
      result.avg_route_hops = route_hops_acc.mean();
    }
    if (observe != nullptr) finish_observation();
    return result;
  }
};

RunContext::RunContext() : state_(std::make_unique<State>()) {}
RunContext::~RunContext() = default;
RunContext::RunContext(RunContext&&) noexcept = default;
RunContext& RunContext::operator=(RunContext&&) noexcept = default;

void RunContext::release_inputs() noexcept {
  State& st = *state_;
  st.config.observe.reset();
  st.config.scenario.reset();
  st.config.topology.reset();  // the routing cache pins its own reference
  st.observe = nullptr;
  st.circuit = nullptr;
  st.teleport_model = nullptr;
  st.key.circuit = nullptr;
}

RunResult RunContext::execute(const Circuit& circuit,
                              const std::vector<int>& assignment,
                              const ArchConfig& config, DesignKind design,
                              std::uint64_t seed,
                              const noise::TeleportFidelityModel* model) {
  state_->prepare(circuit, assignment, config, design, seed, model);
  return state_->do_run();
}

struct ExecutionEngine::Impl {
  RunContext ctx;
  const Circuit& circuit;
  std::vector<int> assignment;
  ArchConfig config;
  DesignKind design;
  std::uint64_t seed;
  const noise::TeleportFidelityModel* model;
  bool ran = false;

  Impl(const Circuit& c, std::vector<int> a, const ArchConfig& cfg,
       DesignKind d, std::uint64_t s,
       const noise::TeleportFidelityModel* m)
      : circuit(c),
        assignment(std::move(a)),
        config(cfg),
        design(d),
        seed(s),
        model(m) {
    validate_inputs(circuit, assignment, config, design);
  }
};

ExecutionEngine::ExecutionEngine(
    const Circuit& circuit, std::vector<int> assignment,
    const ArchConfig& config, DesignKind design, std::uint64_t seed,
    const noise::TeleportFidelityModel* teleport_model)
    : impl_(std::make_unique<Impl>(circuit, std::move(assignment), config,
                                   design, seed, teleport_model)) {}

ExecutionEngine::~ExecutionEngine() = default;

RunResult ExecutionEngine::run() {
  DQCSIM_EXPECTS_MSG(!impl_->ran, "ExecutionEngine::run may be called once");
  impl_->ran = true;
  return impl_->ctx.execute(impl_->circuit, impl_->assignment, impl_->config,
                            impl_->design, impl_->seed, impl_->model);
}

}  // namespace dqcsim::runtime
