#include "runtime/engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "noise/fidelity_ledger.hpp"
#include "noise/purification.hpp"
#include "noise/werner.hpp"
#include "obs/scope.hpp"
#include "runtime/delivery.hpp"
#include "runtime/faults.hpp"
#include "runtime/observer.hpp"
#include "sched/adaptive_policy.hpp"
#include "sched/fusible_chains.hpp"
#include "sched/remote_gates.hpp"
#include "sched/segmentation.hpp"
#include "sched/variants.hpp"
#include "sched/wire_dag.hpp"

namespace dqcsim::runtime {

struct RunContext::State final : detail::TrialState {
  static constexpr std::uint32_t kNoGate = sched::WireDag::kNoGate;
  using GateSuccs = sched::WireDag::Succs;
  /// Capacity of the inline pair-birth store: 2 pairs (state teleport)
  /// doubled by purify-on-consume is the structural maximum.
  static constexpr std::size_t kMaxPairsPerGate = 4;

  // --- current-trial inputs -------------------------------------------------
  const Circuit* circuit = nullptr;
  const noise::TeleportFidelityModel* teleport_model = nullptr;

  // --- cached setup (rebuilt only when the key changes) ---------------------
  // The key holds no design: gate placement and links differ only between
  // IdealMono and the distributed designs, and each design-derived artifact
  // is built the first time a design needs it, then kept until the key
  // changes. A sweep that switches design (or p_succ, and with it the
  // default segment size) from call to call shares one setup.
  struct SetupKey {
    bool valid = false;
    const Circuit* circuit = nullptr;
    std::uint64_t fingerprint = 0;
    std::vector<int> assignment;
    bool ideal = false;
    int num_nodes = 0;
    RemoteImpl remote_impl = RemoteImpl::GateTeleport;
    Fidelities fid;
  } key;

  sched::GatePlacement placement;
  // Per-gate facts the trial only reads. A gate's class indexes the
  // per-trial latency table and the setup's fidelity tables (latencies
  // are not part of the key, so none is baked in here).
  enum GateClass : std::uint8_t { kOneQubit, kLocal2Q, kMeasure, kRemote };
  static constexpr std::array<noise::FidelityTerm, 3> kLocalTerm = {
      noise::FidelityTerm::Local1Q, noise::FidelityTerm::Local2Q,
      noise::FidelityTerm::Measurement};
  std::vector<std::uint8_t> gate_class;
  std::array<double, 3> local_log_fid{};  ///< log fidelity per local class
  sched::WireDag wire_dag;  ///< program order: non-adaptive designs' DAG
  // Adaptive designs: built by the first adaptive trial for segment_size
  // remote gates per segment (0: not built for this key).
  std::size_t segment_size = 0;
  std::vector<sched::Segment> segments;
  std::vector<std::size_t> segment_of_gate;
  /// Per policy: each segment's variant order wired as one run, segment s
  /// at positions [segments[s].begin, segments[s].end).
  std::array<sched::WireDag, 3> variant_dag;
  std::optional<sched::AdaptivePolicy> adaptive_policy;
  // Fused designs: built by the first fused trial (one entry per gate).
  std::vector<std::size_t> chain_next;  ///< kNoFusedNext-terminated chains
  std::optional<noise::TeleportFidelityModel> owned_model;
  std::optional<noise::StateTeleportCnotModel> state_model;
  bool use_adaptive = false;  ///< per trial: adaptive design with links

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
    /// OnDemand only: heralds collected so far.
    std::array<des::SimTime, kMaxPairsPerGate> births{};
    /// Fidelity each pair had at its birth instant: the segment's f0, so
    /// consumption-time decay is exact even after a reroute.
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

  std::vector<PendingFifo> pending;       ///< parallel to links
  std::vector<std::size_t> link_of_gate;  ///< remote gate -> its link

  // --- delivery (see runtime/delivery.hpp) ----------------------------------
  /// Both delivery models, built on first use and warm across trials.
  std::array<std::unique_ptr<detail::Delivery>, 2> deliveries;

  // --- observation and faults (see runtime/observer.hpp, faults.hpp) --------
  detail::TrialObserver observer{*this};
  detail::FaultController faults{*this, observer};

  // --- adaptive scheduling state (per trial) --------------------------------
  std::size_t next_segment = 0;  ///< index of the next segment to admit
  bool admitting = false;        ///< re-entrancy guard for pump_segments
  std::vector<std::size_t> unstarted_in_segment;

  // --- per-gate scheduling state (per trial) --------------------------------
  /// One record per gate. A non-adaptive trial copies `initial_run` (the
  /// wire DAG's predecessor counts); an adaptive one writes each gate's
  /// record at its admission.
  struct GateRun {
    std::uint8_t preds = 0;  ///< unfinished predecessors
    bool started = false;
    bool completed = false;
  };
  std::vector<GateRun> run;
  std::vector<GateRun> initial_run;  ///< setup: wire_dag.num_preds
  /// This trial's successors: the wire DAG's, or the adaptive admission's
  /// `succs_of`.
  const GateSuccs* succs = nullptr;
  /// Non-adaptive admission frontier: gates below it are admitted. A 1q
  /// chain started while the t = 0 loop admits stops at the frontier.
  std::size_t admitted_end = 0;
  std::array<double, 4> class_latency{};  ///< per GateClass, from config.lat
  // Adaptive admission (run-time wiring in the chosen variant orders).
  std::vector<std::uint32_t> last_on_wire;  // per qubit, kNoGate if none
  std::vector<GateSuccs> succs_of;
  std::size_t num_completed = 0;
  double makespan = 0.0;

  // --- reusable scratch (hoisted per-event temporaries) ---------------------
  std::vector<double> scratch_raw;      ///< claimed pair fidelities
  std::vector<double> scratch_logical;  ///< post-purification fidelities
  std::vector<noise::PurificationOutcome> scratch_outcomes;
  std::vector<double> scratch_uniforms;

  // --- metrics (per trial) --------------------------------------------------
  noise::FidelityLedger ledger;
  MeanAccumulator remote_wait_acc;
  MeanAccumulator route_hops_acc;

  // --- setup / reuse --------------------------------------------------------

  /// Setup-key equality for everything except circuit identity (which the
  /// caller resolves via pointer or fingerprint).
  bool setup_fields_match(const std::vector<int>& assignment,
                          const ArchConfig& cfg, bool ideal) const {
    return key.valid && key.ideal == ideal && key.num_nodes == cfg.num_nodes &&
           key.remote_impl == cfg.remote_impl && key.fid == cfg.fid &&
           key.assignment == assignment;
  }

  /// Recompute gate placement and links and drop every design-derived
  /// artifact. Called only when the setup key changes; consecutive trials
  /// reuse everything built here, whatever their design.
  void rebuild_setup(const Circuit& c, const std::vector<int>& assignment,
                     const ArchConfig& cfg, bool ideal,
                     std::uint64_t fingerprint) {
    key.valid = false;
    owned_model.reset();
    state_model.reset();
    segment_size = 0;
    chain_next.clear();

    if (!ideal) {
      sched::classify_gates(c, assignment, placement);
    } else {
      placement.is_remote.assign(c.num_gates(), 0);
      placement.num_remote_2q = 0;
      placement.num_local_2q = 0;
      placement.num_1q = 0;
      placement.num_measure = 0;
    }

    // Logical links: one per node pair with remote traffic, in
    // first-traffic order (the order their services are started in, which
    // the FIFO tie-break observes).
    links.clear();
    link_of_gate.assign(c.num_gates(), 0);
    if (placement.num_remote_2q > 0) {
      const auto n = static_cast<std::size_t>(cfg.num_nodes);
      std::vector<int> link_of_pair(n * n, -1);
      for (std::size_t g = 0; g < c.num_gates(); ++g) {
        if (!placement.is_remote[g]) continue;
        const Gate& gate = c.gate(g);
        const auto a = static_cast<std::size_t>(
            assignment[static_cast<std::size_t>(gate.q0())]);
        const auto b = static_cast<std::size_t>(
            assignment[static_cast<std::size_t>(gate.q1())]);
        if (link_of_pair[a * n + b] < 0) {
          link_of_pair[a * n + b] = static_cast<int>(links.size());
          link_of_pair[b * n + a] = static_cast<int>(links.size());
          links.emplace_back();
          links.back().node_a = static_cast<int>(a);
          links.back().node_b = static_cast<int>(b);
        }
        link_of_gate[g] = static_cast<std::size_t>(link_of_pair[a * n + b]);
      }
    }
    pending.resize(links.size());

    gate_class.resize(c.num_gates());
    for (std::size_t g = 0; g < c.num_gates(); ++g) {
      const Gate& gate = c.gate(g);
      gate_class[g] = placement.is_remote[g]          ? kRemote
                      : gate.kind == GateKind::Measure ? kMeasure
                      : gate.arity() == 2              ? kLocal2Q
                                                       : kOneQubit;
    }
    local_log_fid = {noise::FidelityLedger::log_factor(cfg.fid.one_qubit),
                     noise::FidelityLedger::log_factor(cfg.fid.local_cnot),
                     noise::FidelityLedger::log_factor(cfg.fid.measurement)};
    wire_dag.build(c);
    initial_run.resize(c.num_gates());
    for (std::size_t g = 0; g < c.num_gates(); ++g) {
      initial_run[g] = GateRun{wire_dag.num_preds[g], false, false};
    }

    key.circuit = &c;
    key.fingerprint = fingerprint;
    key.assignment = assignment;
    key.ideal = ideal;
    key.num_nodes = cfg.num_nodes;
    key.remote_impl = cfg.remote_impl;
    key.fid = cfg.fid;
    key.valid = true;
  }

  /// Set this trial's design switches, building the artifacts they need
  /// that the current setup does not hold yet.
  void select_design(const Circuit& c, const ArchConfig& cfg, DesignKind d) {
    use_adaptive = design_uses_adaptive(d) && placement.num_remote_2q > 0;
    fuse_chains = !use_adaptive && cfg.fuse_local_gates;
    const bool build_chains =
        fuse_chains && chain_next.size() != c.num_gates();
    const bool build_adaptive =
        use_adaptive && segment_size != cfg.effective_segment_size();
    if (!build_chains && !build_adaptive) return;
    OBS_SCOPE(observer.prof(), obs::Phase::Setup);
    if (build_chains) {
      chain_next = sched::fusible_1q_chain_next(c);
    }
    if (build_adaptive) {
      segment_size = cfg.effective_segment_size();
      segments = sched::segment_by_remote_gates(placement, segment_size);
      segment_of_gate.resize(c.num_gates());
      for (std::size_t s = 0; s < segments.size(); ++s) {
        for (std::size_t g = segments[s].begin; g < segments[s].end; ++g) {
          segment_of_gate[g] = s;
        }
      }
      for (sched::WireDag& dag : variant_dag) dag.clear(c);
      for (const sched::Segment& segment : segments) {
        // One segment's table at a time: only the wired orders are kept.
        const sched::SegmentVariantTable variants(c, placement, {segment});
        for (std::size_t p = 0; p < variant_dag.size(); ++p) {
          sched::WireDag& dag = variant_dag[p];
          dag.begin_run();
          for (const std::size_t g :
               variants.order(0, static_cast<sched::SchedulingPolicy>(p))) {
            dag.append(c, g);
          }
          DQCSIM_ENSURES(dag.gate.size() == segment.end);
        }
      }
      adaptive_policy.emplace(segment_size);
    }
  }

  /// Point the workspace at one trial's inputs: reseed, rewind the
  /// simulator, and re-zero all per-trial state. Reuses every buffer.
  /// `validate` false skips cfg.validate() for a caller that validated the
  /// config once for all its trials.
  void prepare(const Circuit& c, const std::vector<int>& assignment,
               const ArchConfig& cfg, DesignKind d, std::uint64_t seed,
               const noise::TeleportFidelityModel* model, bool validate) {
    if (validate) cfg.validate();
    if (d != DesignKind::IdealMono) {
      DQCSIM_EXPECTS_MSG(
          assignment.size() == static_cast<std::size_t>(c.num_qubits()),
          "partition assignment must cover every qubit");
      for (int node : assignment) {
        DQCSIM_EXPECTS_MSG(node >= 0 && node < cfg.num_nodes,
                           "node id outside [0, num_nodes)");
      }
    }
    DQCSIM_ENSURES(static_cast<std::size_t>(cfg.pairs_per_remote_gate()) <=
                   kMaxPairsPerGate);

    circuit = &c;
    config = cfg;
    design = d;
    trial_seed = seed;
    rng = Rng(seed);
    sim.reset();

    observer.begin_trial();

    // Cache-hit resolution: the same Circuit object hits on pointer
    // identity alone, keeping the per-trial cost O(1) (a circuit must not
    // be mutated in place between execute() calls; release_inputs() forgets
    // the address between batches). A *different* address — including a
    // new circuit recycled at the old address — hits only if its content
    // fingerprint matches the cached one; the fingerprint covers gate
    // count and width, so a shape change always rebuilds.
    const bool ideal = d == DesignKind::IdealMono;
    bool setup_hit = false;
    if (setup_fields_match(assignment, cfg, ideal)) {
      if (key.circuit == &c) {
        setup_hit = true;
      } else if (c.fingerprint() == key.fingerprint) {
        setup_hit = true;
        key.circuit = &c;
      }
    }
    observer.setup_cache(setup_hit);
    if (!setup_hit) {
      OBS_SCOPE(observer.prof(), obs::Phase::Setup);
      rebuild_setup(c, assignment, cfg, ideal, c.fingerprint());
    }
    select_design(c, cfg, d);
    faults.arm();  // after the setup: it sizes per-link state

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

    class_latency = {config.lat.one_qubit, config.lat.local_cnot,
                     config.lat.measurement,
                     config.remote_impl == RemoteImpl::GateTeleport
                         ? config.lat.remote_gate
                         : config.lat.remote_gate_state};
    const std::size_t n = c.num_gates();
    if (use_adaptive) {
      // Admission writes each gate's record and successors before any
      // read: nothing from the previous trial is visible.
      run.resize(n);
      succs_of.resize(n);
      last_on_wire.assign(static_cast<std::size_t>(c.num_qubits()), kNoGate);
      unstarted_in_segment.assign(segments.size(), 0);
      succs = succs_of.data();
    } else {
      run = initial_run;
      succs = wire_dag.succs.data();
    }
    admitted_end = 0;
    next_segment = 0;
    admitting = false;
    num_completed = 0;
    makespan = 0.0;
    for (auto& queue : pending) queue.clear();
    delivery = nullptr;

    ledger = noise::FidelityLedger{};
    result = RunResult{};
    pair_age_acc = MeanAccumulator{};
    remote_wait_acc = MeanAccumulator{};
    route_hops_acc = MeanAccumulator{};
  }

  // --- admission (stream construction) --------------------------------------

  /// Admit the gate at position `pos` of a variant DAG into the execution
  /// stream. Its edges inside the segment are prebuilt (no gate completes
  /// while a segment is admitted); a wire entering the segment there waits
  /// on the wire's last gate of an earlier segment while that one is
  /// unfinished.
  void admit_gate(const sched::WireDag& dag, std::size_t pos) {
    const std::uint32_t g = dag.gate[pos];
    succs_of[g] = dag.succs[pos];
    std::uint8_t preds = dag.num_preds[pos];
    const std::uint8_t open = dag.open_wires[pos];
    const Gate& gate = circuit->gate(g);
    for (int k = 0; k < gate.arity(); ++k) {
      auto& last = last_on_wire[static_cast<std::size_t>(
          gate.qubits[static_cast<std::size_t>(k)])];
      if ((open >> k & 1u) != 0 && last != kNoGate && !run[last].completed &&
          succs_of[last].add(g)) {
        ++preds;
      }
      last = g;
    }
    run[g] = GateRun{preds, false, false};
    if (preds == 0) on_gate_ready(g);
  }

  /// Admit every gate of segment s in the order of the selected variant.
  /// Callers must hold the `admitting` guard so nested gate starts cannot
  /// interleave another segment's admission mid-way.
  void admit_segment(std::size_t s) {
    DQCSIM_ENSURES(s < segments.size());
    sched::SchedulingPolicy policy = sched::SchedulingPolicy::Original;
    if (use_adaptive) {
      // The occupancy signal e: buffered pairs across every link.
      policy = adaptive_policy->choose(delivery->occupancy());
      switch (policy) {
        case sched::SchedulingPolicy::Asap: ++result.segments_asap; break;
        case sched::SchedulingPolicy::Alap: ++result.segments_alap; break;
        case sched::SchedulingPolicy::Original:
          ++result.segments_original;
          break;
      }
    }
    const sched::WireDag& dag = variant_dag[static_cast<std::size_t>(policy)];
    unstarted_in_segment[s] = segments[s].size();
    for (std::size_t pos = segments[s].begin; pos < segments[s].end; ++pos) {
      admit_gate(dag, pos);
    }
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
    if (gate_class[g] == kRemote) {
      const std::size_t i = link_of_gate[g];
      pending[i].push_back(PendingRemote{g, sim.now(), {}, {}, 0});
      serve_pending(i);
    } else {
      start_local_gate(g);
    }
  }

  /// Record local gate `g`'s fidelity factor; returns its latency.
  double charge_local(std::size_t g) {
    const std::uint8_t cls = gate_class[g];
    ledger.add_log_factor(kLocalTerm[cls], local_log_fid[cls]);
    return class_latency[cls];
  }

  void start_local_gate(std::size_t g) {
    if (fuse_chains && gate_class[g] != kLocal2Q) {
      start_local_chain(g);
      return;
    }
    begin_execution(g, charge_local(g));
  }

  /// Start the maximal admitted 1q chain beginning at `g` as one event.
  void start_local_chain(std::size_t head) {
    // Left-fold the member latencies onto the clock exactly as sequential
    // scheduling would (t -> t + l0 -> (t + l0) + l1 ...), so the chain's
    // completion instant is bit-identical to the unfused execution.
    des::SimTime end = sim.now();
    std::size_t tail = head;
    for (std::size_t g = head;; g = chain_next[g]) {
      DQCSIM_ENSURES(!run[g].started);
      run[g].started = true;
      end += charge_local(g);
      tail = g;
      if (chain_next[g] == sched::kNoFusedNext ||
          chain_next[g] >= admitted_end) {
        break;
      }
    }
    sim.schedule_at(end, [this, head, tail] {
      for (std::size_t g = head;; g = chain_next[g]) {
        complete_gate(g);
        if (g == tail) break;
      }
    });
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
    observer.instant(obs::Ev::Purify, 0, sim.now());
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
    begin_execution(g, extra_delay + class_latency[kRemote]);
  }

  void begin_execution(std::size_t g, double latency) {
    DQCSIM_ENSURES(!run[g].started);
    run[g].started = true;

    // Segment bookkeeping for adaptive admission: only a segment's last
    // start can let the next segment in.
    if (use_adaptive) {
      const std::size_t s = segment_of_gate[g];
      DQCSIM_ENSURES(unstarted_in_segment[s] > 0);
      if (--unstarted_in_segment[s] == 0) pump_segments();
    }

    sim.schedule_in(latency, [this, g] { complete_gate(g); });
  }

  void complete_gate(std::size_t g) {
    DQCSIM_ENSURES(!run[g].completed);
    run[g].completed = true;
    ++num_completed;
    makespan = std::max(makespan, sim.now());
    for (const std::uint32_t s : succs[g].s) {
      if (s == kNoGate) break;
      GateRun& next = run[s];
      DQCSIM_ENSURES(next.preds > 0);
      // A chain-fused successor is already running; just settle the edge.
      if (--next.preds == 0 && !next.started) on_gate_ready(s);
    }
  }

  /// Start the remote gate at the head of link i's queue from its logical
  /// pair fidelities over a `hops`-edge path whose swap chain adds
  /// `swap_delay` (plus the purification time, if any) before execution.
  void serve_head(std::size_t i, const std::vector<double>& logical, int hops,
                  double swap_delay) {
    const std::size_t gate = pending[i].front().gate;
    const double ready_at = pending[i].front().ready_at;
    remote_wait_acc.add(sim.now() - ready_at);
    route_hops_acc.add(static_cast<double>(hops));
    const double extra_delay =
        swap_delay +
        (config.purify_on_consume ? config.purification_latency : 0.0);
    observer.remote_served(i, ready_at, sim.now(), static_cast<double>(hops),
                           extra_delay + class_latency[kRemote]);
    pending[i].pop_front();
    // start_remote_gate reads `logical` before any re-entrant serve (via
    // segment pumping) can clobber the scratch buffers it points into.
    start_remote_gate(gate, logical, extra_delay);
  }

  /// Serve link i's queued remote gates from buffered pairs, whichever
  /// delivery holds them: while the head gate waits, the delivery claims
  /// its full pair quota at this instant (or reports it absent).
  void serve_pending(std::size_t i) override {
    const auto needed =
        static_cast<std::size_t>(config.pairs_per_remote_gate());
    detail::PairClaim claim;
    while (!pending[i].empty() &&
           delivery->claim(i, needed, claim, scratch_raw)) {
      // Each consumed end-to-end pair carried hops - 1 entanglement swaps.
      result.entanglement_swaps +=
          static_cast<std::size_t>(claim.hops - 1) * needed;
      if (claim.salvaged) result.pairs_salvaged += needed;
      const std::uint32_t track = detail::TrialObserver::link_track(i);
      if (delivery->per_edge) {
        observer.instant(obs::Ev::SwapAssemble, track, sim.now());
      }
      if (claim.salvaged) observer.instant(obs::Ev::Salvage, track, sim.now());
      const auto* logical = maybe_purify(scratch_raw);
      // Purification failed: the pairs are lost and the gate retries from
      // the head of the queue (the buffers shrank, so this loop ends).
      if (logical == nullptr) continue;
      serve_head(i, *logical, claim.hops, claim.swap_delay);
    }
  }

  /// OnDemand arrival (bufferless original design): a waiting remote gate
  /// on link i claims the pair at its heralding instant. Multi-pair gates
  /// hold already-claimed pairs on the communication qubits until their
  /// quota fills; each then decays from its herald at the f0 it was born
  /// with.
  bool on_demand_arrival(std::size_t i, des::SimTime now,
                         const ent::GenerationService& svc) override {
    if (pending[i].empty()) return false;
    PendingRemote& req = pending[i].front();
    // A heralded pair is born right now, at the current segment's f0.
    req.birth_f0[req.num_births] = svc.effective().f0;
    req.births[req.num_births++] = now;
    result.entanglement_swaps += static_cast<std::size_t>(links[i].hops - 1);
    if (static_cast<int>(req.num_births) < config.pairs_per_remote_gate()) {
      return true;  // claimed and held; wait for the next herald
    }
    scratch_raw.clear();
    for (std::size_t k = 0; k < req.num_births; ++k) {
      const double age = sim.now() - req.births[k];
      pair_age_acc.add(age);
      observer.pair_age(age);
      scratch_raw.push_back(noise::werner_decayed_fidelity(
          req.birth_f0[k], svc.params().kappa, age));
    }
    const auto* logical = maybe_purify(scratch_raw);
    if (logical == nullptr) {
      req.num_births = 0;  // pairs lost; keep collecting
      return true;
    }
    serve_head(i, *logical, links[i].hops, links[i].extra_latency);
    return true;
  }

  RunResult do_run() {
    const bool needs_link =
        design != DesignKind::IdealMono && placement.num_remote_2q > 0;
    if (needs_link) {
      // The Plan phase covers per-trial link/service preparation; it nests
      // the Routing phase on a routing-cache miss.
      OBS_SCOPE(observer.prof(), obs::Phase::Plan);
      if (design_uses_buffer(design) && config.buffer_per_node < 1) {
        throw ConfigError(
            "buffered designs need at least one buffer qubit per node");
      }
      plan_links(observer);
      delivery = &detail::select_delivery(*this, faults, observer, deliveries);
      delivery->setup();
      faults.start();
    }

    if (use_adaptive) {
      admitting = true;
      next_segment = 1;
      admit_segment(0);
      admitting = false;
      pump_segments();
    } else {
      // Single implicit segment: the whole circuit in program order, wired
      // by the setup's DAG. Its roots start in program order, each with
      // the gates before it admitted.
      for (const std::size_t g : wire_dag.roots) {
        admitted_end = g + 1;
        on_gate_ready(g);
      }
      admitted_end = circuit->num_gates();
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
      OBS_SCOPE(observer.prof(), obs::Phase::Drive);
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
      // Finalize must close before the observer merges the profile, or its
      // own timing would lag one trial behind the collector.
      OBS_SCOPE(observer.prof(), obs::Phase::Finalize);
      if (result.truncated) {
        // Depth and idling report the budget horizon the trial ran out at.
        makespan = std::max(makespan, budget);
      }
      // Generation ends with the trial, at its makespan: the last gate's
      // completion, or the budget when truncated (lazy services settle
      // their skipped windows up to it). Outages still open close there.
      if (delivery != nullptr) delivery->finish(makespan, result);
      faults.finish(makespan);

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
      result.avg_pair_age = pair_age_acc.mean();
      result.avg_remote_wait = remote_wait_acc.mean();
      result.avg_route_hops = route_hops_acc.mean();
    }
    observer.finish(makespan, faults.active());
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
  st.circuit = nullptr;
  st.teleport_model = nullptr;
  st.key.circuit = nullptr;
}

RunResult RunContext::execute(const Circuit& circuit,
                              const std::vector<int>& assignment,
                              const ArchConfig& config, DesignKind design,
                              std::uint64_t seed,
                              const noise::TeleportFidelityModel* model) {
  state_->prepare(circuit, assignment, config, design, seed, model,
                  /*validate=*/true);
  return state_->do_run();
}

RunResult RunContext::execute_validated(const Circuit& circuit,
                                        const std::vector<int>& assignment,
                                        const ArchConfig& config,
                                        DesignKind design, std::uint64_t seed) {
  state_->prepare(circuit, assignment, config, design, seed, nullptr,
                  /*validate=*/false);
  return state_->do_run();
}

}  // namespace dqcsim::runtime
