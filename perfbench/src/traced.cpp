/// \file traced.cpp
/// \brief The traced run: per-layer metrics of one workload.
///
/// Spans from spans.hpp sit around the benchmark's calls into each layer's
/// public API; the opt-in obs::Observe collector supplies registry counters
/// and obs::Profile phase times; the exact per-trial counts come from the
/// RunResult of RunContext::execute. The run is split into phases, each
/// given a share of --seconds (and at least a minimum sample count):
///
///   setup layers   gen / partition / runtime.ideal         (kSetupShare)
///   noise          TeleportFidelityModel construction      (kNoiseShare)
///   calls          call list, untraced and observed reps   (kCallShare)
///   trials         cold + warm RunContext::execute         (kTrialShare)
///   fixed cost     run_design(runs = 1)                    (kFixedShare)
///   pool           1 vs all threads, large and small calls (kPoolShare)
///   des            Simulator schedule + dispatch churn     (kDesShare)

#include <memory>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "des/simulator.hpp"
#include "noise/teleport_fidelity.hpp"
#include "obs/observe.hpp"
#include "runtime/engine.hpp"
#include "runtime/experiment.hpp"
#include "spans.hpp"

namespace perfbench {

namespace dr = dqcsim::runtime;

namespace {

constexpr double kSetupShare = 0.08;
constexpr double kNoiseShare = 0.04;
constexpr double kCallShare = 0.40;
constexpr double kTrialShare = 0.25;
constexpr double kFixedShare = 0.05;
constexpr double kPoolShare = 0.12;
constexpr double kDesShare = 0.04;

/// Repeat `body` until `min_n` calls are done and `budget_s` has passed.
template <typename F>
void repeat_for(double budget_s, int min_n, F&& body) {
  const auto t0 = Clock::now();
  for (int i = 0;; ++i) {
    if (i >= min_n && ms_between(t0, Clock::now()) >= budget_s * 1e3) return;
    body(i);
  }
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Host ns per schedule + dispatch: every dispatched event schedules its
/// successor at a pseudo-random delay, over a standing population of
/// kPending events.
class DesChurn {
 public:
  static constexpr std::size_t kPending = 1024;
  static constexpr std::size_t kEvents = 1 << 20;

  explicit DesChurn(std::uint64_t seed) {
    delays_.resize(4096);
    std::uint64_t x = seed | 1;
    for (double& d : delays_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      d = 1.0 + static_cast<double>(x % 1000) * 0.01;
    }
    sim_.reserve_events(2 * kPending);
  }

  double ns_per_event() {
    sim_.reset();
    next_ = 0;
    for (std::size_t i = 0; i < kPending; ++i) {
      sim_.schedule_in(delay(), Tick{this});
    }
    const auto t0 = Clock::now();
    const std::size_t n = sim_.run(kEvents);
    return ms_between(t0, Clock::now()) * 1e6 / static_cast<double>(n);
  }

 private:
  struct Tick {
    DesChurn* self;
    void operator()() const {
      self->sim_.schedule_in(self->delay(), Tick{self});
    }
  };
  double delay() { return delays_[next_++ & (delays_.size() - 1)]; }

  dqcsim::des::Simulator sim_;
  std::vector<double> delays_;
  std::size_t next_ = 0;
};

/// Sums of the exact per-trial counts over warm trials.
struct TrialCounts {
  double trials = 0, host_ns = 0;
  double attempts = 0, successes = 0, consumed = 0, pair_age = 0;
  double remote_gates = 0, remote_wait = 0;
  double seg_asap = 0, seg_alap = 0, seg_orig = 0;
  double route_hops = 0, swaps = 0;
  double reroutes = 0, downtime = 0, salvaged = 0;

  void add(const dr::RunResult& r, double ns) {
    trials += 1;
    host_ns += ns;
    attempts += static_cast<double>(r.epr_attempts);
    successes += static_cast<double>(r.epr_successes);
    consumed += static_cast<double>(r.epr_consumed);
    pair_age += r.avg_pair_age;
    remote_gates += static_cast<double>(r.remote_gates);
    remote_wait += r.avg_remote_wait;
    seg_asap += static_cast<double>(r.segments_asap);
    seg_alap += static_cast<double>(r.segments_alap);
    seg_orig += static_cast<double>(r.segments_original);
    route_hops += r.avg_route_hops;
    swaps += static_cast<double>(r.entanglement_swaps);
    reroutes += static_cast<double>(r.reroutes);
    downtime += r.outage_downtime;
    salvaged += static_cast<double>(r.pairs_salvaged);
  }
};

dqcsim::noise::TeleportNoiseParams noise_params(const dr::ArchConfig& c) {
  dqcsim::noise::TeleportNoiseParams p;
  p.local_2q_fidelity = c.fid.local_cnot;
  p.local_1q_fidelity = c.fid.one_qubit;
  p.readout_fidelity = c.fid.measurement;
  return p;
}

/// Index of the call the single-call probes use: the workload's
/// QAOA-r8-32 async_buf call at the default p_succ and buffers when it has
/// one, else the first call.
std::size_t probe_slot(const Inputs& in) {
  for (std::size_t s = 0; s < in.calls.size(); ++s) {
    const CallSpec& c = in.calls[s];
    if (in.circuits[c.circuit].name() == "QAOA-r8-32" &&
        c.design == dr::DesignKind::AsyncBuf &&
        c.config.p_succ == dr::ArchConfig{}.p_succ &&
        c.config.buffer_per_node == dr::ArchConfig{}.buffer_per_node) {
      return s;
    }
  }
  return 0;
}

}  // namespace

Report run_traced(const Workload& w, const Options& opt) {
  Report report;
  Tracer tracer;
  SeedStream seeds(opt.seed, w.name);
  const double T = opt.seconds;

  // --- set-up layers -------------------------------------------------------
  std::vector<double> gen_ms, partition_ms, ideal_ms;
  Inputs in;
  repeat_for(T * kSetupShare, 3, [&](int i) {
    SetupTiming timing;
    const Tracer::Scope span(&tracer, "bench.setup");
    Inputs built = w.setup(timing, &tracer);
    gen_ms.push_back(timing.gen_ms);
    partition_ms.push_back(timing.partition_ms);
    ideal_ms.push_back(timing.ideal_ms);
    if (i == 0) in = std::move(built);
  });
  double cut_sum = 0.0;
  for (const auto& p : in.parts) cut_sum += static_cast<double>(p.cut);

  const std::size_t slots = in.calls.size();
  const std::size_t probe = probe_slot(in);
  const CallSpec& pcall = in.calls[probe];
  const dqcsim::Circuit& pcirc = in.circuits[pcall.circuit];

  // --- noise: teleport model construction ----------------------------------
  std::vector<double> model_ms;
  repeat_for(T * kNoiseShare, 5, [&](int) {
    const Tracer::Scope span(&tracer, "noise.teleport_model");
    const auto t0 = Clock::now();
    const dqcsim::noise::TeleportFidelityModel model(
        noise_params(pcall.config));
    model_ms.push_back(ms_between(t0, Clock::now()));
  });

  // --- calls: untraced and observed repetitions, alternating ---------------
  auto observe = dqcsim::obs::make_observe();
  std::vector<std::vector<double>> plain_ms(slots), observed_ms(slots);
  std::vector<double> all_plain_ms;
  double observed_wall_thread_ms = 0.0;
  double observed_trials = 0.0;
  repeat_for(T * kCallShare, 2, [&](int i) {
    const bool observed = (i % 2) == 1;
    for (std::size_t s = 0; s < slots; ++s) {
      const CallSpec& call = in.calls[s];
      dr::ArchConfig config = call.config;
      if (observed) config.observe = observe;
      const std::uint64_t base = seeds.next(call.runs);
      const auto t0 = Clock::now();
      dr::AggregateResult agg;
      {
        const Tracer::Scope span(observed ? &tracer : nullptr,
                                 "runtime.run_design");
        agg = dr::run_design(in.circuits[call.circuit], in.assignment(call),
                             config, call.design, call.runs, base, 0);
      }
      const double ms = ms_between(t0, Clock::now());
      ++report.attempted;
      if (!check_call(agg, call, in).empty()) ++report.failed;
      if (observed) {
        observed_ms[s].push_back(ms);
        observed_wall_thread_ms +=
            ms * static_cast<double>(dqcsim::parallel_worker_count(
                     static_cast<std::size_t>(call.runs)));
        observed_trials += call.runs;
      } else {
        plain_ms[s].push_back(ms);
        all_plain_ms.push_back(ms);
      }
    }
  });
  dqcsim::obs::Registry registry;
  dqcsim::obs::Profile profile;
  {
    const Tracer::Scope span(&tracer, "obs.collect");
    registry = observe->collector.registry();
    profile = observe->collector.profile();
  }
  double trials_per_rep = 0.0, plain_sum = 0.0, observed_sum = 0.0;
  for (std::size_t s = 0; s < slots; ++s) {
    trials_per_rep += in.calls[s].runs;
    plain_sum += robust(plain_ms[s]);
    observed_sum += robust(observed_ms[s]);
  }
  const double plain_tps = trials_per_rep / plain_sum;
  const double observed_tps = trials_per_rep / observed_sum;
  double phase_ns[dqcsim::obs::kPhaseCount] = {};
  double phase_total_ns = 0.0;
  for (std::size_t p = 0; p < dqcsim::obs::kPhaseCount; ++p) {
    phase_ns[p] = static_cast<double>(
        profile.total_ns(static_cast<dqcsim::obs::Phase>(p)));
    phase_total_ns += phase_ns[p];
  }
  const auto counter = [&](const char* name) {
    return static_cast<double>(registry.counter_value(name));
  };
  const double tail_n = static_cast<double>(all_plain_ms.size());
  const double tail_q = tail_n > 10.0 ? 1.0 - 10.0 / tail_n : 1.0;

  // --- trials: cold and warm RunContext::execute on this thread ------------
  std::vector<dqcsim::noise::TeleportFidelityModel> models;
  for (const CallSpec& call : in.calls) {
    models.emplace_back(noise_params(call.config));
  }
  std::vector<double> cold_us;
  std::vector<std::vector<double>> warm_us(slots);
  TrialCounts counts;
  std::vector<dr::RunContext> contexts(slots);
  const auto execute = [&](std::size_t s, std::uint64_t seed) {
    const CallSpec& call = in.calls[s];
    const Tracer::Scope span(&tracer, "runtime.execute");
    return contexts[s].execute(in.circuits[call.circuit], in.assignment(call),
                               call.config, call.design, seed, &models[s]);
  };
  for (std::size_t s = 0; s < slots; ++s) {
    const auto t0 = Clock::now();
    execute(s, seeds.next(1));
    cold_us.push_back(ms_between(t0, Clock::now()) * 1e3);
  }
  repeat_for(T * kTrialShare, 1, [&](int) {
    for (std::size_t s = 0; s < slots; ++s) {
      const auto t0 = Clock::now();
      const dr::RunResult r = execute(s, seeds.next(1));
      const double us = ms_between(t0, Clock::now()) * 1e3;
      warm_us[s].push_back(us);
      counts.add(r, us * 1e3);
    }
  });
  double warm_sum_us = 0.0;
  for (const auto& v : warm_us) warm_sum_us += robust(v);
  const double warm_trial_us = warm_sum_us / static_cast<double>(slots);
  const double seg_total = counts.seg_asap + counts.seg_alap + counts.seg_orig;

  // --- per-call fixed cost: run_design(runs = 1) minus the same trial warm -
  // (a one-trial call runs inline on this thread, so only the fixed cost
  // differs).
  std::vector<double> fixed_ms;
  repeat_for(T * kFixedShare, 3, [&](int) {
    const std::uint64_t seed = seeds.next(1);
    auto t0 = Clock::now();
    {
      const Tracer::Scope span(&tracer, "runtime.run_design");
      dr::run_design(pcirc, in.assignment(pcall), pcall.config, pcall.design,
                     1, seed, 0);
    }
    const double call_ms = ms_between(t0, Clock::now());
    t0 = Clock::now();
    execute(probe, seed);
    fixed_ms.push_back(call_ms - ms_between(t0, Clock::now()));
  });

  // --- pool: all threads vs one, on a large and a small call ---------------
  std::vector<double> large_par, large_ser, small_par, small_ser;
  const auto pool_call = [&](int runs, int threads, std::vector<double>& out) {
    const Tracer::Scope span(&tracer, "common.thread_pool");
    const auto t0 = Clock::now();
    dr::run_design(pcirc, in.assignment(pcall), pcall.config, pcall.design,
                   runs, seeds.next(runs), threads);
    out.push_back(ms_between(t0, Clock::now()));
  };
  repeat_for(T * kPoolShare, 1, [&](int) {
    pool_call(w.large_runs, 0, large_par);
    pool_call(w.large_runs, 1, large_ser);
    pool_call(w.small_runs, 0, small_par);
    pool_call(w.small_runs, 1, small_ser);
  });

  // --- des: schedule + dispatch churn --------------------------------------
  DesChurn churn(opt.seed);
  std::vector<double> des_ns;
  repeat_for(T * kDesShare, 3, [&](int) {
    const Tracer::Scope span(&tracer, "des.churn");
    des_ns.push_back(churn.ns_per_event());
  });

  report.correct = report.failed == 0;
  const double n = counts.trials;
  const double tc = counter("setup_cache_hits") + counter("setup_cache_misses");
  const double rc = counter("route_cache_hits") + counter("route_cache_misses");
  const auto phase_us = [&](dqcsim::obs::Phase p) {
    return phase_ns[static_cast<std::size_t>(p)] * 1e-3 / observed_trials;
  };
  using dqcsim::obs::Phase;
  report.metrics = {
      {"gen.build_ms", robust(gen_ms), "ms"},
      {"partition.ms", robust(partition_ms), "ms"},
      {"partition.cut", cut_sum / static_cast<double>(in.parts.size()),
       "count"},
      {"runtime.ideal_ms", robust(ideal_ms), "ms"},
      {"noise.teleport_model_ms", robust(model_ms), "ms"},
      {"runtime.call_fixed_ms", robust(fixed_ms), "ms"},
      {"runtime.cold_trial_us", quantile(cold_us, 0.5), "us"},
      {"runtime.setup_cache_hit_frac", ratio(counter("setup_cache_hits"), tc),
       "fraction"},
      {"runtime.warm_trial_us", warm_trial_us, "us"},
      {"runtime.phase_setup_us", phase_us(Phase::Setup), "us"},
      {"runtime.phase_routing_us", phase_us(Phase::Routing), "us"},
      {"runtime.phase_plan_us", phase_us(Phase::Plan), "us"},
      {"runtime.phase_drive_us", phase_us(Phase::Drive), "us"},
      {"runtime.phase_finalize_us", phase_us(Phase::Finalize), "us"},
      {"runtime.profile_cover_frac",
       ratio(phase_total_ns * 1e-6, observed_wall_thread_ms), "fraction"},
      {"runtime.call_ms_tail", quantile(all_plain_ms, tail_q), "ms"},
      {"runtime.call_count", tail_n, "count"},
      {"pool.scaling", ratio(robust(large_ser), robust(large_par)), "x"},
      {"pool.small_call_ratio", ratio(robust(small_par), robust(small_ser)),
       "x"},
      {"des.ns_per_event", robust(des_ns), "ns"},
      {"ent.attempts_per_trial", ratio(counts.attempts, n), "count"},
      {"ent.success_frac", ratio(counts.successes, counts.attempts),
       "fraction"},
      {"ent.useful_frac", ratio(counts.consumed, counts.successes),
       "fraction"},
      {"ent.host_ns_per_attempt", ratio(counts.host_ns, counts.attempts),
       "ns"},
      {"ent.pair_age_mean", ratio(counts.pair_age, n), "t_cnot"},
      {"sched.remote_gates_per_trial", ratio(counts.remote_gates, n),
       "count"},
      {"sched.remote_wait_mean", ratio(counts.remote_wait, n), "t_cnot"},
      {"sched.segments_asap_frac", ratio(counts.seg_asap, seg_total),
       "fraction"},
      {"sched.segments_alap_frac", ratio(counts.seg_alap, seg_total),
       "fraction"},
      {"net.route_hops_mean", ratio(counts.route_hops, n), "hops"},
      {"net.swaps_per_trial", ratio(counts.swaps, n), "count"},
      {"net.route_cache_hit_frac", ratio(counter("route_cache_hits"), rc),
       "fraction"},
      {"scenario.reroutes_per_trial", ratio(counts.reroutes, n), "count"},
      {"scenario.downtime_per_trial", ratio(counts.downtime, n), "t_cnot"},
      {"scenario.pairs_salvaged_per_trial", ratio(counts.salvaged, n),
       "count"},
      {"obs.trace_overhead_frac", ratio(plain_tps - observed_tps, plain_tps),
       "fraction"},
  };
  for (const auto& [layer, ms] : tracer.self_ms_by_layer()) {
    report.extra.push_back({"self_ms." + layer, ms, "ms"});
  }
  report.extra.push_back({"runtime.call_ms_tail_pct", tail_q * 100.0, "%"});
  report.extra.push_back({"warm_trials", n, "count"});
  report.extra.push_back({"spans", static_cast<double>(tracer.spans().size()),
                          "count"});

  const std::string path =
      opt.out_dir + "/trace_" + w.name + "_" + std::to_string(opt.seed) +
      ".json";
  if (tracer.write_json(path, w.name, opt.seed, report.metrics)) {
    report.notes.push_back("spans written to " + path);
  } else {
    report.notes.push_back("could not write " + path);
  }
  return report;
}

}  // namespace perfbench
