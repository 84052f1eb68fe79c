/// \file end_to_end.cpp
/// \brief The untraced run: the end-to-end metrics of one workload.
///
/// A closed loop with one caller: the call list (every CallSpec of the
/// workload, in order) is repeated until --seconds have passed, each call a
/// runtime::run_design at threads = 0 (all cores) with fresh trial seeds.
/// Each call is one sample; the host-time metrics reduce every call slot's
/// samples with the robust lower-quartile statistic (README.md "Host
/// noise"). Output checks and one set-up sample per repetition run between
/// calls, outside the timed region.

#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "runtime/experiment.hpp"

namespace perfbench {

namespace dr = dqcsim::runtime;

namespace {

/// Minimum set-up samples per run (setup_s is only milliseconds long).
constexpr std::size_t kMinSetupSamples = 7;

double timed_setup(const Workload& w, Inputs* keep) {
  SetupTiming timing;
  const auto t0 = Clock::now();
  Inputs in = w.setup(timing, nullptr);
  const double s = ms_between(t0, Clock::now()) * 1e-3;
  if (keep != nullptr) *keep = std::move(in);
  return s;
}

}  // namespace

Report run_end_to_end(const Workload& w, const Options& opt) {
  Report report;
  SeedStream seeds(opt.seed, w.name);

  std::vector<double> setup_s;
  Inputs in;
  setup_s.push_back(timed_setup(w, &in));

  const std::size_t slots = in.calls.size();
  std::vector<std::vector<double>> ms_per_work(slots);
  double total_ms = 0.0;
  std::vector<double> work_sum(slots, 0.0);
  const int sim_reps =
      std::max(1, static_cast<int>(opt.seconds * w.sim_reps_per_second));
  double depth_rel_sum = 0.0;
  double nlog_fid_sum = 0.0;
  std::size_t sim_calls = 0;

  // The call re-run at threads = 1 for the determinism check.
  dr::AggregateResult check_agg;
  std::uint64_t check_seed = 0;

  const auto start = Clock::now();
  int rep = 0;
  for (;;) {
    for (std::size_t s = 0; s < slots; ++s) {
      const CallSpec& call = in.calls[s];
      const std::uint64_t base = seeds.next(call.runs);
      const auto t0 = Clock::now();
      dr::AggregateResult agg =
          dr::run_design(in.circuits[call.circuit], in.assignment(call),
                         call.config, call.design, call.runs, base, 0);
      const double ms = ms_between(t0, Clock::now());
      const double work = agg.depth.mean() * call.runs;
      total_ms += ms;
      ms_per_work[s].push_back(ms / work);
      work_sum[s] += work;

      ++report.attempted;
      const std::string err = check_call(agg, call, in);
      if (!err.empty()) {
        ++report.failed;
        if (report.notes.size() < 8) {
          report.notes.push_back(call.label + ": " + err);
        }
      }
      if (rep < sim_reps) {
        depth_rel_sum += agg.depth.mean() / in.ideal_depth[call.circuit];
        nlog_fid_sum += -std::log10(agg.fidelity.mean());
        ++sim_calls;
      }
      if (rep == 0 && s == 0) {
        check_agg = std::move(agg);
        check_seed = base;
      }
    }
    ++rep;
    setup_s.push_back(timed_setup(w, nullptr));
    if (rep >= sim_reps &&
        ms_between(start, Clock::now()) >= opt.seconds * 1e3) {
      break;
    }
  }
  const double measured_s = ms_between(start, Clock::now()) * 1e-3;
  while (setup_s.size() < kMinSetupSamples) {
    setup_s.push_back(timed_setup(w, nullptr));
  }

  // Thread-count invariance: the first call again, serially.
  {
    const CallSpec& call = in.calls[0];
    const dr::AggregateResult serial =
        dr::run_design(in.circuits[call.circuit], in.assignment(call),
                       call.config, call.design, call.runs, check_seed, 1);
    ++report.attempted;
    if (!bit_identical(serial, check_agg)) {
      ++report.failed;
      report.notes.push_back(call.label +
                             ": threads=1 result differs from threads=0");
    }
  }
  report.correct = report.failed == 0;

  // Host metrics. A call's cost is proportional to the simulated time its
  // trials cover (every generation service runs until the makespan), so
  // each slot's host speed is the robust statistic of its calls' host ms per
  // simulated time unit, and its estimated time is its summed simulated
  // work at that speed. Seed-to-seed work differences then enter only
  // through the run's total work, and host slow phases only through the
  // robust statistic.
  const auto reps = static_cast<double>(rep);
  double trials = 0.0;
  double est_ms = 0.0;
  std::vector<double> slot_ms;
  for (std::size_t s = 0; s < slots; ++s) {
    const double q = robust(ms_per_work[s]);
    est_ms += q * work_sum[s];
    slot_ms.push_back(q * work_sum[s] / reps);
    trials += reps * static_cast<double>(in.calls[s].runs);
  }

  report.metrics = {
      {"setup_s", robust(setup_s), "s"},
      {"trials_per_s", trials / (est_ms * 1e-3), "1/s"},
      {"call_ms_p50", quantile(slot_ms, 0.5), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"sim_depth_rel_ideal", depth_rel_sum / static_cast<double>(sim_calls),
       "x"},
      {"sim_fidelity_nlog10", nlog_fid_sum / static_cast<double>(sim_calls),
       "log10"},
  };
  report.extra = {
      {"fail_frac",
       static_cast<double>(report.failed) /
           static_cast<double>(report.attempted),
       "fraction"},
      {"calls_timed", reps * static_cast<double>(slots), "count"},
      {"repetitions", reps, "count"},
      {"sim_repetitions", static_cast<double>(sim_reps), "count"},
      {"setup_samples", static_cast<double>(setup_s.size()), "count"},
      {"measured_s", measured_s, "s"},
      {"whole_run_trials_per_s", trials / (total_ms * 1e-3), "1/s"},
      {"setup_s_median", quantile(setup_s, 0.5), "s"},
  };
  return report;
}

}  // namespace perfbench
