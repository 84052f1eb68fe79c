/// \file bench.hpp
/// \brief Shared types of perfbench: workload inputs, the call
/// list, robust statistics, and metric output.

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "partition/partitioner.hpp"
#include "runtime/arch_config.hpp"
#include "runtime/design.hpp"
#include "runtime/metrics.hpp"

namespace perfbench {

class Tracer;

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One run_design call of a workload's call list.
struct CallSpec {
  std::size_t circuit = 0;  ///< index into Inputs::circuits
  dqcsim::runtime::ArchConfig config;
  dqcsim::runtime::DesignKind design = dqcsim::runtime::DesignKind::AsyncBuf;
  int runs = 1;
  std::string label;
};

/// Everything a workload's calls need, built by Workload::setup.
struct Inputs {
  std::vector<dqcsim::Circuit> circuits;
  std::vector<dqcsim::partition::PartitionResult> parts;  ///< per circuit
  std::vector<double> ideal_depth;                         ///< per circuit
  std::vector<double> ideal_fidelity;                      ///< per circuit
  std::vector<CallSpec> calls;

  const std::vector<int>& assignment(const CallSpec& c) const {
    return parts[c.circuit].assignment;
  }
};

/// Host time spent in each layer while building one Inputs.
struct SetupTiming {
  double gen_ms = 0.0;
  double partition_ms = 0.0;
  double ideal_ms = 0.0;
};

/// A benchmark workload: a fixed input recipe plus run-length tuning.
struct Workload {
  std::string name;
  /// Build the inputs; `tracer` (may be null) records layer spans.
  Inputs (*setup)(SetupTiming& timing, Tracer* tracer) = nullptr;
  /// Repetitions of the call list folded into the sim_* metrics per
  /// measured second. The loop always completes at least this many, so the
  /// sim_* metrics are exact for a given seed and run length.
  double sim_reps_per_second = 1.0;
  /// Trials of the pool probes' large call (pool.scaling) and small call
  /// (pool.small_call_ratio).
  int large_runs = 1024;
  int small_runs = 16;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Command-line options shared by both modes.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

/// Fresh, non-overlapping trial seeds: every call gets the next `runs`
/// consecutive seeds of a stream derived from the workload seed, so no
/// trial is ever run twice in one process.
class SeedStream {
 public:
  SeedStream(std::uint64_t workload_seed, const std::string& workload);
  std::uint64_t next(int runs) {
    const std::uint64_t s = base_ + used_;
    used_ += static_cast<std::uint64_t>(runs);
    return s;
  }

 private:
  std::uint64_t base_ = 0;
  std::uint64_t used_ = 0;
};

/// Linear-interpolated sample quantile (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> v, double q);

/// The robust reduction applied to every host timing: the lower quartile
/// of the samples (see README.md "Host noise").
inline constexpr double kRobustQuantile = 0.25;
inline double robust(const std::vector<double>& v) {
  return quantile(v, kRobustQuantile);
}

/// Output checks on one run_design aggregate (they define fail_frac):
/// right trial count, finite values, nothing truncated, depth >= ideal,
/// 0 < fidelity <= ideal. Returns an empty string when the call passes.
std::string check_call(const dqcsim::runtime::AggregateResult& agg,
                       const CallSpec& call, const Inputs& in);

/// Bit-identity of two aggregates over every accumulator.
bool bit_identical(const dqcsim::runtime::AggregateResult& a,
                   const dqcsim::runtime::AggregateResult& b);

/// Process peak resident set size (VmHWM) in MiB.
double peak_rss_mb();

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Result of one benchmark run.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;   ///< emitted in the JSON line
  std::vector<Metric> extra;     ///< printed in the table only
  std::vector<std::string> notes;
};

Report run_end_to_end(const Workload& w, const Options& opt);
Report run_traced(const Workload& w, const Options& opt);

}  // namespace perfbench
