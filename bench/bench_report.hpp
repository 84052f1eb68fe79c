/// \file bench_report.hpp
/// \brief Machine-readable benchmark reports: every bench executable emits
/// a BENCH_<name>.json next to its console output so CI (and humans) can
/// track the repo's performance trajectory over time.
///
/// Schema (schema_version 1):
/// \code{.json}
/// {
///   "report": "perf_micro",
///   "schema_version": 1,
///   "kernels": [
///     {"name": "BM_EventQueueScheduleAndPop", "ns_per_op": 43868.8,
///      "items_per_s": 2.29e7, "iterations": 1534, "label": ""}
///   ]
/// }
/// \endcode
///
/// `ns_per_op` is wall time per benchmark iteration; `items_per_s` is the
/// bench's own throughput notion (gates/s, runs/s, ...; 0 when untracked).
/// CI's bench-smoke job diffs these files against ci/bench_baseline.json
/// (see ci/check_bench_regression.py).

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dqcsim::bench {

/// One measured kernel/section.
struct KernelResult {
  std::string name;
  double ns_per_op = 0.0;
  double items_per_s = 0.0;
  double iterations = 0.0;
  std::string label;
  /// Extra named metrics (e.g. allocs_per_op); emitted as a JSON object
  /// when non-empty.
  std::vector<std::pair<std::string, double>> counters;
};

/// Accumulates kernel results and writes BENCH_<name>.json.
class BenchReport {
 public:
  explicit BenchReport(std::string name);

  void add(KernelResult result);

  /// Time one call of `fn` as a section named `name`; `items` scales the
  /// items/s throughput (ns_per_op is per item when items > 0).
  template <typename F>
  void time_section(const std::string& name, std::size_t items, F&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count();
    KernelResult r;
    r.name = name;
    r.iterations = 1.0;
    if (items > 0) {
      r.ns_per_op = ns / static_cast<double>(items);
      r.items_per_s = static_cast<double>(items) / (ns * 1e-9);
    } else {
      r.ns_per_op = ns;
    }
    add(std::move(r));
  }

  const std::vector<KernelResult>& results() const noexcept {
    return results_;
  }

  /// "BENCH_<name>.json" in the working directory.
  std::string path() const;

  /// Write the JSON report and print a one-line note to stdout.
  void write() const;

 private:
  std::string name_;
  std::vector<KernelResult> results_;
};

}  // namespace dqcsim::bench
