/// \file ablation_segment_size.cpp
/// \brief Ablation of the adaptive segment size m (paper §III-D).
///
/// The paper sets m = (#comm qubits) * p_succ = 4 and leaves other values
/// unexplored. This ablation sweeps m for adapt_buf on QAOA-r8-32 and
/// reports depth/fidelity plus the mix of ASAP/ALAP/original decisions the
/// controller makes at each granularity.
///
/// Every cell runs the fixed bench::kRuns trials (DQCSIM_BENCH_RUNS does not
/// apply), so the BENCH_ablation_segment_size.json counters (depth,
/// fidelity and the decision mix) are bit-stable across machines and CI
/// gates them exactly (see ci/bench_baseline.json).

#include <chrono>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"

namespace {

using namespace dqcsim;

/// Run one cell and record its wall time and pinned counters in `report`.
runtime::AggregateResult run_cell(bench::BenchReport& report,
                                  const std::string& name, const Circuit& qc,
                                  const std::vector<int>& assignment,
                                  const runtime::ArchConfig& config,
                                  runtime::DesignKind design) {
  const auto t0 = std::chrono::steady_clock::now();
  auto agg = runtime::run_design(qc, assignment, config, design, bench::kRuns);
  const auto t1 = std::chrono::steady_clock::now();
  const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
  bench::KernelResult r;
  r.name = name;
  r.iterations = 1.0;
  r.ns_per_op = ns / bench::kRuns;
  r.items_per_s = bench::kRuns / (ns * 1e-9);
  r.counters = {{"depth_mean", agg.depth.mean()},
                {"fidelity_mean", agg.fidelity.mean()},
                {"segments_asap_mean", agg.segments_asap.mean()},
                {"segments_alap_mean", agg.segments_alap.mean()},
                {"segments_original_mean", agg.segments_original.mean()}};
  report.add(std::move(r));
  return agg;
}

}  // namespace

int main() {
  std::cout << "=== Ablation: adaptive segment size m (QAOA-r8-32) ===\n\n";
  bench::BenchReport report("ablation_segment_size");

  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = bench::partition2(qc);

  TablePrinter table({"m", "depth", "rel. async_buf", "fidelity"});
  CsvWriter csv(bench::csv_path("ablation_segment_size"),
                {"m", "depth_mean", "depth_rel_async", "fidelity_mean"});

  // Non-adaptive async_buf is the reference (equivalent to m = infinity
  // with the original schedule everywhere).
  runtime::ArchConfig base;
  const auto async_ref =
      run_cell(report, "QAOA-r8-32/async_buf", qc, part.assignment, base,
               runtime::DesignKind::AsyncBuf);
  const double ref_depth = async_ref.depth.mean();

  for (const std::size_t m : {1u, 2u, 4u, 8u, 16u, 32u}) {
    runtime::ArchConfig config;
    config.segment_size = m;
    const auto agg = run_cell(
        report, "QAOA-r8-32/adapt_buf/m=" + std::to_string(m), qc,
        part.assignment, config, runtime::DesignKind::AdaptBuf);
    table.add_row({TablePrinter::fmt(static_cast<std::size_t>(m)),
                   TablePrinter::fmt(agg.depth.mean(), 1),
                   TablePrinter::fmt(agg.depth.mean() / ref_depth, 3),
                   TablePrinter::fmt(agg.fidelity.mean(), 4)});
    csv.add_row({std::to_string(m), TablePrinter::fmt(agg.depth.mean(), 3),
                 TablePrinter::fmt(agg.depth.mean() / ref_depth, 4),
                 TablePrinter::fmt(agg.fidelity.mean(), 5)});
  }
  table.print(std::cout);
  report.write();
  std::cout << "\nReference: async_buf (no adaptation) depth = "
            << TablePrinter::fmt(ref_depth, 1)
            << ". The paper's default m = #comm * p_succ = "
            << base.effective_segment_size()
            << " should sit at or near the sweet spot: very small m reacts "
               "per-gate but loses lookahead; very large m degenerates to "
               "the non-adaptive schedule.\n";
  return 0;
}
