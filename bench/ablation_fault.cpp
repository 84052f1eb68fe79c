/// \file ablation_fault.cpp
/// \brief Ablation: link-outage rate x interconnect topology x node count.
///
/// Sweeps stochastic per-edge link failures (scenario::RandomLinkFailures,
/// mean up-time mtbf in {off, 1500, 400} local-CNOT units with a 120-unit
/// repair window) over {chain, ring, grid, star} x {4, 8, 12, 16} QPU nodes
/// on the 32-qubit QAOA workload. Each cell reports the usual depth/fidelity
/// figures of merit plus the fault-scenario accounting: mean route
/// re-establishments per run and mean routeless downtime.
///
/// The nodes=16 cells run under a trial budget
/// (ArchConfig::max_trial_sim_time): on a 16-chain the workload's
/// long-distance pairs compose p_succ ~ 0.4^hops and outages multiply the
/// makespan by the route availability, so the stationary chain@16 baseline
/// alone would run for minutes. The budget truncates those trials at a fixed
/// sim-time horizon (truncated_mean reports the truncated fraction; depth is
/// clamped to the horizon), which keeps the sweep bounded without excluding
/// the cells outright.
///
/// A second sweep exercises degraded-mode delivery: swap-as-you-go per-edge
/// services with mid-flight pair salvage on vs off, over the fault-prone
/// cells. With salvage off, severing a cut edge discards the buffered halves
/// at surviving nodes and the traffic stalls for the repair window; with
/// salvage on, the surviving per-edge stock keeps serving the severed route,
/// so outage downtime (and the depth penalty it causes) strictly shrinks on
/// the cut-edge topologies.
///
/// Expected shape: redundant topologies (ring, grid) absorb most outages by
/// switching the affected logical links to surviving detours — reroutes
/// climb with the outage rate while downtime stays near zero. Cut-edge
/// topologies (chain, star leaves) cannot detour: every failure stalls its
/// traffic for the repair window, so downtime grows with the rate and every
/// reroute is a recovery. Depth degrades accordingly; fidelity additionally
/// pays for the longer detour routes.
///
/// All results derive from fixed seeds, so counters are bit-stable across
/// machines and CI gates them exactly (see ci/bench_baseline.json).

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace {

using namespace dqcsim;

net::Topology make_topology(const std::string& name, int nodes) {
  if (name == "chain") return net::Topology::chain(nodes);
  if (name == "ring") return net::Topology::ring(nodes);
  if (name == "star") return net::Topology::star(nodes);
  // Grid: 4 -> 2x2, 8 -> 2x4, 12 -> 3x4, 16 -> 4x4.
  if (nodes == 16) return net::Topology::grid(4, 4);
  return net::Topology::grid(nodes == 12 ? 3 : 2, nodes == 4 ? 2 : 4);
}

/// Sim-time budget for the nodes=16 cells (see file comment).
constexpr double kBudget16 = 200000.0;

struct CellTiming {
  runtime::AggregateResult agg;
  double ns = 0.0;
};

CellTiming run_cell(const Circuit& qc, const partition::PartitionResult& part,
                    const runtime::ArchConfig& config, int runs) {
  CellTiming out;
  const auto t0 = std::chrono::steady_clock::now();
  out.agg = runtime::run_design(qc, part.assignment, config,
                                runtime::DesignKind::AsyncBuf, runs);
  const auto t1 = std::chrono::steady_clock::now();
  out.ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
  return out;
}

}  // namespace

int main() {
  std::cout << "=== Ablation: outage rate x topology x node count ===\n\n";

  const int runs = bench::runs_from_env();
  bench::BenchReport report("ablation_fault");
  TablePrinter table({"topology", "#nodes", "mtbf", "reroutes/run",
                      "downtime/run", "depth", "fidelity", "trunc"});
  CsvWriter csv(bench::csv_path("ablation_fault"),
                {"benchmark", "topology", "nodes", "mtbf", "reroutes_mean",
                 "outage_downtime_mean", "depth_mean", "fidelity_mean",
                 "truncated_mean"});

  const auto id = gen::BenchmarkId::QAOA_R8_32;
  const Circuit qc = gen::make_benchmark(id);
  for (const int nodes : {4, 8, 12, 16}) {
    for (const std::string& name :
         {std::string("chain"), std::string("ring"), std::string("grid"),
          std::string("star")}) {
      const net::Topology topo = make_topology(name, nodes);
      const auto part = runtime::partition_circuit(qc, topo);

      for (const double mtbf : {0.0, 1500.0, 400.0}) {
        runtime::ArchConfig config;
        config.num_nodes = nodes;
        config.comm_per_node = 16;
        config.buffer_per_node = 16;
        config.set_topology(topo);
        if (nodes == 16) config.max_trial_sim_time = kBudget16;
        if (mtbf > 0.0) {
          scenario::Scenario scn;
          scn.random_failures.mtbf = mtbf;
          scn.random_failures.duration = 120.0;
          config.set_scenario(std::move(scn));
        }

        const CellTiming cell = run_cell(qc, part, config, runs);
        const runtime::AggregateResult& agg = cell.agg;

        bench::KernelResult r;
        r.name = benchmark_name(id) + "/" + name + "/nodes=" +
                 std::to_string(nodes) + "/mtbf=" +
                 std::to_string(static_cast<int>(mtbf));
        std::cerr << r.name << ": " << (cell.ns * 1e-6) << " ms\n";
        r.iterations = 1.0;
        r.ns_per_op = cell.ns / static_cast<double>(runs);
        r.items_per_s = static_cast<double>(runs) / (cell.ns * 1e-9);
        // The distribution tails ride along for report readers (see
        // docs/BENCHMARKS.md); they are deliberately NOT gated in
        // ci/bench_baseline.json, which pins only the established means.
        r.counters = {
            {"reroutes_mean", agg.reroutes.mean()},
            {"outage_downtime_mean", agg.outage_downtime.mean()},
            {"outage_downtime_p50", agg.outage_downtime.quantile(0.5)},
            {"outage_downtime_p99", agg.outage_downtime.quantile(0.99)},
            {"avg_pair_age_p50", agg.avg_pair_age.quantile(0.5)},
            {"avg_pair_age_p99", agg.avg_pair_age.quantile(0.99)},
            {"avg_remote_wait_p50", agg.avg_remote_wait.quantile(0.5)},
            {"avg_remote_wait_p99", agg.avg_remote_wait.quantile(0.99)},
            {"depth_mean", agg.depth.mean()},
            {"fidelity_mean", agg.fidelity.mean()}};
        if (nodes == 16) {
          r.counters.emplace_back("truncated_mean", agg.truncated.mean());
        }
        report.add(std::move(r));

        table.add_row({name, TablePrinter::fmt(nodes),
                       TablePrinter::fmt(static_cast<int>(mtbf)),
                       TablePrinter::fmt(agg.reroutes.mean(), 2),
                       TablePrinter::fmt(agg.outage_downtime.mean(), 1),
                       TablePrinter::fmt(agg.depth.mean(), 1),
                       TablePrinter::fmt(agg.fidelity.mean(), 4),
                       TablePrinter::fmt(agg.truncated.mean(), 2)});
        csv.add_row({benchmark_name(id), name, std::to_string(nodes),
                     TablePrinter::fmt(mtbf, 0),
                     TablePrinter::fmt(agg.reroutes.mean(), 3),
                     TablePrinter::fmt(agg.outage_downtime.mean(), 3),
                     TablePrinter::fmt(agg.depth.mean(), 3),
                     TablePrinter::fmt(agg.fidelity.mean(), 5),
                     TablePrinter::fmt(agg.truncated.mean(), 3)});
      }
    }
  }
  table.print(std::cout);

  std::cout << "\n=== Degraded mode: swap-as-you-go pair salvage on/off "
               "===\n\n";
  TablePrinter stable({"topology", "mtbf", "salvage", "salvaged/run",
                       "discarded/run", "downtime/run", "depth"});
  for (const std::string& name : {std::string("chain"), std::string("ring")}) {
    const int nodes = 8;
    const net::Topology topo = make_topology(name, nodes);
    const auto part = runtime::partition_circuit(qc, topo);
    for (const double mtbf : {1500.0, 400.0}) {
      for (const bool salvage : {false, true}) {
        runtime::ArchConfig config;
        config.num_nodes = nodes;
        config.comm_per_node = 16;
        config.buffer_per_node = 16;
        config.set_topology(topo);
        config.swap_as_you_go = true;
        config.salvage_pairs = salvage;
        scenario::Scenario scn;
        scn.random_failures.mtbf = mtbf;
        scn.random_failures.duration = 120.0;
        config.set_scenario(std::move(scn));

        const CellTiming cell = run_cell(qc, part, config, runs);
        const runtime::AggregateResult& agg = cell.agg;

        bench::KernelResult r;
        r.name = benchmark_name(id) + "/" + name + "/nodes=" +
                 std::to_string(nodes) + "/mtbf=" +
                 std::to_string(static_cast<int>(mtbf)) + "/swapgo/salvage=" +
                 (salvage ? "on" : "off");
        std::cerr << r.name << ": " << (cell.ns * 1e-6) << " ms\n";
        r.iterations = 1.0;
        r.ns_per_op = cell.ns / static_cast<double>(runs);
        r.items_per_s = static_cast<double>(runs) / (cell.ns * 1e-9);
        r.counters = {{"pairs_salvaged_mean", agg.pairs_salvaged.mean()},
                      {"pairs_discarded_mean", agg.pairs_discarded.mean()},
                      {"outage_downtime_mean", agg.outage_downtime.mean()},
                      {"depth_mean", agg.depth.mean()},
                      {"fidelity_mean", agg.fidelity.mean()}};
        report.add(std::move(r));

        stable.add_row({name, TablePrinter::fmt(static_cast<int>(mtbf)),
                        salvage ? "on" : "off",
                        TablePrinter::fmt(agg.pairs_salvaged.mean(), 1),
                        TablePrinter::fmt(agg.pairs_discarded.mean(), 1),
                        TablePrinter::fmt(agg.outage_downtime.mean(), 1),
                        TablePrinter::fmt(agg.depth.mean(), 1)});
        csv.add_row({benchmark_name(id), name + "/swapgo/salvage=" +
                     (salvage ? std::string("on") : std::string("off")),
                     std::to_string(nodes), TablePrinter::fmt(mtbf, 0),
                     TablePrinter::fmt(agg.reroutes.mean(), 3),
                     TablePrinter::fmt(agg.outage_downtime.mean(), 3),
                     TablePrinter::fmt(agg.depth.mean(), 3),
                     TablePrinter::fmt(agg.fidelity.mean(), 5),
                     TablePrinter::fmt(agg.truncated.mean(), 3)});
      }
    }
  }
  stable.print(std::cout);
  report.write();

  std::cout << "\nExpected shape: lower mtbf (more frequent outages) raises "
               "reroutes everywhere; redundant shapes (ring, grid) convert "
               "them into live detour switches with near-zero downtime, "
               "while cut-edge shapes (chain, star) stall for the repair "
               "window and accumulate downtime and depth. In the salvage "
               "sweep, salvage=on keeps severed chain routes serving from "
               "surviving per-edge stock, cutting downtime and depth versus "
               "salvage=off at identical fault schedules.\n";
  return 0;
}
