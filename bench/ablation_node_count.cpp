/// \file ablation_node_count.cpp
/// \brief Ablation: scaling the interconnect from 2 to 16 QPU nodes.
///
/// The paper evaluates a 2-node system; this extension partitions the same
/// workloads across k nodes (all-to-all links, each node's communication
/// and buffer qubits split evenly across its k-1 links) and measures the
/// compounding cost: more parts means a larger total cut (more remote
/// gates) while every link gets a smaller slice of the generation capacity.
/// The per-node budget is 16 comm + 16 buffer qubits so the widest
/// interconnect (15 links at k = 16) still gets one pair per link.

#include <iostream>
#include <string>

#include "bench_util.hpp"

int main() {
  using namespace dqcsim;
  std::cout << "=== Ablation: number of QPU nodes ===\n\n";

  const int runs = bench::runs_from_env();
  bench::BenchReport report("ablation_node_count");
  TablePrinter table({"benchmark", "#nodes", "remote gates", "depth",
                      "rel. ideal", "fidelity"});
  CsvWriter csv(bench::csv_path("ablation_node_count"),
                {"benchmark", "nodes", "remote_gates", "depth_mean",
                 "depth_rel_ideal", "fidelity_mean"});

  for (const auto id :
       {gen::BenchmarkId::QAOA_R8_32, gen::BenchmarkId::QFT_32}) {
    const Circuit qc = gen::make_benchmark(id);
    for (const int nodes : {2, 4, 8, 16}) {
      const auto part = runtime::partition_circuit(qc, nodes);
      const auto placement = sched::classify_gates(qc, part.assignment);

      runtime::ArchConfig config;
      config.num_nodes = nodes;
      // Keep the per-node hardware budget fixed (16 comm + 16 buffer);
      // wider interconnects thin each link.
      config.comm_per_node = 16;
      config.buffer_per_node = 16;
      const double ideal = runtime::ideal_depth(qc, config);
      runtime::AggregateResult agg;
      report.time_section(
          benchmark_name(id) + "/nodes=" + std::to_string(nodes),
          static_cast<std::size_t>(runs), [&] {
            agg = runtime::run_design(qc, part.assignment, config,
                                      runtime::DesignKind::AsyncBuf, runs);
          });
      table.add_row({benchmark_name(id), TablePrinter::fmt(nodes),
                     TablePrinter::fmt(placement.num_remote_2q),
                     TablePrinter::fmt(agg.depth.mean(), 1),
                     TablePrinter::fmt(agg.depth.mean() / ideal, 2),
                     TablePrinter::fmt(agg.fidelity.mean(), 4)});
      csv.add_row({benchmark_name(id), std::to_string(nodes),
                   std::to_string(placement.num_remote_2q),
                   TablePrinter::fmt(agg.depth.mean(), 3),
                   TablePrinter::fmt(agg.depth.mean() / ideal, 4),
                   TablePrinter::fmt(agg.fidelity.mean(), 5)});
    }
  }
  table.print(std::cout);
  report.write();

  std::cout << "\nExpected shape: both the remote-gate count (larger total "
               "cut) and the per-link scarcity (fixed comm budget split "
               "k-1 ways) grow with the node count, so depth rises "
               "superlinearly and fidelity falls; this quantifies why the "
               "paper's 2-node sweet spot matters.\n";
  return 0;
}
