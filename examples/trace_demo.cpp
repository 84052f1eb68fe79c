/// \file trace_demo.cpp
/// \brief Observability tour: trace one trial, collect registry metrics and
/// the engine self-profile across a Monte-Carlo sweep.
///
/// Runs the 32-qubit QAOA workload on an 8-node chain under a deterministic
/// mid-chain link outage (edge 3-4 down over [50, 170]), with
/// ArchConfig::observe attached: the registry accumulates counters and
/// streaming-quantile histograms over every trial, the profile times the
/// engine phases, and the single trial whose seed matches `trace_seed` is
/// exported as Chrome trace-event JSON (trace_demo_trace.json). Open the
/// file at https://ui.perfetto.dev or chrome://tracing to see per-link
/// generation spans, the outage interval and the recovery reroute.
/// ci/check_trace.py validates the same file in CI.
///
/// Run: ./trace_demo

#include <iostream>

#include "dqcsim.hpp"

int main() {
  using namespace dqcsim;

  constexpr int kNodes = 8;
  constexpr int kRuns = 8;
  constexpr std::uint64_t kBaseSeed = 1000;

  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const net::Topology topo = net::Topology::chain(kNodes);
  const auto part = runtime::partition_circuit(qc, topo);

  runtime::ArchConfig config;
  config.num_nodes = kNodes;
  config.comm_per_node = 16;
  config.buffer_per_node = 16;
  config.set_topology(topo);

  // A chain cannot detour around its middle edge, so this outage guarantees
  // downtime on every trial — and a recovery reroute when the edge returns.
  scenario::Scenario scn;
  scn.link_outages.push_back({3, 4, 50.0, 120.0});
  config.set_scenario(std::move(scn));

  // Attach the observability layer: metrics + profile over all runs, a
  // full event trace of the trial with seed kBaseSeed + 3.
  auto observe = obs::make_observe();
  observe->trace_seed = kBaseSeed + 3;
  observe->trace_path = "trace_demo_trace.json";
  config.observe = observe;

  std::cout << "=== Observability demo: QAOA-32 on chain(8), mid-chain "
               "outage ===\n\n";
  const runtime::AggregateResult agg =
      runtime::run_design(qc, part.assignment, config,
                          runtime::DesignKind::AsyncBuf, kRuns, kBaseSeed);

  std::cout << "Aggregate over " << kRuns << " runs:\n"
            << "  depth            mean "
            << TablePrinter::fmt(agg.depth.mean(), 1) << "\n"
            << "  fidelity         mean "
            << TablePrinter::fmt(agg.fidelity.mean(), 4) << "\n"
            << "  outage downtime  mean "
            << TablePrinter::fmt(agg.outage_downtime.mean(), 1) << "  p50 "
            << TablePrinter::fmt(agg.outage_downtime.quantile(0.5), 1)
            << "  p99 "
            << TablePrinter::fmt(agg.outage_downtime.quantile(0.99), 1) << "\n"
            << "  avg pair age     p50  "
            << TablePrinter::fmt(agg.avg_pair_age.quantile(0.5), 2) << "  p99 "
            << TablePrinter::fmt(agg.avg_pair_age.quantile(0.99), 2) << "\n"
            << "  avg remote wait  p50  "
            << TablePrinter::fmt(agg.avg_remote_wait.quantile(0.5), 2)
            << "  p99 "
            << TablePrinter::fmt(agg.avg_remote_wait.quantile(0.99), 2)
            << "\n\n";

  std::cout << "Registry snapshot (deterministic at any thread count):\n"
            << observe->collector.registry_json() << "\n\n";

  std::cout << "Engine self-profile (wall clock, machine-dependent):\n"
            << observe->collector.profile().to_json().dump(2) << "\n\n";

  std::cout << "Traced trial (seed " << observe->trace_seed
            << ") written to trace_demo_trace.json — open it at "
               "https://ui.perfetto.dev\n";
  return observe->collector.has_trace() ? 0 : 1;
}
