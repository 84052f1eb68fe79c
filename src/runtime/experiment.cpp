#include "runtime/experiment.hpp"

#include <cstddef>

#include "circuit/interaction_graph.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "net/mapping.hpp"
#include "net/router.hpp"
#include "runtime/engine.hpp"

namespace dqcsim::runtime {

namespace {

/// Run cell(context, i) for i in [0, n) on `threads` workers (0 = all
/// hardware threads), each worker id owning one RunContext of the calling
/// thread. The contexts outlive the call, warm: their setup, routing and
/// teleport-model caches carry over, so a repeated call pays only its
/// trials. The calling thread runs worker 0 of its call, so a run_cells
/// made while an enclosing one on this thread holds the contexts gets
/// fresh contexts of its own and leaves those alone. Concurrent callers
/// run on different threads and so never share a context.
template <typename Cell>
void run_cells(std::size_t n, int threads, const Cell& cell) {
  thread_local std::vector<RunContext> mine;
  thread_local bool mine_in_use = false;
  const bool outer = !mine_in_use;
  std::vector<RunContext> nested;
  std::vector<RunContext>& contexts = outer ? mine : nested;
  const std::size_t num_threads =
      threads <= 0 ? 0 : static_cast<std::size_t>(threads);
  const std::size_t workers = parallel_worker_count(n, num_threads);
  if (contexts.size() < workers) contexts.resize(workers);
  mine_in_use = true;
  try {
    parallel_for_workers(
        n,
        [&](std::size_t worker, std::size_t i) { cell(contexts[worker], i); },
        num_threads);
  } catch (...) {
    // A trial that threw may have left its context mid-run: start afresh.
    contexts.clear();
    mine_in_use = !outer;
    throw;
  }
  for (RunContext& context : contexts) context.release_inputs();
  mine_in_use = !outer;
}

}  // namespace

partition::PartitionResult partition_circuit(const Circuit& circuit,
                                             int num_nodes,
                                             std::uint64_t seed) {
  const partition::Graph graph = interaction_graph(circuit);
  partition::PartitionOptions opts;
  opts.seed = seed;
  return partition::multilevel_partition(graph, num_nodes, opts);
}

partition::PartitionResult partition_circuit(const Circuit& circuit,
                                             const net::Topology& topology,
                                             std::uint64_t seed) {
  topology.validate();
  const int k = topology.num_nodes();
  partition::PartitionResult result = partition_circuit(circuit, k, seed);

  // Inter-part remote-gate traffic (the plain cut, resolved per pair).
  const auto uk = static_cast<std::size_t>(k);
  net::TrafficMatrix traffic(uk * uk, 0);
  for (std::size_t i = 0; i < circuit.num_gates(); ++i) {
    const Gate& g = circuit.gate(i);
    if (g.arity() != 2) continue;
    const auto p = static_cast<std::size_t>(
        result.assignment[static_cast<std::size_t>(g.q0())]);
    const auto q = static_cast<std::size_t>(
        result.assignment[static_cast<std::size_t>(g.q1())]);
    if (p == q) continue;
    ++traffic[p * uk + q];
    ++traffic[q * uk + p];
  }

  // Place parts on physical nodes to minimise the distance-scaled cut.
  const net::Router router(topology);  // hop-count metric
  const std::vector<int> mapping =
      net::optimize_node_mapping(traffic, k, router);
  for (int& node : result.assignment) {
    node = mapping[static_cast<std::size_t>(node)];
  }
  result.cut = net::mapped_cut_weight(traffic, k, mapping, router);
  return result;
}

AggregateResult run_design(const Circuit& circuit,
                           const std::vector<int>& assignment,
                           const ArchConfig& config, DesignKind design,
                           int runs, std::uint64_t base_seed, int threads) {
  DQCSIM_EXPECTS(runs >= 1);
  // Per-run results land in disjoint slots; the streaming aggregate is then
  // folded in run order, so thread count and completion order never change
  // a single bit of the statistics.
  std::vector<RunResult> results(static_cast<std::size_t>(runs));
  run_cells(results.size(), threads, [&](RunContext& context, std::size_t r) {
    results[r] = context.execute(circuit, assignment, config, design,
                                 base_seed + static_cast<std::uint64_t>(r));
  });

  AggregateResult aggregate;
  for (const RunResult& run : results) aggregate.add(run);
  return aggregate;
}

std::vector<AggregateResult> run_design_matrix(
    const Circuit& circuit, const std::vector<int>& assignment,
    const std::vector<DesignPoint>& points, int runs, std::uint64_t base_seed,
    int threads) {
  DQCSIM_EXPECTS(runs >= 1);
  if (points.empty()) return {};

  // One flat cell grid: all point x run pairs share the pool, so a sweep of
  // many small-run points parallelizes as well as one large run_design.
  // The design is not part of the setup key, so every cell of one circuit
  // and assignment shares its RunContext's setup; claiming cells in p-major
  // order keeps a worker's consecutive trials on one point, which also
  // keeps its route cache and adaptive segment tables warm.
  const std::size_t num_runs = static_cast<std::size_t>(runs);
  std::vector<RunResult> cells(points.size() * num_runs);
  run_cells(cells.size(), threads, [&](RunContext& context, std::size_t cell) {
    const DesignPoint& point = points[cell / num_runs];
    cells[cell] = context.execute(
        circuit, assignment, point.config, point.design,
        base_seed + static_cast<std::uint64_t>(cell % num_runs));
  });

  std::vector<AggregateResult> aggregates(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (std::size_t r = 0; r < num_runs; ++r) {
      aggregates[p].add(cells[p * num_runs + r]);
    }
  }
  return aggregates;
}

double ideal_depth(const Circuit& circuit, const ArchConfig& config) {
  return RunContext().execute(circuit, {}, config, DesignKind::IdealMono, 0)
      .depth;
}

double ideal_fidelity(const Circuit& circuit, const ArchConfig& config) {
  return RunContext().execute(circuit, {}, config, DesignKind::IdealMono, 0)
      .fidelity;
}

}  // namespace dqcsim::runtime
