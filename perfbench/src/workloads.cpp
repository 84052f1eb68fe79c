/// \file workloads.cpp
/// \brief The four benchmark workloads and the shared helpers of bench.hpp.
///
/// Each workload puts a different layer on the critical path (README.md):
///  - paper-2node: the warm trial (des dispatch, ent generation, sched);
///  - sweep-small: per-call fixed cost (noise model build, pool spawn);
///  - chain-composed: wasted composed-route generation windows (ent);
///  - chain-swapgo-faults: per-edge delivery, net re-planning, scenario
///    boundaries and salvage.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "gen/benchmarks.hpp"
#include "net/topology.hpp"
#include "runtime/experiment.hpp"
#include "scenario/scenario.hpp"
#include "spans.hpp"

namespace perfbench {

namespace dr = dqcsim::runtime;
using dqcsim::gen::BenchmarkId;

namespace {

/// Trials per call of paper-2node: large enough that the per-call fixed
/// cost (model build, pool spawn) stays a small share of the call.
constexpr int kPaperRuns = 2048;
/// The run_design(16) reference case of the fixed-cost measurements.
constexpr int kSweepRuns = 16;
constexpr int kChainComposedRuns = 16;
constexpr int kChainSwapgoRuns = 32;

/// Circuits: make_benchmark for each id, timed into timing.gen_ms.
void build_circuits(Inputs& in, const std::vector<BenchmarkId>& ids,
                    SetupTiming& timing, Tracer* tracer) {
  const auto t0 = Clock::now();
  for (const BenchmarkId id : ids) {
    const Tracer::Scope span(tracer, "gen.make_benchmark");
    in.circuits.push_back(dqcsim::gen::make_benchmark(id));
  }
  timing.gen_ms += ms_between(t0, Clock::now());
}

/// Partition every circuit (across config.num_nodes QPUs, or placed on
/// config.topology when set) and compute its ideal depth and fidelity.
void partition_and_ideal(Inputs& in, const dr::ArchConfig& config,
                         SetupTiming& timing, Tracer* tracer) {
  const auto t0 = Clock::now();
  for (const dqcsim::Circuit& qc : in.circuits) {
    const Tracer::Scope span(tracer, "partition.partition_circuit");
    in.parts.push_back(config.topology
                           ? dr::partition_circuit(qc, *config.topology)
                           : dr::partition_circuit(qc, config.num_nodes));
  }
  const auto t1 = Clock::now();
  timing.partition_ms += ms_between(t0, t1);
  for (const dqcsim::Circuit& qc : in.circuits) {
    const Tracer::Scope span(tracer, "runtime.ideal");
    in.ideal_depth.push_back(dr::ideal_depth(qc, config));
    in.ideal_fidelity.push_back(dr::ideal_fidelity(qc, config));
  }
  timing.ideal_ms += ms_between(t1, Clock::now());
}

Inputs setup_paper_2node(SetupTiming& timing, Tracer* tracer) {
  Inputs in;
  build_circuits(in, dqcsim::gen::all_benchmarks(), timing, tracer);
  const dr::ArchConfig config;  // Table II defaults, 2 QPUs
  partition_and_ideal(in, config, timing, tracer);
  for (std::size_t c = 0; c < in.circuits.size(); ++c) {
    for (const dr::DesignKind d : dr::distributed_designs()) {
      in.calls.push_back({c, config, d, kPaperRuns,
                          in.circuits[c].name() + "/" + dr::design_name(d)});
    }
  }
  return in;
}

Inputs setup_sweep_small(SetupTiming& timing, Tracer* tracer) {
  Inputs in;
  build_circuits(in, {BenchmarkId::QAOA_R8_32}, timing, tracer);
  dr::ArchConfig base;
  base.record_arrival_trace = false;
  partition_and_ideal(in, base, timing, tracer);
  for (const double p : {0.2, 0.3, 0.4, 0.5}) {
    for (const int buffers : {5, 10, 20}) {
      for (const dr::DesignKind d :
           {dr::DesignKind::SyncBuf, dr::DesignKind::AsyncBuf,
            dr::DesignKind::AdaptBuf, dr::DesignKind::InitBuf}) {
        dr::ArchConfig config = base;
        config.p_succ = p;
        config.buffer_per_node = buffers;
        std::ostringstream label;
        label << "p=" << p << "/buf=" << buffers << "/"
              << dr::design_name(d);
        in.calls.push_back({0, config, d, kSweepRuns, label.str()});
      }
    }
  }
  return in;
}

/// QAOA-r8-32 on chain(12), 16 comm + 16 buffer qubits per node, async_buf
/// (the ablation_fault chain@12 cell).
Inputs setup_chain(SetupTiming& timing, Tracer* tracer, bool swapgo_faults) {
  Inputs in;
  build_circuits(in, {BenchmarkId::QAOA_R8_32}, timing, tracer);
  dr::ArchConfig config;
  {
    const Tracer::Scope span(tracer, "net.topology");
    config.num_nodes = 12;
    config.comm_per_node = 16;
    config.buffer_per_node = 16;
    config.record_arrival_trace = false;
    config.set_topology(dqcsim::net::Topology::chain(12));
  }
  if (swapgo_faults) {
    const Tracer::Scope span(tracer, "scenario.build");
    config.swap_as_you_go = true;
    config.salvage_pairs = true;
    dqcsim::scenario::Scenario scn;
    scn.random_failures.mtbf = 400.0;
    scn.random_failures.duration = 120.0;
    config.set_scenario(std::move(scn));
  }
  partition_and_ideal(in, config, timing, tracer);
  const int runs = swapgo_faults ? kChainSwapgoRuns : kChainComposedRuns;
  in.calls.push_back({0, config, dr::DesignKind::AsyncBuf, runs,
                      swapgo_faults ? "chain12/swapgo/mtbf=400/salvage"
                                    : "chain12/composed"});
  return in;
}

Inputs setup_chain_composed(SetupTiming& timing, Tracer* tracer) {
  return setup_chain(timing, tracer, false);
}

Inputs setup_chain_swapgo_faults(SetupTiming& timing, Tracer* tracer) {
  return setup_chain(timing, tracer, true);
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

bool finite_acc(const dqcsim::Accumulator& a) {
  return std::isfinite(a.mean()) && std::isfinite(a.min()) &&
         std::isfinite(a.max());
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"paper-2node", &setup_paper_2node, 0.5, 2048, 16},
      {"sweep-small", &setup_sweep_small, 3.0, 1024, 16},
      {"chain-composed", &setup_chain_composed, 1.3, 16, 4},
      {"chain-swapgo-faults", &setup_chain_swapgo_faults, 10.0, 128, 16},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

SeedStream::SeedStream(std::uint64_t workload_seed,
                       const std::string& workload) {
  std::uint64_t h = splitmix64(workload_seed);
  for (const char c : workload) {
    h = splitmix64(h ^ static_cast<unsigned char>(c));
  }
  // Keep 2^40 seeds of headroom below the top so base + used never wraps.
  base_ = h >> 24;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::string check_call(const dr::AggregateResult& agg, const CallSpec& call,
                       const Inputs& in) {
  const auto runs = static_cast<std::size_t>(call.runs);
  if (agg.depth.count() != runs || agg.fidelity.count() != runs) {
    return "trial count";
  }
  for (const dqcsim::Accumulator* a :
       {&agg.depth, &agg.fidelity, &agg.epr_wasted, &agg.epr_expired,
        &agg.avg_pair_age, &agg.avg_remote_wait, &agg.entanglement_swaps,
        &agg.avg_route_hops, &agg.reroutes, &agg.outage_downtime,
        &agg.pairs_salvaged, &agg.pairs_discarded}) {
    if (!finite_acc(*a)) return "non-finite value";
  }
  if (agg.truncated.max() != 0.0) return "truncated trial";
  const double ideal_d = in.ideal_depth[call.circuit];
  const double ideal_f = in.ideal_fidelity[call.circuit];
  if (agg.depth.min() < ideal_d * (1.0 - 1e-12)) return "depth below ideal";
  if (!(agg.fidelity.min() > 0.0)) return "fidelity not positive";
  if (agg.fidelity.max() > ideal_f * (1.0 + 1e-12)) {
    return "fidelity above ideal";
  }
  return {};
}

bool bit_identical(const dr::AggregateResult& a, const dr::AggregateResult& b) {
  const auto same = [](const dqcsim::Accumulator& x,
                       const dqcsim::Accumulator& y) {
    const double xs[] = {x.mean(), x.variance(), x.min(), x.max()};
    const double ys[] = {y.mean(), y.variance(), y.min(), y.max()};
    return x.count() == y.count() && std::memcmp(xs, ys, sizeof(xs)) == 0;
  };
  return same(a.depth, b.depth) && same(a.fidelity, b.fidelity) &&
         same(a.epr_wasted, b.epr_wasted) &&
         same(a.epr_expired, b.epr_expired) &&
         same(a.avg_pair_age, b.avg_pair_age) &&
         same(a.avg_remote_wait, b.avg_remote_wait) &&
         same(a.entanglement_swaps, b.entanglement_swaps) &&
         same(a.avg_route_hops, b.avg_route_hops) &&
         same(a.edges_shared, b.edges_shared) &&
         same(a.max_edge_load, b.max_edge_load) &&
         same(a.route_splits, b.route_splits) &&
         same(a.reroutes, b.reroutes) &&
         same(a.outage_downtime, b.outage_downtime) &&
         same(a.pairs_salvaged, b.pairs_salvaged) &&
         same(a.pairs_discarded, b.pairs_discarded) &&
         same(a.links_stalled, b.links_stalled) &&
         same(a.truncated, b.truncated);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0.0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
