/// \file perf_micro.cpp
/// \brief google-benchmark microbenchmarks of the library's hot paths
/// (not a paper experiment): DES throughput, partitioner, DAG analysis,
/// the density-matrix kernel of the test oracle (tests/oracle), and full
/// engine runs. Results are also exported to BENCH_perf_micro.json for the
/// CI perf gate (see bench_report.hpp).

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "bench_report.hpp"
#include "dqcsim.hpp"
#include "teleport_gadgets.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter: the steady-state benchmarks report
// allocs-per-op to prove the DES pool and RunContext reuse keep the
// Monte-Carlo hot path allocation-free (see ISSUE 3 / README "Performance").
// Counting only — allocation behavior is unchanged.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
}  // namespace

namespace {
void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(alignment,
                                   (size + alignment - 1) / alignment *
                                       alignment)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace dqcsim;

/// Allocations since `since` (relaxed; the benches are single-threaded).
std::uint64_t allocs_since(std::uint64_t since) {
  return g_alloc_count.load(std::memory_order_relaxed) - since;
}

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  for (auto _ : state) {
    des::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(static_cast<double>((i * 7919) % 1000), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleAndPop);

// Steady-state DES churn: one Simulator reused via reset(), the way the
// Monte-Carlo trial loop drives it. After warmup the event pool, dispatch
// window and spill list are at their high-water marks, so an iteration
// (1000 schedules + 1000 dispatches) performs zero heap allocation —
// reported as the allocs_per_op counter, asserted ~0 by the bench gate.
void BM_EventQueueSteadyStateChurn(benchmark::State& state) {
  des::Simulator sim;
  for (int warm = 0; warm < 3; ++warm) {
    sim.reset();
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(static_cast<double>((i * 7919) % 1000), [] {});
    }
    sim.run();
  }
  const std::uint64_t allocs0 = allocs_since(0);
  for (auto _ : state) {
    sim.reset();
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(static_cast<double>((i * 7919) % 1000), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(allocs_since(allocs0)) /
      static_cast<double>(state.iterations() * 1000));
}
BENCHMARK(BM_EventQueueSteadyStateChurn);

// Cancel-heavy DES workload (the purification-cutoff pattern): all events
// are scheduled far in the future, every other one is cancelled before it
// fires, and the survivors are drained. The old lazy-cancellation queue
// accumulated one tombstone per cancel until the entry's timestamp
// surfaced — unbounded growth on exactly this pattern; the pooled queue
// releases the slot immediately and compacts the index.
void BM_EventQueueScheduleCancelPop(benchmark::State& state) {
  des::Simulator sim;
  std::vector<des::EventId> ids(1000);
  for (auto _ : state) {
    sim.reset();
    for (int i = 0; i < 1000; ++i) {
      ids[static_cast<std::size_t>(i)] = sim.schedule_at(
          static_cast<double>(1000000 + i), [] {});
    }
    for (int i = 0; i < 1000; i += 2) {
      sim.cancel(ids[static_cast<std::size_t>(i)]);
    }
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleCancelPop);

void BM_RngUniform(benchmark::State& state) {
  Rng rng(1);
  double acc = 0.0;
  for (auto _ : state) acc += rng.uniform();
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngUniform);

// Rng::binomial on its two paths: inversion at a small mean (0.8), BTPE at
// a large one (180, the successes a chain-composed pair wastes per wake).
void BM_RngBinomialSmallMean(benchmark::State& state) {
  Rng rng(1);
  std::uint64_t acc = 0;
  for (auto _ : state) acc += rng.binomial(40, 0.02);
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngBinomialSmallMean);

void BM_RngBinomialLargeMean(benchmark::State& state) {
  Rng rng(1);
  std::uint64_t acc = 0;
  for (auto _ : state) acc += rng.binomial(4000, 0.045);
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngBinomialLargeMean);

void BM_BuildQft32(benchmark::State& state) {
  for (auto _ : state) {
    const Circuit qc = gen::make_qft(32);
    benchmark::DoNotOptimize(qc.num_gates());
  }
}
BENCHMARK(BM_BuildQft32);

void BM_DependencyDagQft32(benchmark::State& state) {
  const Circuit qc = gen::make_qft(32);
  DependencyDag dag;
  for (auto _ : state) {
    dag.build(qc, 0, qc.num_gates());
    benchmark::DoNotOptimize(dag.succs(0).size());
  }
}
BENCHMARK(BM_DependencyDagQft32);

// The adaptive designs' setup artifact: ASAP/ALAP/original orders of every
// segment of QAOA-r8-32 on 2 nodes at the paper's default segment size.
void BM_SegmentVariantTableQaoaR8_32(benchmark::State& state) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = runtime::partition_circuit(qc, 2);
  const auto placement = sched::classify_gates(qc, part.assignment);
  const auto segments = sched::segment_by_remote_gates(
      placement, runtime::ArchConfig{}.effective_segment_size());
  for (auto _ : state) {
    const sched::SegmentVariantTable table(qc, placement, segments);
    benchmark::DoNotOptimize(table.num_segments());
  }
}
BENCHMARK(BM_SegmentVariantTableQaoaR8_32);

void BM_PartitionQaoaR8_32(benchmark::State& state) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const partition::Graph graph = interaction_graph(qc);
  for (auto _ : state) {
    const auto result = partition::multilevel_partition(graph, 2);
    benchmark::DoNotOptimize(result.cut);
  }
}
BENCHMARK(BM_PartitionQaoaR8_32);

void BM_TeleportGadgetExact(benchmark::State& state) {
  for (auto _ : state) {
    const double f = noise::teleported_cnot_avg_fidelity(0.99);
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_TeleportGadgetExact);

void BM_TeleportModelEval(benchmark::State& state) {
  const noise::TeleportFidelityModel model{noise::TeleportNoiseParams{}};
  double f = 0.5;
  for (auto _ : state) {
    f = 0.25 + 0.75 * model.eval(0.25 + 0.5 * (f > 0.6));
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_TeleportModelEval);

// Model construction from the Pauli-frame closed forms: what a cold
// RunContext pays per setup (no density matrix on this path). The params
// alternate between two non-default values, so neither the Table II
// recorded calibration nor a repeated input is measured.
void BM_TeleportModelBuild(benchmark::State& state) {
  noise::TeleportNoiseParams params;
  for (auto _ : state) {
    params.local_2q_fidelity = params.local_2q_fidelity == 0.998 ? 0.997
                                                                 : 0.998;
    const noise::TeleportFidelityModel model(params);
    benchmark::DoNotOptimize(model.slope());
  }
}
BENCHMARK(BM_TeleportModelBuild);

void BM_StateTeleportModelBuild(benchmark::State& state) {
  noise::TeleportNoiseParams params;
  for (auto _ : state) {
    params.local_2q_fidelity = params.local_2q_fidelity == 0.998 ? 0.997
                                                                 : 0.998;
    const noise::StateTeleportCnotModel model(params);
    benchmark::DoNotOptimize(model.eval(0.9, 0.9));
  }
}
BENCHMARK(BM_StateTeleportModelBuild);

void BM_EngineRunQaoaR8_32(benchmark::State& state) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = runtime::partition_circuit(qc, 2);
  const runtime::ArchConfig config;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    runtime::RunContext cold;  // a fresh workspace per run: no warm setup
    benchmark::DoNotOptimize(
        cold.execute(qc, part.assignment, config,
                     runtime::DesignKind::AsyncBuf, ++seed)
            .depth);
  }
}
BENCHMARK(BM_EngineRunQaoaR8_32);

// Steady-state Monte-Carlo trial: one RunContext reused across trials, as
// each run_design worker drives it. After the warmup trials every buffer is
// at its high-water mark and the setup cache is hot, so a trial performs
// zero heap allocation (the allocs_per_op counter).
void BM_RunContextTrialSteadyState(benchmark::State& state) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = runtime::partition_circuit(qc, 2);
  const runtime::ArchConfig config;
  noise::TeleportNoiseParams tele;
  tele.local_2q_fidelity = config.fid.local_cnot;
  tele.local_1q_fidelity = config.fid.one_qubit;
  tele.readout_fidelity = config.fid.measurement;
  const noise::TeleportFidelityModel model(tele);
  runtime::RunContext ctx;
  constexpr std::uint64_t kSeeds = 16;
  for (std::uint64_t s = 0; s < kSeeds; ++s) {
    ctx.execute(qc, part.assignment, config, runtime::DesignKind::AsyncBuf,
                1000 + s, &model);
  }
  const std::uint64_t allocs0 = allocs_since(0);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const auto result =
        ctx.execute(qc, part.assignment, config,
                    runtime::DesignKind::AsyncBuf, 1000 + (seed++ % kSeeds),
                    &model);
    benchmark::DoNotOptimize(result.depth);
  }
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(allocs_since(allocs0)) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_RunContextTrialSteadyState);

// Same trial loop with ArrivalTrace recording off (the Monte-Carlo sweep
// configuration): the per-arrival log is skipped entirely, so the trial
// stays allocation-free even on arrival-heavy configs whose trace growth
// would otherwise occasionally reallocate.
void BM_RunContextTrialTraceOff(benchmark::State& state) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = runtime::partition_circuit(qc, 2);
  runtime::ArchConfig config;
  config.record_arrival_trace = false;
  noise::TeleportNoiseParams tele;
  tele.local_2q_fidelity = config.fid.local_cnot;
  tele.local_1q_fidelity = config.fid.one_qubit;
  tele.readout_fidelity = config.fid.measurement;
  const noise::TeleportFidelityModel model(tele);
  runtime::RunContext ctx;
  constexpr std::uint64_t kSeeds = 16;
  for (std::uint64_t s = 0; s < kSeeds; ++s) {
    ctx.execute(qc, part.assignment, config, runtime::DesignKind::AsyncBuf,
                1000 + s, &model);
  }
  const std::uint64_t allocs0 = allocs_since(0);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const auto result =
        ctx.execute(qc, part.assignment, config,
                    runtime::DesignKind::AsyncBuf, 1000 + (seed++ % kSeeds),
                    &model);
    benchmark::DoNotOptimize(result.depth);
  }
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(allocs_since(allocs0)) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_RunContextTrialTraceOff);

// Same trial loop with the observability layer compiled in but disabled
// (config.observe == nullptr, the default): every obs hook must reduce to
// a branch on a null pointer, so the trial stays allocation-free and within
// noise of the un-instrumented engine. Gated in ci/bench_baseline.json.
void BM_RunContextTrialObserverOff(benchmark::State& state) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = runtime::partition_circuit(qc, 2);
  runtime::ArchConfig config;
  config.record_arrival_trace = false;
  config.observe = nullptr;  // explicit: the observer-off contract
  noise::TeleportNoiseParams tele;
  tele.local_2q_fidelity = config.fid.local_cnot;
  tele.local_1q_fidelity = config.fid.one_qubit;
  tele.readout_fidelity = config.fid.measurement;
  const noise::TeleportFidelityModel model(tele);
  runtime::RunContext ctx;
  constexpr std::uint64_t kSeeds = 16;
  for (std::uint64_t s = 0; s < kSeeds; ++s) {
    ctx.execute(qc, part.assignment, config, runtime::DesignKind::AsyncBuf,
                1000 + s, &model);
  }
  const std::uint64_t allocs0 = allocs_since(0);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const auto result =
        ctx.execute(qc, part.assignment, config,
                    runtime::DesignKind::AsyncBuf, 1000 + (seed++ % kSeeds),
                    &model);
    benchmark::DoNotOptimize(result.depth);
  }
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(allocs_since(allocs0)) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_RunContextTrialObserverOff);

// Warm fault trial: perfbench's chain-swapgo-faults trial (QAOA-r8-32 on
// chain(12), 16 + 16 qubits per node, async_buf, swap-as-you-go, random
// link failures with mtbf 400 and duration 120, salvage). Each scenario
// boundary that flips an edge re-plans every logical link, so this times
// the outage re-plan path; a warm trial allocates nothing (allocs_per_op).
void BM_RunContextTrialFaults(benchmark::State& state) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  runtime::ArchConfig config;
  config.num_nodes = 12;
  config.comm_per_node = 16;
  config.buffer_per_node = 16;
  config.record_arrival_trace = false;
  config.set_topology(net::Topology::chain(12));
  config.swap_as_you_go = true;
  config.salvage_pairs = true;
  scenario::Scenario scn;
  scn.random_failures.mtbf = 400.0;
  scn.random_failures.duration = 120.0;
  config.set_scenario(std::move(scn));
  const auto part = runtime::partition_circuit(qc, *config.topology);
  runtime::RunContext ctx;
  constexpr std::uint64_t kSeeds = 16;
  for (std::uint64_t s = 0; s < kSeeds; ++s) {
    ctx.execute(qc, part.assignment, config, runtime::DesignKind::AsyncBuf,
                1000 + s);
  }
  const std::uint64_t allocs0 = allocs_since(0);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const auto result =
        ctx.execute(qc, part.assignment, config,
                    runtime::DesignKind::AsyncBuf, 1000 + (seed++ % kSeeds));
    benchmark::DoNotOptimize(result.depth);
  }
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(allocs_since(allocs0)) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_RunContextTrialFaults);

// End-to-end trial throughput of the experiment driver (one worker): the
// number the fig5-fig8 sweeps and ablation benches are built from.
void BM_RunDesignTrialThroughput(benchmark::State& state) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = runtime::partition_circuit(qc, 2);
  const runtime::ArchConfig config;
  const int runs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto agg =
        runtime::run_design(qc, part.assignment, config,
                            runtime::DesignKind::AsyncBuf, runs,
                            /*base_seed=*/1000, /*threads=*/1);
    benchmark::DoNotOptimize(agg.depth.mean());
  }
  state.SetItemsProcessed(state.iterations() * runs);
  state.SetLabel("trials/s");
}
BENCHMARK(BM_RunDesignTrialThroughput)->Arg(64)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Serial vs parallel Monte-Carlo experiment engine. Run both and compare
// wall time per iteration: the parallel variant fans the same seeds across
// a thread pool (runtime::run_design threads=0) and must produce identical
// statistics, so any wall-clock gap is pure speedup.
void BM_RunDesignSerial(benchmark::State& state) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = runtime::partition_circuit(qc, 2);
  const runtime::ArchConfig config;
  const int runs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto agg =
        runtime::run_design(qc, part.assignment, config,
                            runtime::DesignKind::AsyncBuf, runs,
                            /*base_seed=*/1000, /*threads=*/1);
    benchmark::DoNotOptimize(agg.depth.mean());
  }
  state.SetItemsProcessed(state.iterations() * runs);
  state.SetLabel("1 thread");
}
BENCHMARK(BM_RunDesignSerial)->Arg(16)->Arg(32)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_RunDesignParallel(benchmark::State& state) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = runtime::partition_circuit(qc, 2);
  const runtime::ArchConfig config;
  const int runs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto agg =
        runtime::run_design(qc, part.assignment, config,
                            runtime::DesignKind::AsyncBuf, runs,
                            /*base_seed=*/1000, /*threads=*/0);
    benchmark::DoNotOptimize(agg.depth.mean());
  }
  state.SetItemsProcessed(state.iterations() * runs);
  // parallel_for clamps workers to the run count.
  const std::size_t workers = std::min(ThreadPool::hardware_threads(),
                                       static_cast<std::size_t>(runs));
  state.SetLabel(std::to_string(workers) + " threads");
}
BENCHMARK(BM_RunDesignParallel)->Arg(16)->Arg(32)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The shape of a design sweep: back-to-back small calls, each switching
// design, all threads. Per-call costs that a single-design loop hides (a
// setup rebuilt per design, a pool woken per call) show here.
void BM_RunDesignDesignSweep(benchmark::State& state) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = runtime::partition_circuit(qc, 2);
  const runtime::ArchConfig config;
  const int runs = static_cast<int>(state.range(0));
  std::vector<runtime::DesignKind> designs;
  for (const auto design : runtime::distributed_designs()) {
    if (runtime::design_uses_buffer(design)) designs.push_back(design);
  }
  for (auto _ : state) {
    for (const auto design : designs) {
      const auto agg = runtime::run_design(qc, part.assignment, config, design,
                                           runs, /*base_seed=*/1000,
                                           /*threads=*/0);
      benchmark::DoNotOptimize(agg.depth.mean());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(designs.size()) * runs);
  state.SetLabel(std::to_string(designs.size()) + " calls");
}
BENCHMARK(BM_RunDesignDesignSweep)->Arg(16)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_RunDesignMatrixAllDesigns(benchmark::State& state) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = runtime::partition_circuit(qc, 2);
  std::vector<runtime::DesignPoint> points;
  for (const auto design : runtime::distributed_designs()) {
    points.push_back({design, runtime::ArchConfig{}});
  }
  for (auto _ : state) {
    const auto aggregates =
        runtime::run_design_matrix(qc, part.assignment, points, 8);
    benchmark::DoNotOptimize(aggregates.front().depth.mean());
  }
  state.SetItemsProcessed(state.iterations() * points.size() * 8);
}
BENCHMARK(BM_RunDesignMatrixAllDesigns)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_DensityMatrixCnot6Qubit(benchmark::State& state) {
  qsim::DensityMatrix rho(6);
  const auto u = qsim::cnot();
  for (auto _ : state) {
    rho.apply_2q(u, 2, 4);
    benchmark::DoNotOptimize(rho.trace());
  }
}
BENCHMARK(BM_DensityMatrixCnot6Qubit);

void BM_DensityMatrixHadamard8Qubit(benchmark::State& state) {
  qsim::DensityMatrix rho(8);
  const auto u = qsim::hadamard();
  for (auto _ : state) {
    rho.apply_1q(u, 3);
    benchmark::DoNotOptimize(rho.trace());
  }
}
BENCHMARK(BM_DensityMatrixHadamard8Qubit);

/// Console output plus capture of every run for the JSON report.
class JsonExportReporter : public benchmark::ConsoleReporter {
 public:
  JsonExportReporter(bench::BenchReport& report, OutputOptions opts)
      : ConsoleReporter(opts), report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      // Note: only RT_Iteration runs are exported; the error/skip field is
      // not consulted (its name changed across google-benchmark versions).
      if (run.run_type != Run::RT_Iteration) continue;
      bench::KernelResult k;
      k.name = run.benchmark_name();
      k.iterations = static_cast<double>(run.iterations);
      if (run.iterations > 0) {
        k.ns_per_op = run.real_accumulated_time /
                      static_cast<double>(run.iterations) * 1e9;
      }
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) k.items_per_s = it->second;
      for (const auto& [counter_name, counter] : run.counters) {
        if (counter_name == "items_per_second") continue;
        k.counters.emplace_back(counter_name,
                                static_cast<double>(counter.value));
      }
      k.label = run.report_label;
      report_.add(std::move(k));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::BenchReport& report_;
};

}  // namespace

/// The console options google-benchmark would give its own reporter: colour
/// only on a terminal and unless --benchmark_color is false (a custom
/// display reporter does not read the flag itself), tabular counters as
/// before. Reads argv before benchmark::Initialize consumes the flag.
benchmark::ConsoleReporter::OutputOptions console_options(int argc,
                                                          char** argv) {
  const std::string flag = "--benchmark_color=";
  bool color = isatty(STDOUT_FILENO) != 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind(flag, 0) != 0) continue;
    std::string value = arg.substr(flag.size());
    for (char& c : value) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    if (value == "false" || value == "no" || value == "off" || value == "0" ||
        value == "f" || value == "n") {
      color = false;
    }
  }
  return color ? benchmark::ConsoleReporter::OO_ColorTabular
               : benchmark::ConsoleReporter::OO_Tabular;
}

int main(int argc, char** argv) {
  const auto options = console_options(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  bench::BenchReport report("perf_micro");
  JsonExportReporter reporter(report, options);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  report.write();
  benchmark::Shutdown();
  return 0;
}
