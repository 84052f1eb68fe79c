/// Unit tests for the experiment driver: thread-pool mechanics, and the
/// determinism contract that parallel Monte-Carlo execution is bit-identical
/// to the serial path for every thread count.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "expect_identical.hpp"
#include "gen/benchmarks.hpp"
#include "net/topology.hpp"
#include "obs/observe.hpp"
#include "runtime/engine.hpp"
#include "runtime/experiment.hpp"
#include "scenario/scenario.hpp"

namespace dqcsim::runtime {
namespace {

// ---------------------------------------------------------- thread pool ----

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(16,
                                 [](std::size_t i) {
                                   if (i == 7) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // The pool must still be usable after an exception.
  std::atomic<int> counter{0};
  pool.parallel_for(8, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 8);
}

TEST(ThreadPool, FreeParallelForHandlesEdgeCases) {
  std::atomic<int> counter{0};
  parallel_for(0, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 0);
  parallel_for(1, [&](std::size_t) { counter.fetch_add(1); }, 8);
  EXPECT_EQ(counter.load(), 1);
  parallel_for(10, [&](std::size_t) { counter.fetch_add(1); }, 1);
  EXPECT_EQ(counter.load(), 11);
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1u);
}

TEST(ThreadPool, CallAfterWorkersParkedCoversEveryIndex) {
  ThreadPool pool(3);
  for (int round = 0; round < 3; ++round) {
    // Far past the workers' spin: they are asleep on the condvar.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::vector<std::atomic<int>> hits(64);
    std::set<std::size_t> ids;
    std::mutex ids_mutex;
    pool.parallel_for_workers(hits.size(), [&](std::size_t w, std::size_t i) {
      hits[i].fetch_add(1);
      const std::lock_guard<std::mutex> lock(ids_mutex);
      ids.insert(w);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "round " << round << " index " << i;
    }
    EXPECT_LT(*ids.rbegin(), pool.size() + 1);
  }
}

TEST(ThreadPool, BackToBackSmallCallsKeepWorkerIdsExclusive) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kItems = 16;
  std::array<std::atomic<bool>, kThreads> held{};
  std::atomic<int> overlaps{0};
  std::atomic<int> bad_ids{0};
  for (int call = 0; call < 20000; ++call) {
    std::array<std::atomic<int>, kItems> hits{};
    parallel_for_workers(
        kItems,
        [&](std::size_t w, std::size_t i) {
          if (w >= kThreads) {
            bad_ids.fetch_add(1);
            return;
          }
          if (held[w].exchange(true)) overlaps.fetch_add(1);
          hits[i].fetch_add(1);
          held[w].store(false);
        },
        kThreads);
    for (std::size_t i = 0; i < kItems; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "call " << call << " index " << i;
    }
  }
  EXPECT_EQ(bad_ids.load(), 0);
  EXPECT_EQ(overlaps.load(), 0);
}

TEST(ThreadPool, DestroyedMidSpinJoinsPromptly) {
  // Each pool is destroyed right after a call returns, while its workers
  // still spin for the next call: the destructor must end the spin.
  const auto t0 = std::chrono::steady_clock::now();
  std::atomic<int> counter{0};
  for (int rep = 0; rep < 200; ++rep) {
    ThreadPool pool(3);
    pool.parallel_for(16, [&](std::size_t) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 200 * 16);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
}

// ----------------------------------------------------------- determinism ----

TEST(ExperimentDeterminism, ParallelRunDesignIsBitIdenticalToSerial) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = partition_circuit(qc, 2);
  const ArchConfig config;
  constexpr int kRuns = 16;
  constexpr std::uint64_t kSeed = 1000;

  for (const DesignKind design : distributed_designs()) {
    const AggregateResult serial = run_design(qc, part.assignment, config,
                                              design, kRuns, kSeed,
                                              /*threads=*/1);
    for (const int threads : {0, 2, 4, 8}) {
      SCOPED_TRACE(design_name(design) + " @ " + std::to_string(threads) +
                   " threads");
      const AggregateResult parallel = run_design(
          qc, part.assignment, config, design, kRuns, kSeed, threads);
      expect_identical(serial, parallel);
    }
  }
}

TEST(ExperimentDeterminism, RepeatedParallelRunsAgree) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R4_32);
  const auto part = partition_circuit(qc, 2);
  const AggregateResult first = run_design(qc, part.assignment, {},
                                           DesignKind::AsyncBuf, 8, 42, 4);
  const AggregateResult second = run_design(qc, part.assignment, {},
                                            DesignKind::AsyncBuf, 8, 42, 4);
  expect_identical(first, second);
}

TEST(ExperimentDeterminism, FusedLocalGatesAreBitIdenticalToUnfused) {
  // The engine's 1q-chain fusion (ArchConfig::fuse_local_gates) elides
  // scheduling events but must leave every statistic bit-identical: chain
  // members have no external observers between head start and tail
  // completion, and the completion instant left-folds latencies exactly as
  // sequential scheduling would. TLIM is the chain-rich workload (rz/rx
  // runs per wire); QAOA and QFT cover the chain-free shapes.
  for (const auto id : {gen::BenchmarkId::TLIM_32, gen::BenchmarkId::QAOA_R8_32,
                        gen::BenchmarkId::QFT_32}) {
    const Circuit qc = gen::make_benchmark(id);
    const auto part = partition_circuit(qc, 2);
    for (const DesignKind design : all_designs()) {
      SCOPED_TRACE(gen::benchmark_name(id) + " / " + design_name(design));
      ArchConfig fused, unfused;
      fused.fuse_local_gates = true;
      unfused.fuse_local_gates = false;
      const AggregateResult a =
          run_design(qc, part.assignment, fused, design, 6, 1000, 1);
      const AggregateResult b =
          run_design(qc, part.assignment, unfused, design, 6, 1000, 1);
      expect_identical(a, b);
    }
  }
}

TEST(RunContextReuse, MatchesFreshEngineAcrossSetupChanges) {
  // One RunContext executing a heterogeneous sweep — design switches,
  // config switches that invalidate the cached setup (segment size, fusion,
  // remote implementation) and ones that do not (cutoff, purification) —
  // must reproduce a fresh one-shot engine bit for bit on every trial.
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = partition_circuit(qc, 2);
  // Qubit 0 moved to the other node: a different set of remote gates.
  std::vector<int> moved = part.assignment;
  moved[0] = 1 - moved[0];

  struct Setup {
    DesignKind design;
    ArchConfig config;
    bool other_partition = false;
  };
  std::vector<Setup> setups;
  for (const DesignKind design : distributed_designs()) {
    setups.push_back({design, ArchConfig{}});
  }
  ArchConfig cutoff;
  cutoff.buffer_cutoff = 25.0;
  setups.push_back({DesignKind::AsyncBuf, cutoff});
  ArchConfig purify;
  purify.purify_on_consume = true;
  setups.push_back({DesignKind::AsyncBuf, purify});
  ArchConfig unfused;
  unfused.fuse_local_gates = false;
  setups.push_back({DesignKind::AsyncBuf, unfused});
  ArchConfig state_tp;
  state_tp.remote_impl = RemoteImpl::StateTeleport;
  setups.push_back({DesignKind::AsyncBuf, state_tp});
  ArchConfig wide_segments;
  wide_segments.segment_size = 2;
  setups.push_back({DesignKind::AdaptBuf, wide_segments});
  setups.push_back({DesignKind::IdealMono, ArchConfig{}});
  // Designs share a setup: the adaptive artifacts are built by the first
  // adaptive trial, kept across non-adaptive ones, and rebuilt when the
  // segment size or the setup key (here the partition) changes.
  setups.push_back({DesignKind::AdaptBuf, wide_segments});
  setups.push_back({DesignKind::InitBuf, wide_segments});
  setups.push_back({DesignKind::SyncBuf, ArchConfig{}});
  setups.push_back({DesignKind::AdaptBuf, ArchConfig{}});
  setups.push_back({DesignKind::IdealMono, ArchConfig{}});
  setups.push_back({DesignKind::InitBuf, ArchConfig{}});
  setups.push_back({DesignKind::AdaptBuf, ArchConfig{}, true});
  setups.push_back({DesignKind::InitBuf, ArchConfig{}});

  RunContext reused;
  // Two passes so every setup is revisited after the cache was retargeted.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < setups.size(); ++i) {
      SCOPED_TRACE("pass " + std::to_string(pass) + " setup " +
                   std::to_string(i));
      const auto& [design, config, other_partition] = setups[i];
      const std::vector<int> assignment =
          design == DesignKind::IdealMono ? std::vector<int>{}
          : other_partition               ? moved
                                          : part.assignment;
      const std::uint64_t seed = 100 + i;
      const RunResult fresh =
          RunContext().execute(qc, assignment, config, design, seed);
      const RunResult ctx = reused.execute(qc, assignment, config, design,
                                           seed);
      expect_identical(ctx, fresh);
    }
  }
}

TEST(RunContextReuse, MatchesFreshEngineAcrossDeliveryModes) {
  // The context caches one object per delivery model and keeps its
  // services warm: switching composed, shared-capacity and swap-as-you-go
  // delivery (with and without a fault scenario) on one
  // RunContext must reproduce a fresh one-shot engine bit for bit.
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = partition_circuit(qc, 4);
  scenario::Scenario faults;
  faults.link_outages.push_back({0, 1, 20.0, 300.0});
  faults.node_outages.push_back({2, 50.0, 100.0});
  faults.random_failures = {400.0, 60.0};

  ArchConfig flat;
  flat.num_nodes = 4;
  ArchConfig ring = flat;
  ring.set_topology(net::Topology::ring(4));
  ArchConfig shared = ring;
  shared.share_edge_capacity = true;
  ArchConfig swap_go = ring;
  swap_go.swap_as_you_go = true;
  ArchConfig swap_go_faults = swap_go;
  swap_go_faults.set_scenario(faults);
  swap_go_faults.salvage_pairs = true;
  ArchConfig shared_faults = shared;
  shared_faults.set_scenario(faults);
  ArchConfig chain = flat;
  chain.set_topology(net::Topology::chain(4));
  chain.set_scenario(faults);
  const std::vector<ArchConfig> configs = {
      flat, ring, shared, swap_go, swap_go_faults, shared_faults, chain};

  RunContext reused;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      for (const DesignKind design : distributed_designs()) {
        SCOPED_TRACE("pass " + std::to_string(pass) + " config " +
                     std::to_string(i) + " " + design_name(design));
        const std::uint64_t seed = 40 + i;
        const RunResult fresh =
            RunContext().execute(qc, part.assignment, configs[i], design,
                                 seed);
        expect_identical(reused.execute(qc, part.assignment, configs[i],
                                        design, seed),
                         fresh);
      }
    }
  }
}

TEST(RunContextReuse, RepeatedSameSeedTrialsAreIdentical) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::TLIM_32);
  const auto part = partition_circuit(qc, 2);
  RunContext ctx;
  const RunResult first =
      ctx.execute(qc, part.assignment, {}, DesignKind::SyncBuf, 9);
  for (int i = 0; i < 3; ++i) {
    ctx.execute(qc, part.assignment, {}, DesignKind::SyncBuf, 9 + i + 1);
    const RunResult again =
        ctx.execute(qc, part.assignment, {}, DesignKind::SyncBuf, 9);
    expect_identical(again, first);
  }
}

TEST(RunContextReuse, ValidatesInputsOnEveryCall) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R4_32);
  const auto part = partition_circuit(qc, 2);
  RunContext ctx;
  ctx.execute(qc, part.assignment, {}, DesignKind::AsyncBuf, 1);
  EXPECT_THROW(
      ctx.execute(qc, {0, 1}, {}, DesignKind::AsyncBuf, 1),
      PreconditionError);
  std::vector<int> bad = part.assignment;
  bad.front() = 7;
  EXPECT_THROW(ctx.execute(qc, bad, {}, DesignKind::AsyncBuf, 1),
               PreconditionError);
  // The context stays usable after a rejected call.
  ctx.execute(qc, part.assignment, {}, DesignKind::AsyncBuf, 1);
}

TEST(ExperimentDeterminism, DifferentBaseSeedsDiffer) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = partition_circuit(qc, 2);
  const auto a = run_design(qc, part.assignment, {}, DesignKind::AsyncBuf, 8,
                            1000, 4);
  const auto b = run_design(qc, part.assignment, {}, DesignKind::AsyncBuf, 8,
                            2000, 4);
  EXPECT_NE(a.depth.mean(), b.depth.mean());
}

// ---------------------------------------------------------- matrix sweeps ----

TEST(RunDesignMatrix, MatchesIndividualRunDesignCalls) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = partition_circuit(qc, 2);
  constexpr int kRuns = 6;

  std::vector<DesignPoint> points;
  for (const DesignKind design : distributed_designs()) {
    points.push_back({design, ArchConfig{}});
  }
  ArchConfig wide;
  wide.comm_per_node = 20;
  wide.buffer_per_node = 20;
  points.push_back({DesignKind::AsyncBuf, wide});

  const auto matrix =
      run_design_matrix(qc, part.assignment, points, kRuns, 1000, 4);
  ASSERT_EQ(matrix.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    const AggregateResult direct =
        run_design(qc, part.assignment, points[i].config, points[i].design,
                   kRuns, 1000, /*threads=*/1);
    expect_identical(matrix[i], direct);
  }
}

TEST(RunDesignMatrix, EmptyPointListYieldsEmptyResult) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R4_32);
  const auto part = partition_circuit(qc, 2);
  EXPECT_TRUE(run_design_matrix(qc, part.assignment, {}, 4).empty());
}

TEST(RunDesignMatrix, ThreadCountNeverChangesResults) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::TLIM_32);
  const auto part = partition_circuit(qc, 2);
  const std::vector<DesignPoint> points = {{DesignKind::SyncBuf, {}},
                                           {DesignKind::InitBuf, {}}};
  const auto serial = run_design_matrix(qc, part.assignment, points, 5, 7, 1);
  const auto parallel =
      run_design_matrix(qc, part.assignment, points, 5, 7, 8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_identical(serial[i], parallel[i]);
  }
}

// ------------------------------------------------------- warm contexts ----
// run_design keeps one RunContext per worker id of the calling thread
// across calls; each call must still behave like a loop over fresh engines.

AggregateResult fresh_engines(const Circuit& qc,
                              const std::vector<int>& assignment,
                              const ArchConfig& config, DesignKind design,
                              int runs, std::uint64_t base_seed) {
  AggregateResult aggregate;
  for (int r = 0; r < runs; ++r) {
    aggregate.add(RunContext().execute(
        qc, assignment, config, design,
        base_seed + static_cast<std::uint64_t>(r)));
  }
  return aggregate;
}

/// `qc` with gate `index` replaced by `g` (same width and gate count).
Circuit with_gate(const Circuit& qc, std::size_t index, const Gate& g) {
  Circuit out(qc.num_qubits(), qc.name());
  for (std::size_t i = 0; i < qc.num_gates(); ++i) {
    out.append(i == index ? g : qc.gate(i));
  }
  return out;
}

TEST(WarmContexts, CircuitMutatedInPlaceIsResolvedByContent) {
  const Circuit original = gen::make_benchmark(gen::BenchmarkId::QAOA_R4_32);
  const auto part = partition_circuit(original, 2);
  const auto node = [&](QubitId q) {
    return part.assignment[static_cast<std::size_t>(q)];
  };
  // The first local two-qubit gate, and a qubit on the other node.
  std::size_t local = original.num_gates();
  for (std::size_t i = 0; i < original.num_gates(); ++i) {
    const Gate& g = original.gate(i);
    if (g.arity() == 2 && node(g.q0()) == node(g.q1())) {
      local = i;
      break;
    }
  }
  ASSERT_LT(local, original.num_gates());
  const Gate& g = original.gate(local);
  QubitId remote_peer = 0;
  while (node(remote_peer) == node(g.q0())) ++remote_peer;

  constexpr int kRuns = 6;
  for (const int threads : {1, 2}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    Circuit qc = original;
    const auto check = [&] {
      expect_identical(
          run_design(qc, part.assignment, {}, DesignKind::AsyncBuf, kRuns,
                     1000, threads),
          fresh_engines(qc, part.assignment, {}, DesignKind::AsyncBuf, kRuns,
                        1000));
    };
    check();
    // Same address, same shape, one local gate made remote.
    qc = with_gate(qc, local, make_gate(g.kind, g.q0(), remote_peer,
                                        g.param + 0.25));
    check();
    // Same address, one more remote gate.
    qc.cx(g.q0(), remote_peer);
    check();
  }
}

TEST(WarmContexts, DoNotKeepTheObserverAlive) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R4_32);
  const auto part = partition_circuit(qc, 2);
  for (const int threads : {1, 2}) {
    ArchConfig config;
    auto observe = obs::make_observe();
    const std::weak_ptr<obs::Observe> watch = observe;
    config.observe = std::move(observe);
    run_design(qc, part.assignment, config, DesignKind::AsyncBuf, 4, 1000,
               threads);
    config.observe.reset();
    EXPECT_TRUE(watch.expired()) << threads << " threads";
  }
}

TEST(WarmContexts, CallAfterAThrowingTrialMatchesSerial) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = partition_circuit(qc, 2);
  constexpr int kRuns = 8;
  constexpr std::uint64_t kSeed = 1000;
  for (const int threads : {1, 2}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    // Every trial throws mid-run, after it has counted itself into its
    // context's registry: no pair ever succeeds, the lazy services
    // schedule nothing, and with no trial budget the stalled simulation
    // is an invariant failure.
    ArchConfig stalling;
    stalling.p_succ = 1e-25;
    stalling.observe = obs::make_observe();
    EXPECT_THROW(run_design(qc, part.assignment, stalling,
                            DesignKind::AsyncBuf, kRuns, kSeed, threads),
                 InvariantError);

    ArchConfig observed;
    observed.observe = obs::make_observe();
    const AggregateResult after = run_design(
        qc, part.assignment, observed, DesignKind::AdaptBuf, kRuns, kSeed,
        threads);
    expect_identical(after, fresh_engines(qc, part.assignment, {},
                                          DesignKind::AdaptBuf, kRuns, kSeed));
    // Nothing the failed call accumulated leaks into this call's collector.
    const obs::Registry reg = observed.observe->collector.registry();
    EXPECT_EQ(reg.counter_value("trials"), static_cast<std::uint64_t>(kRuns));
    EXPECT_EQ(reg.counter_value("remote_gates"),
              static_cast<std::uint64_t>(after.remote_gates.mean() * kRuns));
  }
}

TEST(WarmContexts, NestedCallsMatchSerial) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = partition_circuit(qc, 2);
  const std::vector<DesignKind> designs = {DesignKind::AsyncBuf,
                                           DesignKind::InitBuf};
  // The outer call's caller runs a body too, so one nested call runs on
  // the thread whose pool and contexts the outer call holds; with threads
  // 0 it asks for more workers than that pool has.
  for (const int inner_threads : {2, 0}) {
    SCOPED_TRACE("inner threads " + std::to_string(inner_threads));
    std::vector<AggregateResult> nested(designs.size());
    parallel_for(
        designs.size(),
        [&](std::size_t k) {
          nested[k] = run_design(qc, part.assignment, {}, designs[k], 8, 1000,
                                 inner_threads);
        },
        /*num_threads=*/2);
    for (std::size_t k = 0; k < designs.size(); ++k) {
      SCOPED_TRACE(design_name(designs[k]));
      expect_identical(nested[k], run_design(qc, part.assignment, {},
                                             designs[k], 8, 1000, 1));
    }
  }
}

TEST(WarmContexts, DesignSweepBuildsOneSetup) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = partition_circuit(qc, 2);
  ArchConfig config;
  config.observe = obs::make_observe();
  // A fresh thread: its warm contexts start cold.
  std::thread([&] {
    for (int pass = 0; pass < 2; ++pass) {
      for (const DesignKind design : distributed_designs()) {
        if (!design_uses_buffer(design)) continue;
        run_design(qc, part.assignment, config, design, 4, 1000, 1);
      }
    }
  }).join();
  const obs::Registry reg = config.observe->collector.registry();
  EXPECT_EQ(reg.counter_value("setup_cache_misses"), 1u);
  EXPECT_EQ(reg.counter_value("setup_cache_hits"), 2u * 4u * 4u - 1u);
}

TEST(WarmContexts, ConcurrentCallersMatchSerial) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = partition_circuit(qc, 2);
  ArchConfig wide;
  wide.comm_per_node = 20;
  wide.buffer_per_node = 20;
  ArchConfig state_tp;
  state_tp.remote_impl = RemoteImpl::StateTeleport;
  const std::vector<ArchConfig> configs = {wide, state_tp};
  std::vector<AggregateResult> concurrent(configs.size());
  std::vector<std::thread> callers;
  for (std::size_t k = 0; k < configs.size(); ++k) {
    callers.emplace_back([&, k] {
      for (int rep = 0; rep < 3; ++rep) {
        concurrent[k] = run_design(qc, part.assignment, configs[k],
                                   DesignKind::AsyncBuf, 8, 1000, 2);
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (std::size_t k = 0; k < configs.size(); ++k) {
    SCOPED_TRACE("config " + std::to_string(k));
    expect_identical(concurrent[k],
                     run_design(qc, part.assignment, configs[k],
                                DesignKind::AsyncBuf, 8, 1000, 1));
  }
}

}  // namespace
}  // namespace dqcsim::runtime
