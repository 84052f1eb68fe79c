/// Unit and end-to-end tests for the observability layer (src/obs/):
/// deterministic histograms, the metrics registry and its order-independent
/// merge, the phase profile, the trace ring/exporter, and the engine-level
/// contracts — attaching an observer never changes results, registry
/// snapshots and the traced trial's JSON are bit-identical at any thread
/// count, and a null observer is bit-identical to no observer at all.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/histogram.hpp"
#include "expect_identical.hpp"
#include "gen/benchmarks.hpp"
#include "net/topology.hpp"
#include "obs/observe.hpp"
#include "obs/registry.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"
#include "runtime/arch_config.hpp"
#include "runtime/design.hpp"
#include "runtime/engine.hpp"
#include "runtime/experiment.hpp"
#include "runtime/metrics.hpp"
#include "scenario/scenario.hpp"

namespace dqcsim::obs {
namespace {

using runtime::AggregateResult;
using runtime::ArchConfig;
using runtime::DesignKind;
using runtime::RunResult;

// ------------------------------------------ Histogram (registry modes) ----

TEST(Hist, UnconfiguredAddIsNoop) {
  Histogram h;
  EXPECT_FALSE(h.configured());
  h.add(3.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Hist, FixedBinQuantiles) {
  Histogram h = Histogram::fixed(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(static_cast<double>(i) + 0.5);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.5);  // exact extrema at the ends
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 9.5);
}

TEST(Hist, LogarithmicCoversWideRanges) {
  Histogram h = Histogram::logarithmic();
  const std::vector<double> xs = {0.001, 0.1, 1.0, 7.0, 64.0, 1e6};
  for (double x : xs) h.add(x);
  EXPECT_EQ(h.count(), xs.size());
  EXPECT_DOUBLE_EQ(h.min(), 0.001);
  EXPECT_DOUBLE_EQ(h.max(), 1e6);
  for (double q : {0.1, 0.5, 0.9}) {
    EXPECT_GE(h.quantile(q), h.min()) << "q=" << q;
    EXPECT_LE(h.quantile(q), h.max()) << "q=" << q;
  }
}

TEST(Hist, MergeIsOrderIndependent) {
  // Integer bucket counts + exact extrema: merging in any order yields the
  // same quantiles bit-for-bit. This is the registry's determinism basis.
  Histogram a = Histogram::logarithmic(), b = Histogram::logarithmic();
  Histogram ab = Histogram::logarithmic(), ba = Histogram::logarithmic();
  for (int i = 1; i <= 50; ++i) a.add(static_cast<double>(i) * 0.37);
  for (int i = 1; i <= 70; ++i) b.add(static_cast<double>(i) * 1.93);
  ab.merge(a);
  ab.merge(b);
  ba.merge(b);
  ba.merge(a);
  EXPECT_EQ(ab.count(), ba.count());
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(ab.quantile(q), ba.quantile(q)) << "q=" << q;
  }
}

TEST(Hist, ResetValuesKeepsConfiguration) {
  Histogram h = Histogram::fixed(0.0, 4.0, 4);
  h.add(1.0);
  h.reset_values();
  EXPECT_TRUE(h.configured());
  EXPECT_EQ(h.count(), 0u);
  h.add(3.5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.5);
}

// ------------------------------------------------------------- Registry ----

TEST(Registry, RegistrationIsIdempotent) {
  Registry r;
  const auto c1 = r.counter("widgets");
  const auto c2 = r.counter("widgets");
  EXPECT_EQ(c1, c2);
  r.add(c1);
  r.add(c2, 4);
  EXPECT_EQ(r.counter_value("widgets"), 5u);
  EXPECT_EQ(r.counter_value("absent"), 0u);
}

TEST(Registry, GaugeKeepsMaximum) {
  Registry r;
  const auto g = r.gauge("watermark");
  EXPECT_DOUBLE_EQ(r.gauge_value("watermark"), 0.0);  // unseen reports 0
  r.gauge_max(g, -2.0);
  EXPECT_DOUBLE_EQ(r.gauge_value("watermark"), -2.0);  // first value wins...
  r.gauge_max(g, 7.5);
  r.gauge_max(g, 3.0);
  EXPECT_DOUBLE_EQ(r.gauge_value("watermark"), 7.5);  // ...then max
}

TEST(Registry, MergeIsOrderIndependentDownToTheSnapshot) {
  const auto fill = [](Registry& r, std::uint64_t n, double scale) {
    const auto c = r.counter("events");
    const auto g = r.gauge("peak");
    const auto h = r.log_histogram("latency");
    for (std::uint64_t i = 1; i <= n; ++i) {
      r.add(c);
      r.gauge_max(g, static_cast<double>(i) * scale);
      r.observe(h, static_cast<double>(i) * scale);
    }
  };
  Registry a, b, c;
  fill(a, 11, 0.5);
  fill(b, 23, 2.25);
  fill(c, 5, 40.0);

  Registry left, right;
  left.merge(a);
  left.merge(b);
  left.merge(c);
  right.merge(c);
  right.merge(a);
  right.merge(b);
  // The canonical JSON snapshot (sorted sections) must match bit-for-bit.
  EXPECT_EQ(left.to_json().dump(0), right.to_json().dump(0));
  EXPECT_EQ(left.counter_value("events"), 39u);
}

TEST(Registry, ResetValuesKeepsHandlesAndNames) {
  Registry r;
  const auto c = r.counter("events");
  const auto h = r.fixed_histogram("hops", 0.0, 8.0, 8);
  r.add(c, 3);
  r.observe(h, 2.0);
  r.reset_values();
  EXPECT_EQ(r.counter_value("events"), 0u);
  ASSERT_NE(r.histogram("hops"), nullptr);
  EXPECT_EQ(r.histogram("hops")->count(), 0u);
  r.add(c);  // handles stay valid after the reset
  EXPECT_EQ(r.counter_value("events"), 1u);
}

// -------------------------------------------------------------- Profile ----

TEST(Profile, RecordMergeReset) {
  Profile p, q;
  p.record(Phase::Drive, 100);
  p.record(Phase::Drive, 50);
  q.record(Phase::Drive, 7);
  q.record(Phase::Setup, 1);
  p.merge(q);
  EXPECT_EQ(p.calls(Phase::Drive), 3u);
  EXPECT_EQ(p.total_ns(Phase::Drive), 157u);
  EXPECT_EQ(p.calls(Phase::Setup), 1u);
  const std::string json = p.to_json().dump(0);
  EXPECT_NE(json.find("\"obs_profile\""), std::string::npos);
  EXPECT_NE(json.find("phase/Drive"), std::string::npos);
  p.reset();
  EXPECT_EQ(p.calls(Phase::Drive), 0u);
}

TEST(Profile, ScopeTimerNullProfileIsInert) {
  // The observer-off contract: OBS_SCOPE on a null profile must not crash
  // or record anything.
  { OBS_SCOPE(static_cast<Profile*>(nullptr), Phase::Drive); }
  Profile p;
  { OBS_SCOPE(&p, Phase::Finalize); }
  EXPECT_EQ(p.calls(Phase::Finalize), 1u);
}

// ---------------------------------------------------------------- Trace ----

TEST(TraceBuffer, RingEvictsOldestAndCountsDrops) {
  TraceBuffer buf;
  buf.reset(4);
  for (int i = 0; i < 6; ++i) {
    buf.instant(Ev::Deposit, 1, static_cast<double>(i));
  }
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.dropped(), 2u);
  const auto evs = buf.events();
  ASSERT_EQ(evs.size(), 4u);
  // Oldest two (t = 0, 1) were evicted; survivors come back oldest-first.
  EXPECT_DOUBLE_EQ(evs.front().t0, 2.0);
  EXPECT_DOUBLE_EQ(evs.back().t0, 5.0);
}

TEST(TraceSink, ExportsWellFormedChromeTraceJson) {
  TraceBuffer buf;
  buf.reset(16);
  buf.span(Ev::GenOk, 1, 0.0, 2.0);
  buf.instant(Ev::Reroute, 1, 1.0);
  buf.span(Ev::Trial, 0, 0.0, 5.0);
  TraceSink sink;
  sink.set_track_name(0, "engine");
  sink.set_track_name(1, "link 0-1");
  const std::string json = sink.to_json(buf, 1.0).dump(0);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"e\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"link 0-1\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\": 0"), std::string::npos);
}

// ------------------------------------------------- engine-level contracts ----

/// 8 qubits over 4 nodes with remote traffic on four node pairs (the same
/// shape the scenario determinism tests use).
Circuit four_node_circuit() {
  Circuit qc(8);
  for (int rep = 0; rep < 3; ++rep) {
    qc.rzz(1, 2, 0.1);
    qc.rzz(3, 4, 0.1);
    qc.rzz(5, 6, 0.1);
    qc.rzz(7, 0, 0.1);
    qc.rzz(0, 1, 0.1);
    qc.h(2);
  }
  return qc;
}

std::vector<int> four_node_assignment() { return {0, 0, 1, 1, 2, 2, 3, 3}; }

constexpr int kRuns = 8;
constexpr std::uint64_t kSeed = 1000;

ArchConfig base_config(bool faults) {
  ArchConfig config;
  config.num_nodes = 4;
  config.set_topology(net::Topology::ring(4));
  if (faults) {
    scenario::Scenario scn;
    scn.link_outages.push_back({1, 2, 5.0, 80.0});
    scn.random_failures.mtbf = 400.0;
    scn.random_failures.duration = 30.0;
    config.set_scenario(std::move(scn));
  }
  return config;
}

TEST(ObserveEngine, AttachingAnObserverNeverChangesResults) {
  // The core opt-in contract: full observation (metrics + profile + trace)
  // must be invisible in every figure of merit, with and without faults.
  const Circuit qc = four_node_circuit();
  const std::vector<int> nodes = four_node_assignment();
  for (const bool faults : {false, true}) {
    const ArchConfig plain = base_config(faults);
    for (const DesignKind design : runtime::distributed_designs()) {
      SCOPED_TRACE(runtime::design_name(design) +
                   (faults ? " +faults" : " stationary"));
      ArchConfig observed = plain;
      observed.observe = make_observe();
      observed.observe->trace_seed = kSeed + 2;
      const AggregateResult a =
          runtime::run_design(qc, nodes, plain, design, kRuns, kSeed, 1);
      const AggregateResult b =
          runtime::run_design(qc, nodes, observed, design, kRuns, kSeed, 1);
      expect_identical(a, b);
      EXPECT_TRUE(observed.observe->collector.has_trace());
    }
  }
}

/// Drop the workspace/route cache hit-miss counters from a pretty-printed
/// registry snapshot. Those four counters measure per-worker work done (each
/// RunContext misses its caches once), so — like the wall-clock profile —
/// they legitimately depend on the thread count and sit outside the
/// bit-identical guarantee that covers every trial-scoped metric.
std::string trial_scoped_snapshot(const std::string& pretty) {
  std::string out;
  std::size_t pos = 0;
  while (pos < pretty.size()) {
    std::size_t eol = pretty.find('\n', pos);
    if (eol == std::string::npos) eol = pretty.size();
    const std::string line = pretty.substr(pos, eol - pos);
    if (line.find("_cache_") == std::string::npos) {
      out += line;
      out += '\n';
    }
    pos = eol + 1;
  }
  return out;
}

TEST(ObserveEngine, RegistrySnapshotIsBitIdenticalAtAnyThreadCount) {
  const Circuit qc = four_node_circuit();
  const std::vector<int> nodes = four_node_assignment();
  for (const bool faults : {false, true}) {
    const ArchConfig plain = base_config(faults);
    for (const DesignKind design : runtime::distributed_designs()) {
      ArchConfig serial_config = plain;
      serial_config.observe = make_observe();
      runtime::run_design(qc, nodes, serial_config, design, kRuns, kSeed, 1);
      const std::string baseline = trial_scoped_snapshot(
          serial_config.observe->collector.registry_json());
      EXPECT_EQ(serial_config.observe->collector.registry()
                    .counter_value("trials"),
                static_cast<std::uint64_t>(kRuns));
      for (const int threads : {0, 2, 8}) {
        SCOPED_TRACE(runtime::design_name(design) +
                     (faults ? " +faults" : " stationary") + " @ " +
                     std::to_string(threads) + " threads");
        ArchConfig config = plain;
        config.observe = make_observe();
        runtime::run_design(qc, nodes, config, design, kRuns, kSeed, threads);
        EXPECT_EQ(
            trial_scoped_snapshot(config.observe->collector.registry_json()),
            baseline);
      }
    }
  }
}

TEST(ObserveEngine, RegistryCountersSumTheTrialResults) {
  // Every counter row of the metric table lands in the registry as the sum
  // of that RunResult field over the call's trials (seeds base + r, run one
  // by one here without an observer), at 1 and 8 threads alike. The t=0
  // structural rows, the doubles and `truncated` are not exported.
  const Circuit qc = four_node_circuit();
  const std::vector<int> nodes = four_node_assignment();
  ArchConfig purify = base_config(/*faults=*/false);
  purify.purify_on_consume = true;
  purify.fid.epr_f0 = 0.6;  // low enough that some rounds fail
  const std::pair<const char*, ArchConfig> cells[] = {
      {"stationary", base_config(false)},
      {"faults", base_config(true)},
      {"purify", purify}};
  std::map<std::string, std::uint64_t> nonzero;
  for (const auto& [label, plain] : cells) {
    for (const DesignKind design : runtime::distributed_designs()) {
      SCOPED_TRACE(runtime::design_name(design) + " " + label);
      std::map<std::string, std::uint64_t> sums;
      runtime::RunContext ctx;
      for (int r = 0; r < kRuns; ++r) {
        const RunResult run = ctx.execute(
            qc, nodes, plain, design, kSeed + static_cast<std::uint64_t>(r));
        runtime::for_each_registry_counter(
            run, [&](const char* name, std::uint64_t v) { sums[name] += v; });
      }
      ASSERT_EQ(sums.size(), runtime::kRegistryCounterCount);
      std::string snapshot_at_1;
      for (const int threads : {1, 8}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        ArchConfig config = plain;
        config.observe = make_observe();
        runtime::run_design(qc, nodes, config, design, kRuns, kSeed, threads);
        const Registry reg = config.observe->collector.registry();
        for (const auto& [name, sum] : sums) {
          EXPECT_EQ(reg.counter_value(name), sum) << name;
          nonzero[name] += sum;
        }
        const std::string json = config.observe->collector.registry_json();
        for (const char* absent : {"\"depth\"", "\"truncated\"",
                                   "\"edges_shared\"", "\"max_edge_load\"",
                                   "\"route_splits\""}) {
          EXPECT_EQ(json.find(absent), std::string::npos) << absent;
        }
        const std::string snapshot = trial_scoped_snapshot(json);
        if (threads == 1) {
          snapshot_at_1 = snapshot;
        } else {
          EXPECT_EQ(snapshot, snapshot_at_1);
        }
      }
    }
  }
  // The cells exercise generation, routing, faults, purification and the
  // adaptive controller, so the comparison above is not over zeros.
  for (const char* name :
       {"remote_gates", "epr_attempts", "epr_successes", "epr_consumed",
        "epr_wasted", "entanglement_swaps", "reroutes", "outage_events",
        "segments_asap", "purification_rounds", "purification_failures"}) {
    EXPECT_GT(nonzero[name], 0u) << name;
  }
}

TEST(ObserveEngine, TracedTrialJsonIsBitIdenticalAtAnyThreadCount) {
  const Circuit qc = four_node_circuit();
  const std::vector<int> nodes = four_node_assignment();
  // A chain cannot detour around its middle edge, so this outage guarantees
  // an Outage span (routeless interval) and a recovery Reroute instant in
  // every trial — a ring would absorb the fault as a live detour switch.
  ArchConfig plain;
  plain.num_nodes = 4;
  plain.set_topology(net::Topology::chain(4));
  scenario::Scenario scn;
  scn.link_outages.push_back({1, 2, 5.0, 80.0});
  plain.set_scenario(std::move(scn));

  ArchConfig serial_config = plain;
  serial_config.observe = make_observe();
  serial_config.observe->trace_seed = kSeed + 3;
  runtime::run_design(qc, nodes, serial_config, DesignKind::AsyncBuf, kRuns,
                      kSeed, 1);
  const std::string baseline = serial_config.observe->collector.trace_json();
  ASSERT_FALSE(baseline.empty());
  EXPECT_NE(baseline.find("\"traceEvents\""), std::string::npos);
  // The deterministic outage on edge 1-2 shows up as an outage span and a
  // recovery reroute in the traced trial.
  EXPECT_NE(baseline.find("\"outage\""), std::string::npos);
  EXPECT_NE(baseline.find("\"reroute\""), std::string::npos);

  for (const int threads : {0, 2, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ArchConfig config = plain;
    config.observe = make_observe();
    config.observe->trace_seed = kSeed + 3;
    runtime::run_design(qc, nodes, config, DesignKind::AsyncBuf, kRuns, kSeed,
                        threads);
    EXPECT_EQ(config.observe->collector.trace_json(), baseline);
  }
}

TEST(ObserveEngine, TraceOffLeavesCollectorWithoutTrace) {
  const Circuit qc = four_node_circuit();
  const std::vector<int> nodes = four_node_assignment();
  ArchConfig config = base_config(/*faults=*/false);
  config.observe = make_observe();  // trace_seed stays kTraceOff
  runtime::run_design(qc, nodes, config, DesignKind::AsyncBuf, kRuns, kSeed,
                      1);
  EXPECT_FALSE(config.observe->collector.has_trace());
  EXPECT_TRUE(config.observe->collector.trace_json().empty());
}

TEST(ObserveEngine, ProfileCoversTheEnginePhases) {
  const Circuit qc = four_node_circuit();
  const std::vector<int> nodes = four_node_assignment();
  ArchConfig config = base_config(/*faults=*/false);
  config.observe = make_observe();
  // run_design keeps its contexts warm per calling thread, so call it from
  // a new thread: its contexts start cold, as this test needs.
  std::thread caller([&] {
    runtime::run_design(qc, nodes, config, DesignKind::AsyncBuf, kRuns, kSeed,
                        1);
  });
  caller.join();
  const Profile p = config.observe->collector.profile();
  // Every trial drives the DES and finalizes its figures of merit; the
  // cold workspace is rebuilt at least once (then cached across
  // same-config trials).
  EXPECT_EQ(p.calls(Phase::Drive), static_cast<std::uint64_t>(kRuns));
  EXPECT_EQ(p.calls(Phase::Finalize), static_cast<std::uint64_t>(kRuns));
  EXPECT_GE(p.calls(Phase::Setup), 1u);
}

TEST(ObserveEngine, RegistryHistogramsSeeTraffic) {
  const Circuit qc = four_node_circuit();
  const std::vector<int> nodes = four_node_assignment();
  ArchConfig config = base_config(/*faults=*/false);
  config.observe = make_observe();
  runtime::run_design(qc, nodes, config, DesignKind::AsyncBuf, kRuns, kSeed,
                      1);
  const Registry reg = config.observe->collector.registry();
  const Histogram* wait = reg.histogram("remote_wait");
  ASSERT_NE(wait, nullptr);
  EXPECT_GT(wait->count(), 0u);
  EXPECT_GE(wait->quantile(0.5), wait->min());
  EXPECT_LE(wait->quantile(0.5), wait->max());
  const Histogram* hops = reg.histogram("route_hops");
  ASSERT_NE(hops, nullptr);
  EXPECT_GT(hops->count(), 0u);
  // Ring-of-4 routes are at most 2 hops (detours under no faults: direct).
  EXPECT_GE(hops->min(), 1.0);
}

}  // namespace
}  // namespace dqcsim::obs
