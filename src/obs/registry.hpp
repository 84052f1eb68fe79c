/// \file registry.hpp
/// \brief Named metrics registry: counters, max-gauges, and histograms.
///
/// Each worker's RunContext accumulates into its own Registry and merges it
/// into the shared obs::Collector at trial end. Every stored quantity is
/// either an exact integer (counters, histogram buckets) or a running
/// max/min (gauges, histogram extrema), so merge() is commutative and
/// associative — snapshots are bit-identical at any thread count even
/// though workers finish trials in nondeterministic order.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "common/json.hpp"

namespace dqcsim::obs {

/// Registry of named counters, max-gauges, and histograms. Registration
/// (name → handle) is cold-path; recording through a handle is a bounds-free
/// vector index on the hot path. Registering an existing name returns the
/// existing handle (histograms additionally require an identical bucket
/// configuration).
class Registry {
 public:
  /// Opaque per-kind index; valid for the lifetime of the registry.
  using Handle = std::size_t;

  /// Monotone integer counter (starts at 0).
  Handle counter(const std::string& name);
  /// Max-watermark gauge (starts empty; reports 0 until recorded).
  Handle gauge(const std::string& name);
  /// Fixed-bin histogram (see Histogram::fixed).
  Handle fixed_histogram(const std::string& name, double lo, double hi,
                         std::size_t bins);
  /// Log-bucketed streaming-quantile histogram (see Histogram::logarithmic).
  Handle log_histogram(const std::string& name);

  void add(Handle h, std::uint64_t delta = 1) noexcept {
    counters_[h].value += delta;
  }
  void gauge_max(Handle h, double v) noexcept {
    auto& g = gauges_[h];
    g.value = g.seen ? (v > g.value ? v : g.value) : v;
    g.seen = true;
  }
  void observe(Handle h, double v) noexcept { hists_[h].hist.add(v); }

  /// Lookups by name (tests and report writers); zero/null when absent.
  std::uint64_t counter_value(const std::string& name) const noexcept;
  double gauge_value(const std::string& name) const noexcept;
  const Histogram* histogram(const std::string& name) const noexcept;

  /// Fold another registry in by name, creating entries this one lacks.
  /// Exact integer / max arithmetic: order-independent.
  void merge(const Registry& other);

  /// Zero all values, keeping registrations and handles (the per-trial
  /// reset; no allocation).
  void reset_values() noexcept;

  bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && hists_.empty();
  }

  /// Snapshot as {"counters": {...}, "gauges": {...}, "histograms":
  /// {name: {count, min, max, p50, p90, p99}}}, each section sorted by
  /// name so the serialization is canonical.
  JsonValue to_json() const;

 private:
  struct Counter {
    std::string name;
    std::uint64_t value = 0;
  };
  struct Gauge {
    std::string name;
    double value = 0.0;
    bool seen = false;
  };
  struct NamedHist {
    std::string name;
    Histogram hist;
  };

  std::vector<Counter> counters_;
  std::vector<Gauge> gauges_;
  std::vector<NamedHist> hists_;
};

}  // namespace dqcsim::obs
