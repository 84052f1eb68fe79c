/// \file metrics.hpp
/// \brief Per-run results and multi-seed aggregation (figures of merit,
/// paper §IV-B: circuit depth and circuit fidelity).
///
/// DQCSIM_TRIAL_METRICS is the one place the per-trial metrics are
/// declared. RunResult's members, AggregateResult's accumulators and add(),
/// and the engine's registry counters are all generated from it, so adding
/// a metric means adding one row.

#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "common/stats.hpp"

namespace dqcsim::runtime {

/// How the observability registry folds a metric over trials.
enum class RegistryFold : std::uint8_t {
  Counter,  ///< summed into a registry counter named after the field
  None,     ///< not exported (doubles feed per-sample histograms instead)
};

/// The per-trial metric table: X(type, name, initial value, RegistryFold).
/// Rows are in RunResult member order.
// clang-format off
#define DQCSIM_TRIAL_METRICS(X)                                              \
  /** Makespan in local-CNOT units. */                                       \
  X(double, depth, 0.0, None)                                                \
  /** Estimated output fidelity; at least the smallest positive double     \
      (a product decayed below the double range does not read as 0). */    \
  X(double, fidelity, 0.0, None)                                             \
  /* Fidelity breakdown (products of the respective factors). */             \
  /** 1Q + local 2Q + measurement gates. */                                  \
  X(double, fidelity_local, 1.0, None)                                       \
  /** Teleported gates. */                                                   \
  X(double, fidelity_remote, 1.0, None)                                      \
  /** exp(-kappa * makespan). */                                             \
  X(double, fidelity_idling, 1.0, None)                                      \
  /* Entanglement accounting. */                                             \
  X(std::size_t, remote_gates, 0, Counter)                                   \
  X(std::size_t, epr_attempts, 0, Counter)                                   \
  X(std::size_t, epr_successes, 0, Counter)                                  \
  X(std::size_t, epr_consumed, 0, Counter)                                   \
  /** Unconsumed (original) or buffer-full. */                               \
  X(std::size_t, epr_wasted, 0, Counter)                                     \
  /** Discarded by the buffer cutoff policy. */                              \
  X(std::size_t, epr_expired, 0, Counter)                                    \
  /** Mean buffer dwell time of consumed pairs. Aggregated as              \
      `avg_pair_age_mean` / `_p50` / `_p99` in bench reports. */             \
  X(double, avg_pair_age, 0.0, None)                                         \
  /** Mean remote-gate wait for a pair. Aggregated as                      \
      `avg_remote_wait_mean` / `_p50` / `_p99` in bench reports. */          \
  X(double, avg_remote_wait, 0.0, None)                                      \
  /* Routing accounting (topology-backed interconnects; see src/net/). */    \
  /** Entanglement swaps performed for consumed end-to-end pairs: each     \
      pair delivered over an h-hop route costs h - 1 swaps. 0 on           \
      single-hop (all-to-all) interconnects. Aggregated as                 \
      `entanglement_swaps_mean` in bench reports (the field name, like     \
      every counter key, matches this member's name). */                   \
  X(std::size_t, entanglement_swaps, 0, Counter)                             \
  /** Mean route length (hops) over executed remote gates; 1.0 when every  \
      consumed pair crossed a direct physical link, 0 with no remote       \
      gates. */                                                              \
  X(double, avg_route_hops, 0.0, None)                                       \
  /* Contention accounting (opt-in shared-capacity / swap-as-you-go       \
     modes; see net/congestion.hpp). All zero in the legacy                \
     independent-budget engine. The three t=0 structural fields are not    \
     exported: a sum over trials means nothing. */                           \
  /** Physical edges crossed by more than one logical route at t=0. */      \
  X(std::size_t, edges_shared, 0, None)                                      \
  /** Largest number of logical routes crossing any one physical edge at   \
      t=0 (1 on contention-free placements, 0 with no routed links). */    \
  X(std::size_t, max_edge_load, 0, None)                                     \
  /** Always 0: every link routes over its one static path. The row      \
      stays while perfbench still compares it. */                          \
  X(std::size_t, route_splits, 0, None)                                      \
  /* Fault-scenario accounting (ArchConfig::scenario; see src/scenario/). */ \
  /** Route re-establishments over the trial: a logical link switching to  \
      a surviving path while live, or coming back up after downtime (on a  \
      new path or the recovered original). Counting recoveries keeps the   \
      metric meaningful on topologies with a unique path — a chain can     \
      only ever restore, never detour. */                                   \
  X(std::size_t, reroutes, 0, Counter)                                       \
  /** Outage boundaries at which at least one logical link lost its        \
      route. */                                                              \
  X(std::size_t, outage_events, 0, Counter)                                  \
  /** Summed time logical links spent without a live route (time units; a  \
      boundary taking two links down for 5 units accrues 10). Aggregated   \
      as `outage_downtime_mean` / `_p50` / `_p99` in bench reports. */      \
  X(double, outage_downtime, 0.0, None)                                      \
  /* Degraded-mode accounting (opt-in salvage knob; see                      \
     docs/ARCHITECTURE.md "Fault handling & degraded modes"). All zero       \
     with the knob off. */                                                   \
  /** Pairs rescued across an outage (salvage_pairs): end-to-end pairs     \
      assembled from pre-outage hop stock over a severed route (swap-as-   \
      you-go), pairs consumed or kept through a route loss / re-plan in    \
      the composed model. */                                                 \
  X(std::size_t, pairs_salvaged, 0, Counter)                                 \
  /** Buffered pairs dropped at fault boundaries: the stock at a down        \
      node (salvage_pairs). */                                               \
  X(std::size_t, pairs_discarded, 0, Counter)                                \
  /** Generation services that at some point went more than               \
      ArchConfig::stall_windows attempt windows without one successful     \
      generation (0 when the watchdog is off). */                            \
  X(std::size_t, links_stalled, 0, Counter)                                  \
  /** True when the trial hit ArchConfig::max_trial_sim_time and stopped   \
      with unfinished gates; every metric is then a partial figure over    \
      the truncated horizon. Aggregated as the fraction of runs that hit   \
      the budget (mean of 0/1). */                                           \
  X(bool, truncated, false, None)                                            \
  /* Adaptive-controller decisions (adapt_buf / init_buf only). */           \
  X(std::size_t, segments_asap, 0, Counter)                                  \
  X(std::size_t, segments_alap, 0, Counter)                                  \
  X(std::size_t, segments_original, 0, Counter)                              \
  /* Purification accounting (purify_on_consume only). */                   \
  X(std::size_t, purification_rounds, 0, Counter)                            \
  X(std::size_t, purification_failures, 0, Counter)
// clang-format on

/// Outcome of one simulated execution: one member per table row.
struct RunResult {
#define DQCSIM_METRIC_MEMBER(type, name, init, fold) type name = init;
  DQCSIM_TRIAL_METRICS(DQCSIM_METRIC_MEMBER)
#undef DQCSIM_METRIC_MEMBER
};

/// Number of table rows the registry exports as counters.
inline constexpr std::size_t kRegistryCounterCount = 0
#define DQCSIM_METRIC_COUNT(type, name, init, fold) \
  +(RegistryFold::fold == RegistryFold::Counter ? 1 : 0)
    DQCSIM_TRIAL_METRICS(DQCSIM_METRIC_COUNT);
#undef DQCSIM_METRIC_COUNT

/// Calls f(name, value) for each row the registry exports as a counter, in
/// table order (kRegistryCounterCount calls).
template <typename F>
void for_each_registry_counter(const RunResult& run, F&& f) {
#define DQCSIM_METRIC_COUNTER(type, name, init, fold)          \
  static_assert(RegistryFold::fold != RegistryFold::Counter || \
                    std::is_same_v<type, std::size_t>,         \
                "registry counters are integer event counts"); \
  if constexpr (RegistryFold::fold == RegistryFold::Counter) { \
    f(#name, static_cast<std::uint64_t>(run.name));            \
  }
  DQCSIM_TRIAL_METRICS(DQCSIM_METRIC_COUNTER)
#undef DQCSIM_METRIC_COUNTER
}

/// Streaming aggregate over repeated runs (the paper averages 50): one
/// Accumulator per table row, named like the RunResult member it folds.
///
/// Bench reports name aggregated counters `<field>_mean` (e.g.
/// `reroutes_mean`, `outage_downtime_mean`); avg_pair_age, avg_remote_wait
/// and outage_downtime additionally surface `<field>_p50` / `<field>_p99`.
/// run_design folds runs in run-index order regardless of which worker
/// produced them, so every statistic — quantiles included — is
/// bit-identical at any thread count.
struct AggregateResult {
  /// Enables the quantile histograms on avg_pair_age, avg_remote_wait, and
  /// outage_downtime (a few KiB per aggregate; see Accumulator::quantile).
  AggregateResult();

#define DQCSIM_METRIC_ACCUMULATOR(type, name, init, fold) Accumulator name;
  DQCSIM_TRIAL_METRICS(DQCSIM_METRIC_ACCUMULATOR)
#undef DQCSIM_METRIC_ACCUMULATOR

  /// Fold one run into the aggregate (bools as 0/1).
  void add(const RunResult& run);
};

}  // namespace dqcsim::runtime
