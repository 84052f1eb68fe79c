/// \file metrics.hpp
/// \brief Per-run results and multi-seed aggregation (figures of merit,
/// paper §IV-B: circuit depth and circuit fidelity).

#pragma once

#include <cstddef>

#include "common/stats.hpp"

namespace dqcsim::runtime {

/// Outcome of one simulated execution.
struct RunResult {
  double depth = 0.0;     ///< makespan in local-CNOT units
  /// Estimated output fidelity; at least the smallest positive double
  /// (a product decayed below the double range does not read as 0).
  double fidelity = 0.0;

  // Fidelity breakdown (products of the respective factors).
  double fidelity_local = 1.0;   ///< 1Q + local 2Q + measurement gates
  double fidelity_remote = 1.0;  ///< teleported gates
  double fidelity_idling = 1.0;  ///< exp(-kappa * makespan)

  // Entanglement accounting.
  std::size_t remote_gates = 0;
  std::size_t epr_attempts = 0;
  std::size_t epr_successes = 0;
  std::size_t epr_consumed = 0;
  std::size_t epr_wasted = 0;   ///< unconsumed (original) or buffer-full
  std::size_t epr_expired = 0;  ///< discarded by the buffer cutoff policy
  /// Mean buffer dwell time of consumed pairs. Aggregated as
  /// `avg_pair_age_mean` / `_p50` / `_p99` in bench reports.
  double avg_pair_age = 0.0;
  /// Mean remote-gate wait for a pair. Aggregated as
  /// `avg_remote_wait_mean` / `_p50` / `_p99` in bench reports.
  double avg_remote_wait = 0.0;

  // Routing accounting (topology-backed interconnects; see src/net/).
  /// Entanglement swaps performed for consumed end-to-end pairs: each pair
  /// delivered over an h-hop route costs h - 1 swaps. 0 on single-hop
  /// (all-to-all) interconnects. Aggregated as `entanglement_swaps_mean`
  /// in bench reports (the field name, like every counter key, matches
  /// this struct's member name).
  std::size_t entanglement_swaps = 0;
  /// Mean route length (hops) over executed remote gates; 1.0 when every
  /// consumed pair crossed a direct physical link, 0 with no remote gates.
  double avg_route_hops = 0.0;

  // Contention accounting (opt-in congestion / shared-capacity / swap-as-
  // you-go modes; see net/congestion.hpp). All zero in the legacy
  // independent-budget engine.
  /// Physical edges crossed by more than one logical route at t=0.
  std::size_t edges_shared = 0;
  /// Largest number of logical routes crossing any one physical edge at
  /// t=0 (1 on contention-free placements, 0 with no routed links).
  std::size_t max_edge_load = 0;
  /// Logical links splitting traffic across two cost-tied disjoint paths.
  std::size_t route_splits = 0;

  // Fault-scenario accounting (ArchConfig::scenario; see src/scenario/).
  /// Route re-establishments over the trial: a logical link switching to a
  /// surviving path while live, or coming back up after downtime (on a new
  /// path or the recovered original). Counting recoveries keeps the metric
  /// meaningful on topologies with a unique path — a chain can only ever
  /// restore, never detour.
  std::size_t reroutes = 0;
  /// Outage boundaries at which at least one logical link lost its route.
  std::size_t outage_events = 0;
  /// Summed time logical links spent without a live route (time units;
  /// a boundary taking two links down for 5 units accrues 10). Aggregated
  /// as `outage_downtime_mean` / `_p50` / `_p99` in bench reports.
  double outage_downtime = 0.0;

  // Degraded-mode accounting (opt-in salvage / re-sharing / retry knobs;
  // see docs/ARCHITECTURE.md "Fault handling & degraded modes"). All zero
  // with the knobs off.
  /// Pairs rescued across an outage (salvage_pairs): end-to-end pairs
  /// assembled from pre-outage hop stock over a severed route (swap-as-
  /// you-go), pairs consumed or kept through a route loss / re-plan in
  /// the composed model.
  std::size_t pairs_salvaged = 0;
  /// Buffered pairs dropped at fault boundaries: stock at a down node
  /// (salvage_pairs) or overflow from a shrunken capacity share
  /// (reshare_at_boundaries), oldest first.
  std::size_t pairs_discarded = 0;
  /// Generation services that at some point went more than
  /// ArchConfig::stall_windows attempt windows without one successful
  /// generation (0 when the watchdog is off).
  std::size_t links_stalled = 0;
  /// True when the trial hit ArchConfig::max_trial_sim_time and stopped
  /// with unfinished gates; every metric is then a partial figure over
  /// the truncated horizon.
  bool truncated = false;

  // Adaptive-controller decisions (adapt_buf / init_buf only).
  std::size_t segments_asap = 0;
  std::size_t segments_alap = 0;
  std::size_t segments_original = 0;

  // Purification accounting (purify_on_consume only).
  std::size_t purification_rounds = 0;
  std::size_t purification_failures = 0;
};

/// Streaming aggregate over repeated runs (the paper averages 50).
///
/// Bench reports name aggregated counters `<field>_mean` (e.g.
/// `reroutes_mean`, `outage_downtime_mean`); the three distribution
/// metrics below additionally surface `<field>_p50` / `<field>_p99`.
/// run_design folds runs in run-index order regardless of which worker
/// produced them, so every statistic — quantiles included — is
/// bit-identical at any thread count.
struct AggregateResult {
  /// Enables the quantile histograms on avg_pair_age, avg_remote_wait, and
  /// outage_downtime (a few KiB per aggregate; see Accumulator::quantile).
  AggregateResult();

  Accumulator depth;
  Accumulator fidelity;
  Accumulator epr_wasted;
  Accumulator epr_expired;
  Accumulator avg_pair_age;
  Accumulator avg_remote_wait;
  Accumulator entanglement_swaps;
  Accumulator avg_route_hops;
  Accumulator edges_shared;
  Accumulator max_edge_load;
  Accumulator route_splits;
  Accumulator reroutes;
  Accumulator outage_downtime;
  Accumulator pairs_salvaged;
  Accumulator pairs_discarded;
  Accumulator links_stalled;
  /// Fraction of runs that hit the trial sim-time budget (mean of 0/1).
  Accumulator truncated;

  /// Fold one run into the aggregate.
  void add(const RunResult& run);
};

}  // namespace dqcsim::runtime
