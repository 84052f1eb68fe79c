/// \file observer.hpp
/// \brief The engine's one observation sink (internal, like delivery.hpp):
/// the trace, registry and profile of one RunContext (config.observe; see
/// src/obs/). Every hook is an inline member that returns on one branch
/// while the trial is unobserved: no clock read, no allocation, no virtual
/// call. Observation never draws from the RNG or schedules an event, so
/// results are bit-identical with the observer on or off.

#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "ent/generation_service.hpp"
#include "obs/observe.hpp"
#include "obs/trace.hpp"
#include "runtime/metrics.hpp"

namespace dqcsim::runtime::detail {

struct TrialState;

class TrialObserver {
 public:
  /// Observes the trials `t` runs (its links name the trace tracks).
  explicit TrialObserver(const TrialState& t) : t_(t) {}

  /// Arm for the trial `t` starts. The traced trial is selected by its
  /// per-run seed, so the exported trace is thread-count independent.
  void begin_trial();
  /// End of trial: fold the result counters into the registry, export the
  /// traced trial, and merge this worker's accumulation into the shared
  /// collector. Edge tracks are named under a scenario or per-edge delivery.
  void finish(double makespan, bool scenario);

  bool metrics() const noexcept { return metrics_; }
  obs::Profile* prof() noexcept { return profile_on_ ? &profile_ : nullptr; }

  // --- hooks ----------------------------------------------------------------
  void setup_cache(bool hit) noexcept {
    if (metrics_) reg_.add(hit ? h_.setup_hits : h_.setup_misses);
  }
  void route_cache(bool hit) noexcept {
    if (metrics_) reg_.add(hit ? h_.route_hits : h_.route_misses);
  }
  /// One consumed pair's buffer dwell, in pop order.
  void pair_age(double age) noexcept {
    if (metrics_) reg_.observe(h_.pair_age, age);
  }
  void trace_service(ent::GenerationService& svc, std::uint32_t track) {
    if (trace_) svc.set_trial_trace(&buf_, track);
  }
  void instant(obs::Ev ev, std::uint32_t track, double t) noexcept {
    if (trace_) buf_.instant(ev, track, t);
  }
  /// A remote gate on `link`, ready at `ready_at`, starts at `now`.
  void remote_served(std::size_t link, double ready_at, double now,
                     double hops, double exec_latency) noexcept {
    if (metrics_) {
      reg_.observe(h_.remote_wait, now - ready_at);
      reg_.observe(h_.route_hops, hops);
    }
    if (trace_) {
      buf_.span(obs::Ev::RemoteWait, link_track(link), ready_at, now);
      buf_.span(obs::Ev::RemoteExec, link_track(link), now,
                now + exec_latency);
    }
  }
  /// Logical link `link` was routeless over [since, until].
  void link_outage(std::size_t link, double since, double until) noexcept {
    if (metrics_) reg_.observe(h_.outage_downtime, until - since);
    if (trace_) buf_.span(obs::Ev::Outage, link_track(link), since, until);
  }
  void edge_down(std::size_t e, double t) noexcept {
    if (trace_) edge_down_since_[e] = t;
  }
  /// Physical edge `e`'s outage closes at `t` (a recovery, or the makespan
  /// while still down): a span on the edge's own track.
  void edge_outage_over(std::size_t e, double t) noexcept {
    if (!trace_) return;
    const double since = edge_down_since_[e];
    buf_.span(obs::Ev::Outage, edge_track(e), since, std::max(since, t));
  }

  /// Trace track ids: 0 = engine, then logical links, then physical edges.
  static std::uint32_t link_track(std::size_t i) noexcept {
    return 1 + static_cast<std::uint32_t>(i);
  }
  std::uint32_t edge_track(std::size_t e) const noexcept;

 private:
  /// Registry handles, resolved once per RunContext (registration is the
  /// cold path; recording through a handle is a vector index).
  struct Handles {
    obs::Registry::Handle trials = 0;
    obs::Registry::Handle setup_hits = 0;
    obs::Registry::Handle setup_misses = 0;
    obs::Registry::Handle route_hits = 0;
    obs::Registry::Handle route_misses = 0;
    obs::Registry::Handle trace_dropped = 0;
    obs::Registry::Handle max_delivery_gap = 0;
    obs::Registry::Handle makespan_max = 0;
    obs::Registry::Handle pair_age = 0;
    obs::Registry::Handle remote_wait = 0;
    obs::Registry::Handle outage_downtime = 0;
    obs::Registry::Handle route_hops = 0;
    /// The metric table's counter rows, in table order.
    std::array<obs::Registry::Handle, kRegistryCounterCount> metrics{};
  };
  void resolve_handles();

  const TrialState& t_;
  bool metrics_ = false;     ///< this trial records registry metrics
  bool profile_on_ = false;  ///< this trial times its phases
  bool trace_ = false;       ///< this trial is the traced one
  obs::TraceBuffer buf_;
  obs::TraceSink sink_;
  obs::Registry reg_;     ///< this worker's accumulation, merged per trial
  obs::Profile profile_;  ///< this worker's phase timings
  Handles h_;
  std::vector<double> edge_down_since_;  ///< traced trial: per edge
};

}  // namespace dqcsim::runtime::detail
