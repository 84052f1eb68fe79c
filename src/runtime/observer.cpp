#include "runtime/observer.hpp"

#include <string>

#include "runtime/delivery.hpp"

namespace dqcsim::runtime::detail {

void TrialObserver::begin_trial() {
  const obs::Observe* observe = t_.config.observe.get();
  metrics_ = observe != nullptr && observe->metrics;
  profile_on_ = observe != nullptr && observe->profile;
  trace_ = observe != nullptr && observe->trace_seed == t_.trial_seed;
  // The ring is (re)sized outside the steady-state path: untraced trials
  // never touch it.
  if (trace_) {
    buf_.reset(observe->trace_capacity);
    if (t_.config.topology != nullptr) {
      edge_down_since_.assign(t_.config.topology->num_edges(), 0.0);
    }
  }
  if (metrics_) {
    if (reg_.empty()) resolve_handles();
    reg_.add(h_.trials);
  }
}

std::uint32_t TrialObserver::edge_track(std::size_t e) const noexcept {
  return static_cast<std::uint32_t>(1 + t_.links.size() + e);
}

void TrialObserver::resolve_handles() {
  h_.trials = reg_.counter("trials");
  // The four *_cache_* counters measure per-worker work done: every
  // RunContext misses its workspace/route caches once, so their totals
  // scale with the worker count. They sit outside the bit-identical
  // thread-count guarantee, which covers all trial-scoped metrics
  // (docs/ARCHITECTURE.md "Observability").
  h_.setup_hits = reg_.counter("setup_cache_hits");
  h_.setup_misses = reg_.counter("setup_cache_misses");
  h_.route_hits = reg_.counter("route_cache_hits");
  h_.route_misses = reg_.counter("route_cache_misses");
  // Only the names are read here; finish adds the values.
  std::size_t k = 0;
  for_each_registry_counter(t_.result, [&](const char* name, std::uint64_t) {
    h_.metrics[k++] = reg_.counter(name);
  });
  h_.trace_dropped = reg_.counter("trace_dropped_events");
  h_.makespan_max = reg_.gauge("makespan_max");
  h_.pair_age = reg_.log_histogram("pair_age");
  h_.remote_wait = reg_.log_histogram("remote_wait");
  h_.outage_downtime = reg_.log_histogram("outage_downtime");
  h_.route_hops = reg_.fixed_histogram("route_hops", 0.0, 64.0, 64);
}

void TrialObserver::finish(double makespan, bool scenario) {
  obs::Observe* observe = t_.config.observe.get();
  if (observe == nullptr) return;
  if (trace_) buf_.span(obs::Ev::Trial, 0, 0.0, makespan);
  if (metrics_) {
    std::size_t k = 0;
    for_each_registry_counter(t_.result, [&](const char*, std::uint64_t v) {
      reg_.add(h_.metrics[k++], v);
    });
    if (trace_) reg_.add(h_.trace_dropped, buf_.dropped());
    reg_.gauge_max(h_.makespan_max, makespan);
    observe->collector.merge_registry(reg_);
    reg_.reset_values();  // registrations and capacity stay
  }
  if (profile_on_) {
    observe->collector.merge_profile(profile_);
    profile_.reset();
  }
  if (!trace_) return;
  sink_.clear();
  sink_.set_track_name(0, "engine");
  for (std::size_t i = 0; i < t_.links.size(); ++i) {
    sink_.set_track_name(link_track(i),
                         "link " + std::to_string(t_.links[i].node_a) + "-" +
                             std::to_string(t_.links[i].node_b));
  }
  const net::Topology* topo = t_.config.topology.get();
  const bool per_edge = t_.delivery != nullptr && t_.delivery->per_edge;
  if (topo != nullptr && (scenario || per_edge)) {
    for (std::size_t e = 0; e < topo->num_edges(); ++e) {
      const net::TopologyEdge& edge = topo->edge(e);
      sink_.set_track_name(edge_track(e), "edge " + std::to_string(edge.a) +
                                              "-" + std::to_string(edge.b));
    }
  }
  if (!observe->trace_path.empty()) {
    sink_.write_file(buf_, observe->trace_path, observe->trace_us_per_unit);
  }
  observe->collector.set_trace_json(
      sink_.to_json(buf_, observe->trace_us_per_unit).dump(0));
}

}  // namespace dqcsim::runtime::detail
