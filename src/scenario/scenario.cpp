#include "scenario/scenario.hpp"

#include <cmath>
#include <string>

#include "common/error.hpp"

namespace dqcsim::scenario {

namespace {

// Every message is built only when its check fails, so validating a
// scenario (once per trial) allocates nothing.
void require(bool ok, const char* what, const char* msg = "") {
  if (!ok) throw ConfigError(std::string("Scenario: ") + what + msg);
}

void validate_edge_target(const net::Topology& topo, int a, int b,
                          const char* what) {
  require(a >= 0 && b >= 0 && a < topo.num_nodes() && b < topo.num_nodes(),
          what, " endpoint outside [0, num_nodes)");
  require(topo.has_edge(a, b), what, " targets a node pair with no edge");
}

void validate_outage_window(double start, double duration, const char* what) {
  require(std::isfinite(start) && start >= 0.0, what,
          " start must be finite and nonnegative");
  require(std::isfinite(duration) && duration > 0.0, what,
          " must recover: duration must be finite and positive");
}

void validate_track(const net::Topology& topo, const DriftTrack& t) {
  if (!(t.node_a == -1 && t.node_b == -1)) {
    validate_edge_target(topo, t.node_a, t.node_b, "drift track");
  }
  switch (t.kind) {
    case DriftKind::Step: {
      require(!t.times.empty() && t.times.size() == t.levels.size(),
              "step track needs matching times/levels");
      double prev = -1.0;
      for (std::size_t i = 0; i < t.times.size(); ++i) {
        require(std::isfinite(t.times[i]) && t.times[i] >= 0.0 &&
                    t.times[i] > prev,
                "step times must be nonnegative and strictly increasing");
        require(std::isfinite(t.levels[i]) && t.levels[i] > 0.0,
                "step levels must be positive");
        prev = t.times[i];
      }
      break;
    }
    case DriftKind::RandomWalk:
      require(std::isfinite(t.walk_interval) && t.walk_interval > 0.0,
              "random walk needs a positive step interval");
      require(t.walk_step >= 0.0 && t.walk_step < 1.0,
              "random walk step must be in [0, 1)");
      require(t.walk_min > 0.0 && t.walk_max >= t.walk_min,
              "random walk clamp needs 0 < walk_min <= walk_max");
      break;
  }
}

}  // namespace

void Scenario::validate(const net::Topology& topo) const {
  for (const DriftTrack& t : drift) validate_track(topo, t);
  for (const LinkOutage& o : link_outages) {
    validate_edge_target(topo, o.node_a, o.node_b, "link outage");
    validate_outage_window(o.start, o.duration, "link outage");
  }
  for (const NodeOutage& o : node_outages) {
    require(o.node >= 0 && o.node < topo.num_nodes(),
            "node outage node outside [0, num_nodes)");
    validate_outage_window(o.start, o.duration, "node outage");
  }
  for (const FailureBurst& b : bursts) {
    validate_outage_window(b.start, b.duration, "failure burst");
    if (b.edges.empty()) {
      require(b.random_edges > 0,
              "failure burst needs explicit edges or random_edges > 0");
      require(static_cast<std::size_t>(b.random_edges) <= topo.num_edges(),
              "failure burst random_edges exceeds the edge count");
    } else {
      for (const auto& [a, bb] : b.edges) {
        validate_edge_target(topo, a, bb, "failure burst");
      }
    }
  }
  if (random_failures.mtbf != 0.0) {
    require(std::isfinite(random_failures.mtbf) && random_failures.mtbf > 0.0,
            "random failure mtbf must be positive (0 disables)");
    validate_outage_window(0.0, random_failures.duration, "random failure");
  }
  for (const CalibrationSnapshot& s : snapshots) {
    require(s.node >= 0 && s.node < topo.num_nodes(),
            "calibration snapshot node outside [0, num_nodes)");
    require(std::isfinite(s.time) && s.time >= 0.0,
            "calibration snapshot time must be nonnegative");
    require(std::isfinite(s.p_succ_scale) && s.p_succ_scale > 0.0 &&
                std::isfinite(s.f0_scale) && s.f0_scale > 0.0,
            "calibration snapshot scales must be positive");
  }
  require(std::isfinite(horizon) && horizon > 0.0,
          "horizon must be finite and positive");
}

}  // namespace dqcsim::scenario
