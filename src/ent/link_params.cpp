#include "ent/link_params.hpp"

#include <cmath>

#include "common/error.hpp"

namespace dqcsim::ent {

void LinkParams::validate() const {
  if (num_comm_pairs < 1) {
    throw ConfigError("LinkParams: need at least one communication pair");
  }
  if (buffer_capacity < 0) {
    throw ConfigError("LinkParams: buffer capacity must be nonnegative");
  }
  if (!(p_succ > 0.0 && p_succ <= 1.0)) {
    throw ConfigError("LinkParams: p_succ must be in (0, 1]");
  }
  if (!(cycle_time > 0.0)) {
    throw ConfigError("LinkParams: cycle_time must be positive");
  }
  if (swap_latency < 0.0) {
    throw ConfigError("LinkParams: swap_latency must be nonnegative");
  }
  if (!(f0 >= 0.25 && f0 <= 1.0)) {
    throw ConfigError("LinkParams: f0 must be in [0.25, 1]");
  }
  if (kappa < 0.0) {
    throw ConfigError("LinkParams: kappa must be nonnegative");
  }
  if (!(cutoff > 0.0)) {
    throw ConfigError("LinkParams: cutoff must be positive");
  }
  if (async_subgroups < 1) {
    throw ConfigError("LinkParams: async_subgroups must be at least 1");
  }
}

}  // namespace dqcsim::ent
