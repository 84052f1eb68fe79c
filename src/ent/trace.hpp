/// \file trace.hpp
/// \brief Recording of EPR-pair arrival times (reproduces paper Fig. 3).
///
/// The arrival trace captures when pairs become available, so experiments
/// can visualize the bursty pattern of synchronous generation versus the
/// smooth pattern of asynchronous generation, and quantify burstiness.
/// Generation services keep no log of their own: a caller records each
/// arrival from the service's arrival handler, which runs at every buffered
/// deposit (the Fig. 3 bench does).

#pragma once

#include <cstddef>
#include <vector>

#include "des/event_pool.hpp"

namespace dqcsim::ent {

/// Time-stamped arrival log with binning utilities.
class ArrivalTrace {
 public:
  /// Record one pair arrival.
  void record(des::SimTime t);

  /// Forget all recorded arrivals, retaining storage capacity.
  void clear() noexcept { arrivals_.clear(); }

  std::size_t count() const noexcept { return arrivals_.size(); }
  const std::vector<des::SimTime>& arrivals() const noexcept {
    return arrivals_;
  }

  /// Number of arrivals in each bin of width `bin_width` covering
  /// [0, horizon). Precondition: bin_width > 0, horizon > 0.
  std::vector<std::size_t> binned_counts(double bin_width,
                                         double horizon) const;

  /// Coefficient of variation of the per-bin counts: stddev / mean.
  /// Synchronous (bursty) generation yields a markedly higher value than
  /// asynchronous generation at identical rate. Returns 0 when mean == 0.
  double burstiness(double bin_width, double horizon) const;

 private:
  std::vector<des::SimTime> arrivals_;
};

}  // namespace dqcsim::ent
