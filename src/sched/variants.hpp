/// \file variants.hpp
/// \brief Pre-compiled ASAP/ALAP segment variants via gate commutation.
///
/// For each segment the adaptive controller can pick between three
/// equivalent gate orders (paper §III-D, Fig. 4):
///  - Original: program order;
///  - Asap: remote gates hoisted as early as commutation rules allow, so
///    buffered EPR pairs are consumed immediately;
///  - Alap: remote gates sunk as late as possible, buying time for
///    entanglement generation.
/// Every variant is a linearization of the segment's commutation-aware
/// dependency DAG, hence implements the same unitary.

#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "circuit/circuit.hpp"
#include "sched/segmentation.hpp"

namespace dqcsim::sched {

/// Segment scheduling policy chosen by the adaptive controller.
enum class SchedulingPolicy {
  Original,
  Asap,
  Alap,
};

const char* policy_name(SchedulingPolicy policy) noexcept;

/// All three variants of every segment, indexed [segment][policy]: the
/// runtime's lookup table.
class SegmentVariantTable {
 public:
  /// Preconditions: every segment lies within the circuit; the placement
  /// covers the circuit's gates.
  SegmentVariantTable(const Circuit& circuit, const GatePlacement& placement,
                      const std::vector<Segment>& segments);

  std::size_t num_segments() const noexcept { return segments_.size(); }
  const Segment& segment(std::size_t s) const { return segments_.at(s); }

  /// Gate order of segment s under `policy`.
  const std::vector<std::size_t>& order(std::size_t s,
                                        SchedulingPolicy policy) const;

 private:
  std::vector<Segment> segments_;
  // [segment][policy index] -> gate order
  std::vector<std::array<std::vector<std::size_t>, 3>> orders_;
};

}  // namespace dqcsim::sched
