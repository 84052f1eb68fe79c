/// \file adaptive_scheduling_demo.cpp
/// \brief Inside the adaptive scheduler: segments, variants, and the
/// run-time policy decisions (paper §III-D, Fig. 4).
///
/// Takes a small distributed circuit, shows its segmentation into m-remote-
/// gate segments, prints the ASAP/ALAP variant orders next to the original,
/// then runs adapt_buf and reports which variant the controller picked per
/// segment under the live buffer occupancy.
///
/// Run: ./adaptive_scheduling_demo

#include <iostream>

#include "dqcsim.hpp"

int main() {
  using namespace dqcsim;

  // A QAOA-like segmentable workload: 8 qubits split 4|4.
  Rng rng(77);
  const Circuit qc = gen::make_qaoa_regular(8, 4, rng);
  std::vector<int> assignment(8);
  for (int i = 0; i < 8; ++i) assignment[static_cast<std::size_t>(i)] = i / 4;

  const auto placement = sched::classify_gates(qc, assignment);
  std::cout << "circuit: " << qc.name() << " with " << qc.num_gates()
            << " gates, " << placement.num_remote_2q
            << " of them remote under the 4|4 split\n\n";

  // --- 1. Segmentation. ----------------------------------------------------
  const std::size_t m = 2;
  const auto segments = sched::segment_by_remote_gates(placement, m);
  std::cout << "1) Segmentation at m = " << m << " remote gates/segment:\n";
  for (std::size_t s = 0; s < segments.size(); ++s) {
    std::cout << "   segment " << s << ": gates [" << segments[s].begin << ", "
              << segments[s].end << ") with " << segments[s].num_remote
              << " remote\n";
  }

  // --- 2. Variants of the first segment. -----------------------------------
  const sched::SegmentVariantTable table(qc, placement, segments);
  std::cout << "\n2) Variant orders for segment 0 "
               "(* marks remote gates):\n";
  for (const auto policy :
       {sched::SchedulingPolicy::Original, sched::SchedulingPolicy::Asap,
        sched::SchedulingPolicy::Alap}) {
    std::cout << "   " << sched::policy_name(policy) << ": ";
    for (const std::size_t g : table.order(0, policy)) {
      std::cout << (placement.remote(g) ? "*" : "") << g << ' ';
    }
    std::cout << '\n';
  }

  // --- 3. The adaptive rule. ------------------------------------------------
  const sched::AdaptivePolicy policy(m);
  std::cout << "\n3) Controller rule (m = " << m << "): e=0 -> "
            << sched::policy_name(policy.choose(0)) << ", e=1 -> "
            << sched::policy_name(policy.choose(1)) << ", e=" << m + 1
            << " -> " << sched::policy_name(policy.choose(m + 1)) << "\n";

  // --- 4. Decisions made during real executions. ----------------------------
  std::cout << "\n4) adapt_buf executions (segment size " << m
            << ", varying seeds):\n\n";
  runtime::ArchConfig config;
  config.comm_per_node = 4;
  config.buffer_per_node = 4;
  config.segment_size = m;
  TablePrinter results({"seed", "depth", "fidelity", "ASAP segs",
                        "ALAP segs", "original segs"});
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto r = runtime::RunContext().execute(
        qc, assignment, config, runtime::DesignKind::AdaptBuf, seed);
    results.add_row({TablePrinter::fmt(static_cast<std::size_t>(seed)),
                     TablePrinter::fmt(r.depth, 1),
                     TablePrinter::fmt(r.fidelity, 3),
                     TablePrinter::fmt(r.segments_asap),
                     TablePrinter::fmt(r.segments_alap),
                     TablePrinter::fmt(r.segments_original)});
  }
  results.print(std::cout);
  std::cout << "\nEarly segments tend to draw ALAP (empty buffer at t = 0); "
               "once generation catches up the controller switches between "
               "original and ASAP with the stochastic buffer level.\n";
  return 0;
}
