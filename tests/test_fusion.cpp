/// Unit tests for the engine-facing one-qubit chain analysis
/// (circuit/fusion.hpp) behind ArchConfig::fuse_local_gates.

#include <gtest/gtest.h>

#include <vector>

#include "circuit/fusion.hpp"
#include "gen/tlim.hpp"

namespace dqcsim {
namespace {

TEST(FusibleChains, FindsPerWireOneQubitRuns) {
  Circuit qc(2);
  qc.rz(0, 0.1);  // 0
  qc.rz(1, 0.2);  // 1
  qc.rx(0, 0.3);  // 2: follows gate 0 on wire 0
  qc.cx(0, 1);    // 3: breaks both wires
  qc.rx(0, 0.4);  // 4
  qc.measure(0);  // 5: measurement chains too (same scheduling shape)
  const auto next = fusible_1q_chain_next(qc);
  ASSERT_EQ(next.size(), 6u);
  EXPECT_EQ(next[0], 2u);
  EXPECT_EQ(next[1], kNoFusedNext);  // wire 1's next op is the CX
  EXPECT_EQ(next[2], kNoFusedNext);
  EXPECT_EQ(next[3], kNoFusedNext);
  EXPECT_EQ(next[4], 5u);
  EXPECT_EQ(next[5], kNoFusedNext);
}

TEST(FusibleChains, TlimHasRzRxChains) {
  const Circuit qc = gen::make_tlim(8, {});
  const auto next = fusible_1q_chain_next(qc);
  std::size_t links = 0;
  for (const std::size_t n : next) {
    if (n != kNoFusedNext) ++links;
  }
  // Every step's rz layer chains into the rx layer on each wire.
  EXPECT_GE(links, 8u);
}

}  // namespace
}  // namespace dqcsim
