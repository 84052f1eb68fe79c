/// Unit tests for the noise models: Werner decay, teleported-gate fidelity,
/// swap composition, purification and the fidelity ledger. The models are
/// checked against the density-matrix oracle (tests/oracle) as well as
/// against their own formulas.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "net/swap.hpp"
#include "noise/fidelity_ledger.hpp"
#include "noise/purification.hpp"
#include "noise/teleport_fidelity.hpp"
#include "noise/werner.hpp"
#include "qsim/gates_matrices.hpp"
#include "teleport_gadgets.hpp"

namespace dqcsim::noise {
namespace {

// ------------------------------------------------------------ Werner decay ----

TEST(Werner, NoDecayAtTimeZero) {
  EXPECT_DOUBLE_EQ(werner_decayed_fidelity(0.99, 0.002, 0.0), 0.99);
}

TEST(Werner, NoDecayWithZeroKappa) {
  EXPECT_DOUBLE_EQ(werner_decayed_fidelity(0.9, 0.0, 1e6), 0.9);
}

TEST(Werner, DecaysTowardQuarter) {
  const double f = werner_decayed_fidelity(0.99, 0.01, 1e5);
  EXPECT_NEAR(f, 0.25, 1e-9);
}

TEST(Werner, MatchesClosedForm) {
  const double f0 = 0.95, kappa = 0.002, t = 37.0;
  const double expected =
      f0 * std::exp(-2 * kappa * t) + (1 - std::exp(-2 * kappa * t)) / 4.0;
  EXPECT_DOUBLE_EQ(werner_decayed_fidelity(f0, kappa, t), expected);
}

TEST(Werner, IsMonotoneDecreasingInTime) {
  double prev = 1.0;
  for (double t : {0.0, 1.0, 5.0, 20.0, 100.0, 1000.0}) {
    const double f = werner_decayed_fidelity(0.99, 0.002, t);
    EXPECT_LE(f, prev);
    prev = f;
  }
}

TEST(Werner, TimeToFidelityInvertsDecay) {
  const double f0 = 0.99, kappa = 0.002, f_min = 0.9;
  const double t = werner_time_to_fidelity(f0, kappa, f_min);
  EXPECT_NEAR(werner_decayed_fidelity(f0, kappa, t), f_min, 1e-12);
}

TEST(Werner, TimeToFidelityEdgeCases) {
  EXPECT_DOUBLE_EQ(werner_time_to_fidelity(0.9, 0.002, 0.95), 0.0);
  EXPECT_TRUE(std::isinf(werner_time_to_fidelity(0.99, 0.0, 0.9)));
}

TEST(Werner, WeightFromFidelityBounds) {
  EXPECT_DOUBLE_EQ(werner_weight_from_fidelity(1.0), 1.0);
  EXPECT_DOUBLE_EQ(werner_weight_from_fidelity(0.25), 0.0);
  EXPECT_THROW(werner_weight_from_fidelity(0.1), PreconditionError);
}

TEST(Werner, RejectsBadArguments) {
  EXPECT_THROW(werner_decayed_fidelity(0.1, 0.002, 1.0), PreconditionError);
  EXPECT_THROW(werner_decayed_fidelity(0.9, -1.0, 1.0), PreconditionError);
  EXPECT_THROW(werner_decayed_fidelity(0.9, 0.002, -1.0), PreconditionError);
}

TEST(Werner, FidelityFromWeightInvertsWeightFromFidelity) {
  for (const double f : {0.25, 0.5, 0.75, 0.99, 1.0}) {
    EXPECT_NEAR(werner_fidelity_from_weight(werner_weight_from_fidelity(f)),
                f, 1e-12);
  }
  EXPECT_THROW(werner_fidelity_from_weight(-0.1), PreconditionError);
  EXPECT_THROW(werner_fidelity_from_weight(1.1), PreconditionError);
}

TEST(Werner, SwappedFidelityMultipliesWeights) {
  // Perfect pairs swap perfectly; a maximally mixed partner destroys the
  // pair (w = 0 -> F = 0.25).
  EXPECT_DOUBLE_EQ(werner_swapped_fidelity(1.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(werner_swapped_fidelity(0.9, 0.25), 0.25);
  // Hand-computed: w(0.95) = 2.8/3, w(0.85) = 2.4/3,
  // F = (3 * (2.8 * 2.4 / 9) + 1) / 4.
  const double expected = (3.0 * (2.8 * 2.4 / 9.0) + 1.0) / 4.0;
  EXPECT_NEAR(werner_swapped_fidelity(0.95, 0.85), expected, 1e-12);
  // Commutative, and never better than the worse pair.
  EXPECT_DOUBLE_EQ(werner_swapped_fidelity(0.95, 0.85),
                   werner_swapped_fidelity(0.85, 0.95));
  EXPECT_LT(werner_swapped_fidelity(0.95, 0.85), 0.85);
}

// ------------------------------------------------- teleported-CNOT fidelity ----

TEST(TeleportFidelity, NoiselessPerfectPairIsExact) {
  TeleportNoiseParams perfect;
  perfect.local_2q_fidelity = 1.0;
  perfect.local_1q_fidelity = 1.0;
  perfect.readout_fidelity = 1.0;
  EXPECT_NEAR(teleported_cnot_avg_fidelity(1.0, perfect), 1.0, 1e-10);
}

TEST(TeleportFidelity, MaximallyMixedPairIsUseless) {
  TeleportNoiseParams perfect;
  perfect.local_2q_fidelity = 1.0;
  perfect.local_1q_fidelity = 1.0;
  perfect.readout_fidelity = 1.0;
  // A Werner pair at F = 0.25 carries no entanglement; the teleported
  // "CNOT" degrades to a highly depolarized channel whose average fidelity
  // sits near (but above) the d=4 random-channel floor of 0.25-0.4.
  const double f = teleported_cnot_avg_fidelity(0.25, perfect);
  EXPECT_LT(f, 0.5);
  EXPECT_GT(f, 0.2);
}

TEST(TeleportFidelity, MonotoneInPairFidelity) {
  double prev = 0.0;
  for (double fp : {0.25, 0.5, 0.7, 0.9, 0.99, 1.0}) {
    const double f = teleported_cnot_avg_fidelity(fp);
    EXPECT_GT(f, prev);
    prev = f;
  }
}

TEST(TeleportFidelity, LocalNoiseReducesFidelity) {
  TeleportNoiseParams noisier;
  noisier.local_2q_fidelity = 0.99;
  EXPECT_LT(teleported_cnot_avg_fidelity(0.99, noisier),
            teleported_cnot_avg_fidelity(0.99, TeleportNoiseParams{}));
}

TEST(TeleportFidelity, ReadoutNoiseReducesFidelity) {
  TeleportNoiseParams noisier;
  noisier.readout_fidelity = 0.95;
  EXPECT_LT(teleported_cnot_avg_fidelity(0.99, noisier),
            teleported_cnot_avg_fidelity(0.99, TeleportNoiseParams{}));
}

TEST(TeleportFidelity, PaperDefaultsAreInPlausibleRange) {
  // With Table II noise (CNOT 99.9%, readout 99.8%) and a fresh pair at
  // F0 = 0.99 the teleported gate should land a little below F0.
  const double f = teleported_cnot_avg_fidelity(0.99);
  EXPECT_GT(f, 0.95);
  EXPECT_LT(f, 0.99);
}

TEST(TeleportFidelity, RejectsOutOfRangePairFidelity) {
  EXPECT_THROW(teleported_cnot_avg_fidelity(0.1), PreconditionError);
  EXPECT_THROW(teleported_cnot_avg_fidelity(1.01), PreconditionError);
}

TEST(TeleportFidelityModel, MatchesExactEvaluationEverywhere) {
  const TeleportNoiseParams params;  // defaults
  const TeleportFidelityModel model(params);
  for (double fp : {0.25, 0.4, 0.6, 0.8, 0.9, 0.99, 1.0}) {
    EXPECT_NEAR(model.eval(fp), teleported_cnot_avg_fidelity(fp, params),
                1e-10)
        << "pair fidelity " << fp;
  }
}

TEST(TeleportFidelityModel, SlopeIsPositive) {
  const TeleportFidelityModel model{TeleportNoiseParams{}};
  EXPECT_GT(model.slope(), 0.0);
  EXPECT_GT(model.eval(1.0), model.eval(0.5));
}

TEST(TeleportFidelityModel, EvalValidatesDomain) {
  const TeleportFidelityModel model{TeleportNoiseParams{}};
  EXPECT_THROW(model.eval(0.0), PreconditionError);
}

// ------------------------------------------- state-teleportation gadgets ----

TEST(StateTeleport, NoiselessStateTeleportIsExact) {
  TeleportNoiseParams perfect;
  perfect.local_2q_fidelity = 1.0;
  perfect.local_1q_fidelity = 1.0;
  perfect.readout_fidelity = 1.0;
  EXPECT_NEAR(teleported_state_avg_fidelity(1.0, perfect), 1.0, 1e-10);
}

TEST(StateTeleport, StateFidelityMatchesWernerTheory) {
  // Teleporting through a Werner pair of fidelity F realizes a depolarizing
  // channel whose average fidelity is (2F + 1)/3 for ideal local ops.
  TeleportNoiseParams perfect;
  perfect.local_2q_fidelity = 1.0;
  perfect.local_1q_fidelity = 1.0;
  perfect.readout_fidelity = 1.0;
  for (double f : {0.25, 0.5, 0.75, 0.99}) {
    EXPECT_NEAR(teleported_state_avg_fidelity(f, perfect), (2.0 * f + 1.0) / 3.0,
                1e-10)
        << "pair fidelity " << f;
  }
}

TEST(StateTeleport, NoiselessRoundTripCnotIsExact) {
  TeleportNoiseParams perfect;
  perfect.local_2q_fidelity = 1.0;
  perfect.local_1q_fidelity = 1.0;
  perfect.readout_fidelity = 1.0;
  EXPECT_NEAR(state_teleported_cnot_avg_fidelity(1.0, 1.0, perfect), 1.0,
              1e-9);
}

TEST(StateTeleport, RoundTripIsWorseThanGateTeleport) {
  // Two teleports + one noisy local CNOT always lose to one teleported
  // CNOT under identical noise and pair quality.
  const TeleportNoiseParams params;  // Table II defaults
  for (double f : {0.8, 0.9, 0.99}) {
    EXPECT_LT(state_teleported_cnot_avg_fidelity(f, f, params),
              teleported_cnot_avg_fidelity(f, params))
        << "pair fidelity " << f;
  }
}

TEST(StateTeleport, MonotoneInEachPair) {
  const TeleportNoiseParams params;
  EXPECT_LT(state_teleported_cnot_avg_fidelity(0.8, 0.99, params),
            state_teleported_cnot_avg_fidelity(0.99, 0.99, params));
  EXPECT_LT(state_teleported_cnot_avg_fidelity(0.99, 0.8, params),
            state_teleported_cnot_avg_fidelity(0.99, 0.99, params));
}

TEST(StateTeleport, RejectsOutOfRangePairs) {
  EXPECT_THROW(state_teleported_cnot_avg_fidelity(0.1, 0.9),
               PreconditionError);
  EXPECT_THROW(state_teleported_cnot_avg_fidelity(0.9, 1.2),
               PreconditionError);
}

TEST(StateTeleportCnotModel, MatchesExactOnAGrid) {
  const TeleportNoiseParams params;
  const StateTeleportCnotModel model(params);
  for (double f1 : {0.25, 0.6, 0.99}) {
    for (double f2 : {0.4, 0.9, 1.0}) {
      EXPECT_NEAR(model.eval(f1, f2),
                  state_teleported_cnot_avg_fidelity(f1, f2, params), 1e-9)
          << f1 << ", " << f2;
    }
  }
}

// ------------------------------- closed forms against the density matrix ----
// The models calibrate from the Pauli-frame closed forms (at the Table II
// defaults, from recorded gadget values); the density-matrix gadgets are
// their oracle. Domains: F in [0.25, 1], f2q in [0.9, 1], f1q in
// [0.95, 1], f_r in [0.9, 1]; 1000 gate and 200 state draws.

constexpr double kClosedFormTol = 1e-13;

TeleportNoiseParams random_params(Rng& rng) {
  TeleportNoiseParams p;
  p.local_2q_fidelity = rng.uniform(0.9, 1.0);
  p.local_1q_fidelity = rng.uniform(0.95, 1.0);
  p.readout_fidelity = rng.uniform(0.9, 1.0);
  return p;
}

/// Randomized draws plus the corners: all-perfect local ops, f_r = 1, each
/// local fidelity = 1 alone.
std::vector<TeleportNoiseParams> oracle_params(std::uint64_t seed, int draws) {
  std::vector<TeleportNoiseParams> out;
  TeleportNoiseParams perfect;
  perfect.local_2q_fidelity = 1.0;
  perfect.local_1q_fidelity = 1.0;
  perfect.readout_fidelity = 1.0;
  out.push_back(perfect);
  out.push_back(TeleportNoiseParams{});
  for (int which = 0; which < 3; ++which) {
    TeleportNoiseParams p;
    p.local_2q_fidelity = 0.93;
    p.local_1q_fidelity = 0.97;
    p.readout_fidelity = 0.94;
    if (which == 0) p.local_2q_fidelity = 1.0;
    if (which == 1) p.local_1q_fidelity = 1.0;
    if (which == 2) p.readout_fidelity = 1.0;
    out.push_back(p);
  }
  Rng rng(seed);
  for (int i = 0; i < draws; ++i) out.push_back(random_params(rng));
  return out;
}

std::string describe(const TeleportNoiseParams& p) {
  return "f2q=" + std::to_string(p.local_2q_fidelity) +
         " f1q=" + std::to_string(p.local_1q_fidelity) +
         " fr=" + std::to_string(p.readout_fidelity);
}

TEST(TeleportClosedForm, GateGadgetMatchesDensityMatrix) {
  Rng pair_rng(11);
  for (const TeleportNoiseParams& p : oracle_params(7, 1000)) {
    const double f = pair_rng.uniform(0.25, 1.0);
    EXPECT_NEAR(teleported_cnot_closed_form(f, p),
                teleported_cnot_avg_fidelity(f, p), kClosedFormTol)
        << describe(p) << " F=" << f;
  }
  // Werner corners F in {0.25, 1} on the corner params.
  for (const TeleportNoiseParams& p : oracle_params(7, 0)) {
    for (const double f : {0.25, 1.0}) {
      EXPECT_NEAR(teleported_cnot_closed_form(f, p),
                  teleported_cnot_avg_fidelity(f, p), kClosedFormTol)
          << describe(p) << " F=" << f;
    }
  }
}

TEST(TeleportClosedForm, StateGadgetMatchesDensityMatrix) {
  Rng pair_rng(13);
  for (const TeleportNoiseParams& p : oracle_params(9, 200)) {
    const double f1 = pair_rng.uniform(0.25, 1.0);
    const double f2 = pair_rng.uniform(0.25, 1.0);
    EXPECT_NEAR(state_teleported_cnot_closed_form(f1, f2, p),
                state_teleported_cnot_avg_fidelity(f1, f2, p), kClosedFormTol)
        << describe(p) << " F1=" << f1 << " F2=" << f2;
  }
  // Werner corners F in {0.25, 1} for both pairs, on the corner params.
  for (const TeleportNoiseParams& p : oracle_params(9, 0)) {
    for (const double f1 : {0.25, 1.0}) {
      for (const double f2 : {0.25, 1.0}) {
        EXPECT_NEAR(state_teleported_cnot_closed_form(f1, f2, p),
                    state_teleported_cnot_avg_fidelity(f1, f2, p),
                    kClosedFormTol)
            << describe(p) << " F1=" << f1 << " F2=" << f2;
      }
    }
  }
}

TEST(TeleportClosedForm, RejectsOutOfRangePairs) {
  EXPECT_THROW(teleported_cnot_closed_form(0.2), PreconditionError);
  EXPECT_THROW(state_teleported_cnot_closed_form(0.9, 1.01),
               PreconditionError);
}

TEST(TeleportClosedForm, ModelsMatchTheDensityMatrixCalibration) {
  // The calibration the models used before the closed form: two gadget
  // evaluations for the affine model, four corners for the bilinear one.
  for (const TeleportNoiseParams& p : oracle_params(21, 3)) {
    SCOPED_TRACE(describe(p));
    const double f_lo = teleported_cnot_avg_fidelity(0.25, p);
    const double f_hi = teleported_cnot_avg_fidelity(1.0, p);
    const double slope = (f_hi - f_lo) / 0.75;
    const TeleportFidelityModel model(p);
    EXPECT_NEAR(model.slope(), slope, kClosedFormTol);
    EXPECT_NEAR(model.intercept(), f_lo - slope * 0.25, kClosedFormTol);

    // A bilinear form is fixed by its four corners; check them and the
    // centre against the density-matrix values.
    const StateTeleportCnotModel state_model(p);
    for (const double f1 : {0.25, 1.0}) {
      for (const double f2 : {0.25, 1.0}) {
        EXPECT_NEAR(state_model.eval(f1, f2),
                    state_teleported_cnot_avg_fidelity(f1, f2, p),
                    kClosedFormTol)
            << f1 << ", " << f2;
      }
    }
    EXPECT_NEAR(state_model.eval(0.625, 0.625),
                state_teleported_cnot_avg_fidelity(0.625, 0.625, p),
                kClosedFormTol);
  }
}

TEST(TeleportClosedForm, TableIIModelsAreTheDensityMatrixCalibration) {
  // At the Table II defaults the models keep the density-matrix gadget's
  // calibration bit for bit, so results recorded before the closed form
  // stay reproducible. Rebuild that calibration the old way and compare
  // every coefficient / evaluation bitwise.
  const TeleportNoiseParams params;
  const double f_lo = teleported_cnot_avg_fidelity(0.25, params);
  const double f_hi = teleported_cnot_avg_fidelity(1.0, params);
  const double slope = (f_hi - f_lo) / (1.0 - 0.25);
  const TeleportFidelityModel model(params);
  EXPECT_EQ(model.slope(), slope);
  EXPECT_EQ(model.intercept(), f_lo - slope * 0.25);

  const double lo = 0.25, hi = 1.0, span = hi - lo;
  const double f_ll = state_teleported_cnot_avg_fidelity(lo, lo, params);
  const double f_hl = state_teleported_cnot_avg_fidelity(hi, lo, params);
  const double f_lh = state_teleported_cnot_avg_fidelity(lo, hi, params);
  const double f_hh = state_teleported_cnot_avg_fidelity(hi, hi, params);
  const double c11 = (f_hh - f_hl - f_lh + f_ll) / (span * span);
  const double c10 = (f_hl - f_ll) / span - c11 * lo;
  const double c01 = (f_lh - f_ll) / span - c11 * lo;
  const double c00 = f_ll - c10 * lo - c01 * lo - c11 * lo * lo;
  const StateTeleportCnotModel state_model(params);
  for (const double f1 : {0.25, 0.5, 0.93, 0.99, 1.0}) {
    for (const double f2 : {0.25, 0.7, 0.99, 1.0}) {
      EXPECT_EQ(state_model.eval(f1, f2),
                c00 + c10 * f1 + c01 * f2 + c11 * f1 * f2)
          << f1 << ", " << f2;
    }
  }
}

// ------------------------------------------------------------ purification ----

TEST(Purification, PerfectPairsStayPerfect) {
  const auto out = purify_werner(1.0, 1.0);
  EXPECT_NEAR(out.fidelity, 1.0, 1e-12);
  EXPECT_NEAR(out.success_probability, 1.0, 1e-12);
}

TEST(Purification, ImprovesAboveThreshold) {
  for (double f : {0.6, 0.7, 0.8, 0.9, 0.99}) {
    const auto out = purify_werner(f, f);
    EXPECT_GT(out.fidelity, f) << "input fidelity " << f;
    EXPECT_GT(out.success_probability, 0.25);
    EXPECT_LE(out.success_probability, 1.0);
  }
}

TEST(Purification, DoesNotImproveAtOrBelowThreshold) {
  const auto at = purify_werner(kPurificationThreshold,
                                kPurificationThreshold);
  EXPECT_LE(at.fidelity, kPurificationThreshold + 1e-12);
  const auto below = purify_werner(0.4, 0.4);
  EXPECT_LE(below.fidelity, 0.4 + 1e-12);
}

TEST(Purification, MaximallyMixedIsFixed) {
  const auto out = purify_werner(0.25, 0.25);
  EXPECT_NEAR(out.fidelity, 0.25, 1e-12);
}

TEST(Purification, IsSymmetricInInputs) {
  const auto ab = purify_werner(0.9, 0.7);
  const auto ba = purify_werner(0.7, 0.9);
  EXPECT_NEAR(ab.fidelity, ba.fidelity, 1e-12);
  EXPECT_NEAR(ab.success_probability, ba.success_probability, 1e-12);
}

TEST(Purification, KnownValueAtF075) {
  // Closed form at f1 = f2 = 0.75: p = 0.75^2 + 2*0.75/12 + 5/144.
  const auto out = purify_werner(0.75, 0.75);
  const double p = 0.5625 + 0.125 + 5.0 / 144.0;
  EXPECT_NEAR(out.success_probability, p, 1e-12);
  EXPECT_NEAR(out.fidelity, (0.5625 + 1.0 / 144.0) / p, 1e-12);
}

TEST(Purification, NestedRoundsConverge) {
  const auto once = purify_werner_nested(0.8, 1);
  const auto thrice = purify_werner_nested(0.8, 3);
  EXPECT_GT(thrice.fidelity, once.fidelity);
  EXPECT_LT(thrice.success_probability, once.success_probability);
  // BBPSSW gains ~0.035 per round from 0.8 (0.838, 0.872, 0.905): slower
  // than DEJMPS but strictly convergent toward 1.
  EXPECT_GT(thrice.fidelity, 0.90);
  const auto zero = purify_werner_nested(0.8, 0);
  EXPECT_DOUBLE_EQ(zero.fidelity, 0.8);
  EXPECT_DOUBLE_EQ(zero.success_probability, 1.0);
}

TEST(Purification, RejectsOutOfRange) {
  EXPECT_THROW(purify_werner(0.1, 0.9), PreconditionError);
  EXPECT_THROW(purify_werner(0.9, 1.2), PreconditionError);
  EXPECT_THROW(purify_werner_nested(0.9, -1), PreconditionError);
}

// ------------------------------- pair models against the density matrix ----
// Each Werner-pair model against the circuit it abstracts, simulated on the
// density-matrix oracle: 200 seeded draws per model, |delta| <= 1e-12.

constexpr double kOracleTol = 1e-12;
constexpr int kOracleDraws = 200;

/// Fidelity of a two-qubit state with |Phi+>.
double phi_plus_fidelity(const qsim::DensityMatrix& pair) {
  const double s = 1.0 / std::sqrt(2.0);
  return pair.fidelity_with_pure({qsim::Complex{s, 0}, qsim::Complex{0, 0},
                                  qsim::Complex{0, 0}, qsim::Complex{s, 0}});
}

/// Ideal local operations and readout: teleport_through is then the ideal
/// Bell measurement with its Pauli correction.
TeleportNoiseParams ideal_ops() {
  TeleportNoiseParams p;
  p.local_2q_fidelity = 1.0;
  p.local_1q_fidelity = 1.0;
  p.readout_fidelity = 1.0;
  return p;
}

TEST(PairModelOracle, WernerDecayIsBothHalvesDepolarized) {
  Rng rng(101);
  for (int i = 0; i < kOracleDraws; ++i) {
    const double f0 = rng.uniform(0.25, 1.0);
    const double kappa = i == 0 ? 0.0 : rng.uniform(0.0, 0.01);
    const double t = i == 1 ? 0.0 : rng.uniform(0.0, 500.0);
    // Bloch factor e^{-kappa t} on each half.
    const double p = 1.0 - std::exp(-kappa * t);
    qsim::DensityMatrix pair = qsim::DensityMatrix::werner(f0);
    pair.depolarize_1q(0, p);
    pair.depolarize_1q(1, p);
    EXPECT_NEAR(werner_decayed_fidelity(f0, kappa, t),
                phi_plus_fidelity(pair), kOracleTol)
        << "f0=" << f0 << " kappa=" << kappa << " t=" << t;
  }
}

TEST(PairModelOracle, TwoHopSwapIsIdealBellMeasurement) {
  Rng rng(102);
  for (int i = 0; i < kOracleDraws; ++i) {
    const double fa = rng.uniform(0.25, 1.0);
    const double fb = rng.uniform(0.25, 1.0);
    // Pairs (0, 1) and (2, 3); the Bell measurement on (1, 2) leaves the
    // swapped pair on (0, 3).
    const qsim::DensityMatrix hops = qsim::DensityMatrix::werner(fa).tensor(
        qsim::DensityMatrix::werner(fb));
    const double oracle = phi_plus_fidelity(
        teleport_through(hops, 1, 2, 3, ideal_ops())
            .partial_trace(2)
            .partial_trace(1));
    const double f[] = {fa, fb};
    EXPECT_NEAR(werner_swapped_fidelity(fa, fb), oracle, kOracleTol)
        << fa << ", " << fb;
    EXPECT_NEAR(net::swap_composed_fidelity(f, 2, 1.0), oracle, kOracleTol)
        << fa << ", " << fb;
  }
}

TEST(PairModelOracle, ThreeHopSwapIsIdealBellMeasurements) {
  Rng rng(103);
  for (int i = 0; i < kOracleDraws; ++i) {
    const double fa = rng.uniform(0.25, 1.0);
    const double fb = rng.uniform(0.25, 1.0);
    const double fc = rng.uniform(0.25, 1.0);
    // Pairs (0, 1), (2, 3), (4, 5); Bell measurements on (1, 2), then on
    // (3, 4), leave the end-to-end pair on (0, 5).
    const qsim::DensityMatrix hops =
        qsim::DensityMatrix::werner(fa)
            .tensor(qsim::DensityMatrix::werner(fb))
            .tensor(qsim::DensityMatrix::werner(fc));
    const qsim::DensityMatrix first =
        teleport_through(hops, 1, 2, 3, ideal_ops());
    const double oracle = phi_plus_fidelity(
        teleport_through(first, 3, 4, 5, ideal_ops())
            .partial_trace(4)
            .partial_trace(3)
            .partial_trace(2)
            .partial_trace(1));
    const double f[] = {fa, fb, fc};
    EXPECT_NEAR(werner_swapped_fidelity(werner_swapped_fidelity(fa, fb), fc),
                oracle, kOracleTol)
        << fa << ", " << fb << ", " << fc;
    EXPECT_NEAR(net::swap_composed_fidelity(f, 3, 1.0), oracle, kOracleTol)
        << fa << ", " << fb << ", " << fc;
  }
}

TEST(PairModelOracle, PurificationIsBilateralCnotWithCoincidentOutcomes) {
  Rng rng(104);
  for (int i = 0; i < kOracleDraws; ++i) {
    const double f1 = rng.uniform(0.25, 1.0);
    const double f2 = rng.uniform(0.25, 1.0);
    // Source pair (0, 1), target pair (2, 3); qubits 0 and 2 are on one
    // node, 1 and 3 on the other. Each node applies CNOT(source -> target)
    // and measures its target half; the round succeeds on equal outcomes.
    qsim::DensityMatrix rho = qsim::DensityMatrix::werner(f1).tensor(
        qsim::DensityMatrix::werner(f2));
    rho.apply_2q(qsim::cnot(), 0, 2);
    rho.apply_2q(qsim::cnot(), 1, 3);
    const auto near = rho.measure_branches(2);
    double p_succ = 0.0;
    qsim::DensityMatrix kept = qsim::DensityMatrix::mix(rho, 0.0, rho, 0.0);
    for (int o = 0; o < 2; ++o) {
      const auto far =
          near.state[static_cast<std::size_t>(o)].measure_branches(3);
      const double w = near.prob[o] * far.prob[o];
      p_succ += w;
      kept = qsim::DensityMatrix::mix(kept, 1.0,
                                      far.state[static_cast<std::size_t>(o)],
                                      w);
    }
    const double f_out =
        phi_plus_fidelity(kept.partial_trace(3).partial_trace(2)) / p_succ;
    const PurificationOutcome model = purify_werner(f1, f2);
    EXPECT_NEAR(model.success_probability, p_succ, kOracleTol)
        << f1 << ", " << f2;
    EXPECT_NEAR(model.fidelity, f_out, kOracleTol) << f1 << ", " << f2;
  }
}

// --------------------------------------------------------- fidelity ledger ----

TEST(FidelityLedger, EmptyLedgerIsUnity) {
  FidelityLedger ledger;
  EXPECT_DOUBLE_EQ(ledger.fidelity(), 1.0);
}

TEST(FidelityLedger, ProductAccumulates) {
  FidelityLedger ledger;
  ledger.add_factor(FidelityTerm::Local2Q, 0.999);
  ledger.add_factor(FidelityTerm::Local2Q, 0.999);
  ledger.add_factor(FidelityTerm::Local1Q, 0.9999);
  EXPECT_NEAR(ledger.fidelity(), 0.999 * 0.999 * 0.9999, 1e-12);
}

TEST(FidelityLedger, CategoriesAreSeparate) {
  FidelityLedger ledger;
  ledger.add_factor(FidelityTerm::Remote, 0.98);
  ledger.add_factor(FidelityTerm::Local2Q, 0.999);
  EXPECT_NEAR(ledger.category_fidelity(FidelityTerm::Remote), 0.98, 1e-12);
  EXPECT_NEAR(ledger.category_fidelity(FidelityTerm::Local2Q), 0.999, 1e-12);
  EXPECT_EQ(ledger.category_count(FidelityTerm::Remote), 1u);
  EXPECT_EQ(ledger.category_count(FidelityTerm::Measurement), 0u);
}

TEST(FidelityLedger, IdlingIsExponential) {
  FidelityLedger ledger;
  ledger.add_idling(0.002, 100.0);
  EXPECT_NEAR(ledger.fidelity(), std::exp(-0.2), 1e-12);
  EXPECT_NEAR(ledger.category_fidelity(FidelityTerm::Idling), std::exp(-0.2),
              1e-12);
}

TEST(FidelityLedger, ManyFactorsStayAccurate) {
  // 10^4 factors of 0.9999 in log space: relative error must stay tiny.
  FidelityLedger ledger;
  for (int i = 0; i < 10000; ++i) {
    ledger.add_factor(FidelityTerm::Local1Q, 0.9999);
  }
  EXPECT_NEAR(ledger.fidelity(), std::exp(10000 * std::log(0.9999)), 1e-9);
}

TEST(FidelityLedger, RejectsInvalidFactors) {
  FidelityLedger ledger;
  EXPECT_THROW(ledger.add_factor(FidelityTerm::Remote, 0.0),
               PreconditionError);
  EXPECT_THROW(ledger.add_factor(FidelityTerm::Remote, 1.5),
               PreconditionError);
  EXPECT_THROW(ledger.add_idling(-0.1, 1.0), PreconditionError);
  EXPECT_THROW(FidelityLedger::log_factor(0.0), PreconditionError);
}

TEST(FidelityLedger, PrecomputedLogFactorIsBitIdenticalToAddFactor) {
  // The engine adds each local gate's fidelity through a log computed once
  // per setup: the ledger's sums, and so every fidelity it reports, must
  // match add_factor bit for bit. Table II's gate fidelities, then 1 000
  // seeded factors in (0, 1] (1 - uniform() never reaches 0).
  std::vector<double> factors = {0.9999, 0.999, 0.998, 0.99, 1.0};
  Rng rng(20250611);
  for (int i = 0; i < 1000; ++i) factors.push_back(1.0 - rng.uniform());
  const FidelityTerm terms[] = {FidelityTerm::Local1Q, FidelityTerm::Local2Q,
                                FidelityTerm::Remote,
                                FidelityTerm::Measurement};
  FidelityLedger direct;
  FidelityLedger precomputed;
  for (std::size_t i = 0; i < factors.size(); ++i) {
    const FidelityTerm term = terms[i % 4];
    direct.add_factor(term, factors[i]);
    precomputed.add_log_factor(term, FidelityLedger::log_factor(factors[i]));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(precomputed.fidelity()),
              std::bit_cast<std::uint64_t>(direct.fidelity()))
        << "factor " << i << " = " << factors[i];
  }
  for (const FidelityTerm term : terms) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(precomputed.category_fidelity(term)),
              std::bit_cast<std::uint64_t>(direct.category_fidelity(term)));
    EXPECT_EQ(precomputed.category_count(term), direct.category_count(term));
  }
}

}  // namespace
}  // namespace dqcsim::noise
