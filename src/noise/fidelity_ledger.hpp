/// \file fidelity_ledger.hpp
/// \brief Multiplicative fidelity accounting for a circuit execution.
///
/// The paper estimates circuit fidelity as the product of the fidelities of
/// all gates (local 1Q/2Q, remote teleported gates, measurements) times an
/// idling-decoherence factor exp(-kappa * t) (§IV-B). The ledger accumulates
/// in log space for numerical robustness and keeps per-category tallies so
/// experiments can report where fidelity is lost.

#pragma once

#include <cstddef>

namespace dqcsim::noise {

/// Categories tracked by the ledger.
enum class FidelityTerm {
  Local1Q,
  Local2Q,
  Remote,
  Measurement,
  Idling,
};

/// Accumulates a product of fidelity factors with per-category breakdown.
class FidelityLedger {
 public:
  /// Multiply the running fidelity by `f` under the given category.
  /// Precondition: 0 < f <= 1.
  void add_factor(FidelityTerm term, double f) {
    add_log_factor(term, log_factor(f));
  }

  /// The log-space factor add_factor(term, f) adds: a caller that adds one
  /// fidelity many times computes it once. Precondition: 0 < f <= 1.
  static double log_factor(double f);

  /// add_factor with its log precomputed by log_factor(f): bit-identical
  /// to add_factor(term, f).
  void add_log_factor(FidelityTerm term, double log_f) noexcept {
    log_sum_[index_of(term)] += log_f;
    ++count_[index_of(term)];
  }

  /// Multiply by the idling factor exp(-kappa * t).
  /// Preconditions: kappa >= 0, t >= 0.
  void add_idling(double kappa, double t);

  /// Current total fidelity estimate (product of all factors).
  double fidelity() const;

  /// Product of factors in one category only.
  double category_fidelity(FidelityTerm term) const;

  /// Number of factors recorded in a category (idling counts calls).
  std::size_t category_count(FidelityTerm term) const;

 private:
  static constexpr std::size_t kNumTerms = 5;
  static std::size_t index_of(FidelityTerm term) noexcept {
    return static_cast<std::size_t>(term);
  }

  double log_sum_[kNumTerms] = {0, 0, 0, 0, 0};
  std::size_t count_[kNumTerms] = {0, 0, 0, 0, 0};
};

}  // namespace dqcsim::noise
