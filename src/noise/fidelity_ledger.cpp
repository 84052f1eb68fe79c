#include "noise/fidelity_ledger.hpp"

#include <cmath>

#include "common/error.hpp"

namespace dqcsim::noise {

// DQCSIM_HOT
double FidelityLedger::log_factor(double f) {
  DQCSIM_EXPECTS_MSG(f > 0.0 && f <= 1.0, "fidelity factor must be in (0,1]");
  return std::log(f);
}

// DQCSIM_HOT
void FidelityLedger::add_idling(double kappa, double t) {
  DQCSIM_EXPECTS(kappa >= 0.0);
  DQCSIM_EXPECTS(t >= 0.0);
  log_sum_[index_of(FidelityTerm::Idling)] -= kappa * t;
  ++count_[index_of(FidelityTerm::Idling)];
}

double FidelityLedger::fidelity() const {
  double total = 0.0;
  for (double ls : log_sum_) total += ls;
  return std::exp(total);
}

double FidelityLedger::category_fidelity(FidelityTerm term) const {
  return std::exp(log_sum_[index_of(term)]);
}

std::size_t FidelityLedger::category_count(FidelityTerm term) const {
  return count_[index_of(term)];
}

}  // namespace dqcsim::noise
