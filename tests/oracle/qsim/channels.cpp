#include "qsim/channels.hpp"

#include "common/error.hpp"
#include "noise/teleport_fidelity.hpp"

namespace dqcsim::qsim {

void apply_noisy_1q(DensityMatrix& rho, const Mat2& u, int q, double f_avg) {
  rho.apply_1q(u, q);
  if (f_avg < 1.0) {
    rho.depolarize_1q(q,
                      noise::depolarizing_prob_for_avg_fidelity(2, f_avg));
  }
}

void apply_noisy_2q(DensityMatrix& rho, const Mat4& u, int q_high, int q_low,
                    double f_avg) {
  rho.apply_2q(u, q_high, q_low);
  if (f_avg < 1.0) {
    rho.depolarize_2q(q_high, q_low,
                      noise::depolarizing_prob_for_avg_fidelity(4, f_avg));
  }
}

DensityMatrix::MeasurementBranches noisy_measure(const DensityMatrix& rho,
                                                 int q,
                                                 double readout_fidelity) {
  DQCSIM_EXPECTS(readout_fidelity >= 0.0 && readout_fidelity <= 1.0);
  auto ideal = rho.measure_branches(q);
  if (readout_fidelity >= 1.0) return ideal;

  const double f = readout_fidelity;
  DensityMatrix::MeasurementBranches noisy;
  noisy.state.clear();
  for (int reported = 0; reported < 2; ++reported) {
    const int other = 1 - reported;
    const double p_report =
        f * ideal.prob[reported] + (1.0 - f) * ideal.prob[other];
    noisy.prob[reported] = p_report;
    // State conditioned on the *reported* outcome mixes both true branches.
    const double w_true = f * ideal.prob[reported];
    const double w_flip = (1.0 - f) * ideal.prob[other];
    DensityMatrix mixed = DensityMatrix::mix(
        ideal.state[static_cast<std::size_t>(reported)], w_true,
        ideal.state[static_cast<std::size_t>(other)], w_flip);
    if (p_report > 1e-15) {
      mixed = DensityMatrix::mix(mixed, 1.0 / p_report, mixed, 0.0);
    }
    noisy.state.push_back(std::move(mixed));
  }
  return noisy;
}

}  // namespace dqcsim::qsim
