/// \file channels.hpp
/// \brief Noise-channel helpers bridging quoted gate fidelities (Table II)
/// to concrete depolarizing channels in the density-matrix simulator.
///
/// Hardware papers quote *average gate fidelity* F_avg; the depolarizing
/// probability realizing it is noise::depolarizing_prob_for_avg_fidelity,
/// the same conversion the closed-form teleport models use.

#pragma once

#include "qsim/density_matrix.hpp"

namespace dqcsim::qsim {

/// Apply a one-qubit unitary followed by a depolarizing channel realizing
/// average fidelity `f_avg` on qubit q.
void apply_noisy_1q(DensityMatrix& rho, const Mat2& u, int q, double f_avg);

/// Apply a two-qubit unitary followed by a two-qubit depolarizing channel
/// realizing average fidelity `f_avg`.
void apply_noisy_2q(DensityMatrix& rho, const Mat4& u, int q_high, int q_low,
                    double f_avg);

/// Noisy projective Z measurement: the physical projection is ideal but the
/// *classical outcome* is flipped with probability (1 - readout_fidelity).
/// Returns the branches with outcome probabilities already mixed over the
/// readout flip, i.e. branch[o] is the state given the *reported* outcome o.
DensityMatrix::MeasurementBranches noisy_measure(const DensityMatrix& rho,
                                                 int q,
                                                 double readout_fidelity);

}  // namespace dqcsim::qsim
