#include "teleport_gadgets.hpp"

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "qsim/channels.hpp"

namespace dqcsim::noise {
namespace {

using qsim::Complex;
using qsim::DensityMatrix;

// Qubit layout of the 6-qubit gadget evaluation (LSB first):
//   0 = rc (reference entangled with control)
//   1 = c  (control data qubit, node A)
//   2 = e1 (Bell half on node A)
//   3 = e2 (Bell half on node B)
//   4 = t  (target data qubit, node B)
//   5 = rt (reference entangled with target)
constexpr int kRc = 0, kC = 1, kE1 = 2, kE2 = 3, kT = 4, kRt = 5;

/// Ideal output: CNOT(c -> t) applied to |Phi+>_{rc,c} (x) |Phi+>_{t,rt},
/// expressed on 4 qubits (0=rc, 1=c, 2=t, 3=rt).
std::vector<Complex> ideal_choi_vector() {
  std::vector<Complex> psi(16, Complex{0.0, 0.0});
  for (std::size_t a = 0; a < 2; ++a) {
    for (std::size_t b = 0; b < 2; ++b) {
      const std::size_t t_bit = b ^ a;  // CNOT flips t when c = 1
      const std::size_t index = a | (a << 1) | (t_bit << 2) | (b << 3);
      psi[index] = Complex{0.5, 0.0};
    }
  }
  return psi;
}

}  // namespace

double teleported_cnot_avg_fidelity(double pair_fidelity,
                                    const TeleportNoiseParams& params) {
  DQCSIM_EXPECTS(pair_fidelity >= 0.25 && pair_fidelity <= 1.0);

  // Initial state: |Phi+>_{rc,c} (x) Werner(F)_{e1,e2} (x) |Phi+>_{t,rt}.
  DensityMatrix rho = DensityMatrix::bell_phi_plus()
                          .tensor(DensityMatrix::werner(pair_fidelity))
                          .tensor(DensityMatrix::bell_phi_plus());

  // Node A: CNOT(c -> e1), then measure e1 in Z.
  qsim::apply_noisy_2q(rho, qsim::cnot(), kC, kE1, params.local_2q_fidelity);
  const auto m1 = qsim::noisy_measure(rho, kE1, params.readout_fidelity);

  DensityMatrix accum = DensityMatrix::mix(m1.state[0], 0.0, m1.state[0], 0.0);
  bool accum_empty = true;
  for (int o1 = 0; o1 < 2; ++o1) {
    if (m1.prob[o1] <= 1e-15) continue;
    DensityMatrix branch = m1.state[static_cast<std::size_t>(o1)];
    if (o1 == 1) {
      // Feed-forward X correction on the remote Bell half.
      qsim::apply_noisy_1q(branch, qsim::pauli_x(), kE2,
                           params.local_1q_fidelity);
    }
    // Node B: CNOT(e2 -> t), then measure e2 in the X basis (H + Z).
    qsim::apply_noisy_2q(branch, qsim::cnot(), kE2, kT,
                         params.local_2q_fidelity);
    qsim::apply_noisy_1q(branch, qsim::hadamard(), kE2,
                         params.local_1q_fidelity);
    const auto m2 = qsim::noisy_measure(branch, kE2, params.readout_fidelity);
    for (int o2 = 0; o2 < 2; ++o2) {
      if (m2.prob[o2] <= 1e-15) continue;
      DensityMatrix leaf = m2.state[static_cast<std::size_t>(o2)];
      if (o2 == 1) {
        // Feed-forward Z correction on the control data qubit.
        qsim::apply_noisy_1q(leaf, qsim::pauli_z(), kC,
                             params.local_1q_fidelity);
      }
      const double weight = m1.prob[o1] * m2.prob[o2];
      if (accum_empty) {
        accum = DensityMatrix::mix(leaf, weight, leaf, 0.0);
        accum_empty = false;
      } else {
        accum = DensityMatrix::mix(accum, 1.0, leaf, weight);
      }
    }
  }
  DQCSIM_ENSURES(!accum_empty);

  // Discard the measured Bell halves; order matters (indices shift down).
  DensityMatrix reduced = accum.partial_trace(kE2).partial_trace(kE1);

  const double f_pro = reduced.fidelity_with_pure(ideal_choi_vector());
  // Average gate fidelity for a d = 4 (two-qubit) channel.
  return (4.0 * f_pro + 1.0) / 5.0;
}

DensityMatrix teleport_through(const DensityMatrix& rho, int data,
                               int bh_local, int bh_remote,
                               const TeleportNoiseParams& params) {
  DensityMatrix sys = rho;
  // Fig. 1(b): CNOT(data -> local Bell half), H on data, measure both.
  qsim::apply_noisy_2q(sys, qsim::cnot(), data, bh_local,
                       params.local_2q_fidelity);
  qsim::apply_noisy_1q(sys, qsim::hadamard(), data, params.local_1q_fidelity);

  const auto mz = qsim::noisy_measure(sys, bh_local, params.readout_fidelity);
  bool accum_empty = true;
  DensityMatrix accum = DensityMatrix::mix(sys, 0.0, sys, 0.0);
  for (int oz = 0; oz < 2; ++oz) {
    if (mz.prob[oz] <= 1e-15) continue;
    DensityMatrix branch = mz.state[static_cast<std::size_t>(oz)];
    if (oz == 1) {
      qsim::apply_noisy_1q(branch, qsim::pauli_x(), bh_remote,
                           params.local_1q_fidelity);
    }
    const auto mx = qsim::noisy_measure(branch, data, params.readout_fidelity);
    for (int ox = 0; ox < 2; ++ox) {
      if (mx.prob[ox] <= 1e-15) continue;
      DensityMatrix leaf = mx.state[static_cast<std::size_t>(ox)];
      if (ox == 1) {
        qsim::apply_noisy_1q(leaf, qsim::pauli_z(), bh_remote,
                             params.local_1q_fidelity);
      }
      const double weight = mz.prob[oz] * mx.prob[ox];
      if (accum_empty) {
        accum = DensityMatrix::mix(leaf, weight, leaf, 0.0);
        accum_empty = false;
      } else {
        accum = DensityMatrix::mix(accum, 1.0, leaf, weight);
      }
    }
  }
  DQCSIM_ENSURES(!accum_empty);
  return accum;
}

double teleported_state_avg_fidelity(double pair_fidelity,
                                     const TeleportNoiseParams& params) {
  DQCSIM_EXPECTS(pair_fidelity >= 0.25 && pair_fidelity <= 1.0);
  // Qubits: 0 = reference, 1 = data, 2 = local Bell half, 3 = remote half.
  DensityMatrix rho = DensityMatrix::bell_phi_plus().tensor(
      DensityMatrix::werner(pair_fidelity));
  const DensityMatrix out =
      teleport_through(rho, /*data=*/1, /*bh_local=*/2, /*bh_remote=*/3,
                       params)
          .partial_trace(2)
          .partial_trace(1);
  // Output layout: 0 = reference, 1 = teleported state. Ideal channel is
  // the identity, whose Choi state is |Phi+>.
  const double s = 1.0 / std::sqrt(2.0);
  const double f_pro = out.fidelity_with_pure(
      {Complex{s, 0}, Complex{0, 0}, Complex{0, 0}, Complex{s, 0}});
  // Average fidelity for a d = 2 channel.
  return (2.0 * f_pro + 1.0) / 3.0;
}

double state_teleported_cnot_avg_fidelity(double pair1_fidelity,
                                          double pair2_fidelity,
                                          const TeleportNoiseParams& params) {
  DQCSIM_EXPECTS(pair1_fidelity >= 0.25 && pair1_fidelity <= 1.0);
  DQCSIM_EXPECTS(pair2_fidelity >= 0.25 && pair2_fidelity <= 1.0);
  // Qubit layout (LSB first):
  //   0 = rc, 1 = c (control data, node A),
  //   2 = p1a, 3 = p1b (pair 1: A -> B move),
  //   4 = t (target data, node B), 5 = rt,
  //   6 = p2b, 7 = p2a (pair 2: B -> A return).
  DensityMatrix rho = DensityMatrix::bell_phi_plus()
                          .tensor(DensityMatrix::werner(pair1_fidelity))
                          .tensor(DensityMatrix::bell_phi_plus())
                          .tensor(DensityMatrix::werner(pair2_fidelity));
  // 1. Teleport the control from qubit 1 onto qubit 3 (node B).
  DensityMatrix moved = teleport_through(rho, 1, 2, 3, params);
  // 2. Local CNOT on node B: control = teleported control (3), target = 4.
  qsim::apply_noisy_2q(moved, qsim::cnot(), 3, 4, params.local_2q_fidelity);
  // 3. Teleport the control back from qubit 3 onto qubit 7 (node A).
  DensityMatrix back = teleport_through(moved, 3, 6, 7, params);
  // Discard everything but rc, control', t, rt (trace high to low so the
  // remaining indices stay valid).
  DensityMatrix reduced = back.partial_trace(6)
                              .partial_trace(3)
                              .partial_trace(2)
                              .partial_trace(1);
  // Remaining layout: 0 = rc, 1 = t, 2 = rt, 3 = control'.
  // Ideal output: CNOT(c -> t) on |Phi+>_{rc,c} (x) |Phi+>_{t,rt} with the
  // control living on qubit 3: amplitude 1/2 on |rc=a, t=b^a, rt=b, c'=a>.
  std::vector<Complex> psi(16, Complex{0.0, 0.0});
  for (std::size_t a = 0; a < 2; ++a) {
    for (std::size_t b = 0; b < 2; ++b) {
      const std::size_t index = a | ((b ^ a) << 1) | (b << 2) | (a << 3);
      psi[index] = Complex{0.5, 0.0};
    }
  }
  const double f_pro = reduced.fidelity_with_pure(psi);
  return (4.0 * f_pro + 1.0) / 5.0;
}

}  // namespace dqcsim::noise
