#include "noise/teleport_fidelity.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "qsim/channels.hpp"
#include "qsim/density_matrix.hpp"

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

namespace {

/// Teleport the state of `data` through the Bell pair (`bh_local`,
/// `bh_remote`) within `rho`, applying noisy local operations and
/// feed-forward Pauli corrections on the remote half. On return the
/// teleported state lives on `bh_remote`; `data` and `bh_local` are left
/// measured out (trace them when done).
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

}  // namespace

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

namespace {

/// A Pauli error on the output pair (c, t) as the bits x_c, z_c, x_t, z_t
/// (phases dropped: they never change whether E = I).
using Frame = unsigned;
constexpr Frame kXc = 1, kZc = 2, kXt = 4, kZt = 8;

/// Where a qubit's X and Z errors end up on the output pair.
struct Images {
  Frame x = 0;
  Frame z = 0;
};

/// The three non-identity Paulis of one qubit, propagated.
std::array<Frame, 3> paulis(Images q) { return {q.x, q.z, q.x ^ q.z}; }

/// The fifteen non-identity Paulis of a qubit pair, propagated.
std::array<Frame, 15> paulis(Images a, Images b) {
  std::array<Frame, 15> out{};
  for (unsigned k = 1; k < 16; ++k) {
    out[k - 1] = ((k & 1) != 0 ? a.x : 0) ^ ((k & 2) != 0 ? a.z : 0) ^
                 ((k & 4) != 0 ? b.x : 0) ^ ((k & 8) != 0 ? b.z : 0);
  }
  return out;
}

/// Characteristic function chi[s] = E[(-1)^{s.E}] of the output error E,
/// one entry per s in F_2^4. Independent sources multiply it.
class FrameCharacter {
 public:
  FrameCharacter() { chi_.fill(1.0); }

  /// Fold in a source that takes each listed outcome with probability
  /// `p_each` and the identity otherwise: its factor at s is
  /// 1 - 2 p_each * #{outcomes anticommuting with s}.
  template <std::size_t N>
  void add(double p_each, const std::array<Frame, N>& outcomes) {
    for (unsigned s = 0; s < 16; ++s) {
      int odd = 0;
      for (const Frame v : outcomes) odd += std::popcount(s & v) & 1;
      chi_[s] *= 1.0 - 2.0 * p_each * odd;
    }
  }

  /// Average gate fidelity of the CNOT followed by E (d = 4).
  double avg_fidelity() const {
    double sum = 0.0;
    for (const double c : chi_) sum += c;
    const double f_pro = sum / 16.0;
    return (4.0 * f_pro + 1.0) / 5.0;
  }

 private:
  std::array<double, 16> chi_{};
};

/// Per-source error probabilities of the local operations.
struct LocalNoise {
  double p2;  ///< two-qubit depolarizing probability
  double p1;  ///< one-qubit depolarizing probability
  double r;   ///< readout flip probability

  explicit LocalNoise(const TeleportNoiseParams& params)
      : p2(qsim::depolarizing_prob_for_avg_fidelity(
            4, params.local_2q_fidelity)),
        p1(qsim::depolarizing_prob_for_avg_fidelity(
            2, params.local_1q_fidelity)),
        r(1.0 - params.readout_fidelity) {}
};

/// A Werner pair's error: X, Y, Z with (1 - F)/3 each.
double werner_p_each(double pair_fidelity) {
  return (1.0 - pair_fidelity) / 3.0;
}

/// The error one state teleport of qubit Q leaves on Q (whose X and Z
/// propagate to `q`).
void add_state_teleport(FrameCharacter& chi, double pair_fidelity,
                        const LocalNoise& n, Images q) {
  chi.add(werner_p_each(pair_fidelity), paulis(q));
  chi.add(n.p2 / 16.0, paulis(Images{0, q.z}, Images{q.x, 0}));  // (d, bl)
  chi.add(n.p1 / 4.0, paulis(Images{q.z, 0}));  // H on d
  chi.add(n.r, std::array<Frame, 1>{q.x});      // bl readout
  chi.add(n.r, std::array<Frame, 1>{q.z});      // d readout
  chi.add(n.p1 / 8.0, paulis(q));               // conditional X
  chi.add(n.p1 / 8.0, paulis(q));               // conditional Z
}

}  // namespace

double teleported_cnot_closed_form(double pair_fidelity,
                                   const TeleportNoiseParams& params) {
  DQCSIM_EXPECTS(pair_fidelity >= 0.25 && pair_fidelity <= 1.0);
  const LocalNoise n(params);
  const Images c{kXc, kZc};
  const Images t{kXt, kZt};
  const Images e1_measured{kXt, 0};      // Z-measured after CNOT(c -> e1)
  const Images e2{kXt, kZc};             // before CNOT(e2 -> t)
  const Images e2_x_measured{0, kZc};    // after CNOT(e2 -> t), before H
  const Images e2_z_measured{kZc, 0};    // after H

  FrameCharacter chi;
  chi.add(werner_p_each(pair_fidelity), paulis(e2));
  chi.add(n.p2 / 16.0, paulis(c, e1_measured));
  chi.add(n.r, std::array<Frame, 1>{kXt});  // e1 readout
  chi.add(n.p1 / 8.0, paulis(e2));          // conditional X
  chi.add(n.p2 / 16.0, paulis(e2_x_measured, t));
  chi.add(n.p1 / 4.0, paulis(e2_z_measured));  // H on e2
  chi.add(n.r, std::array<Frame, 1>{kZc});     // e2 readout
  chi.add(n.p1 / 8.0, paulis(c));              // conditional Z
  return chi.avg_fidelity();
}

double state_teleported_cnot_closed_form(double pair1_fidelity,
                                         double pair2_fidelity,
                                         const TeleportNoiseParams& params) {
  DQCSIM_EXPECTS(pair1_fidelity >= 0.25 && pair1_fidelity <= 1.0);
  DQCSIM_EXPECTS(pair2_fidelity >= 0.25 && pair2_fidelity <= 1.0);
  const LocalNoise n(params);
  const Images c{kXc, kZc};
  const Images t{kXt, kZt};

  FrameCharacter chi;
  // Teleport c to node B; its error then passes through CNOT(c -> t).
  add_state_teleport(chi, pair1_fidelity, n, Images{kXc ^ kXt, kZc});
  chi.add(n.p2 / 16.0, paulis(c, t));  // the local CNOT
  // Teleport c back to node A.
  add_state_teleport(chi, pair2_fidelity, n, c);
  return chi.avg_fidelity();
}

// Calibration points. At the Table II defaults (TeleportNoiseParams{}) the
// models use the density-matrix gadget's values at their calibration
// points, recorded bit for bit (hex literals below); everywhere else they
// use the closed forms, which differ from the gadget by a few ulps. The
// recorded values keep every result computed at the defaults before the
// closed form existed bit-identical: the frozen replay samples in
// tests/data/replay_v1, which cannot be regenerated, are gated by a KS test
// that depends on exact fidelity ties. tests/test_noise.cpp checks the
// recorded values against the gadget bit for bit.

StateTeleportCnotModel::StateTeleportCnotModel(
    const TeleportNoiseParams& params)
    : params_(params) {
  // Bilinear in (F1, F2): fit from the four Werner corners.
  const double lo = 0.25, hi = 1.0;
  const bool table2 = params == TeleportNoiseParams{};
  const auto corner = [&](double f1, double f2, double recorded) {
    return table2 ? recorded
                  : state_teleported_cnot_closed_form(f1, f2, params);
  };
  const double f_ll = corner(lo, lo, 0x1.3321b9469675bp-2);
  const double f_hl = corner(hi, lo, 0x1.98d47ab81943ep-2);
  const double f_lh = corner(lo, hi, 0x1.98d47ab819442p-2);
  const double f_hh = corner(hi, hi, 0x1.fb373a8831e13p-1);
  const double span = hi - lo;
  c11_ = (f_hh - f_hl - f_lh + f_ll) / (span * span);
  c10_ = (f_hl - f_ll) / span - c11_ * lo;
  c01_ = (f_lh - f_ll) / span - c11_ * lo;
  c00_ = f_ll - c10_ * lo - c01_ * lo - c11_ * lo * lo;
}

double StateTeleportCnotModel::eval(double pair1_fidelity,
                                    double pair2_fidelity) const {
  DQCSIM_EXPECTS(pair1_fidelity >= 0.25 && pair1_fidelity <= 1.0);
  DQCSIM_EXPECTS(pair2_fidelity >= 0.25 && pair2_fidelity <= 1.0);
  return c00_ + c10_ * pair1_fidelity + c01_ * pair2_fidelity +
         c11_ * pair1_fidelity * pair2_fidelity;
}

TeleportFidelityModel::TeleportFidelityModel(const TeleportNoiseParams& params)
    : params_(params) {
  // The output is affine in the resource state, hence in pair fidelity.
  const bool table2 = params == TeleportNoiseParams{};
  const double f_lo =
      table2 ? 0x1.99511a1f00d52p-2 : teleported_cnot_closed_form(0.25, params);
  const double f_hi =
      table2 ? 0x1.fd4f9673be948p-1 : teleported_cnot_closed_form(1.0, params);
  slope_ = (f_hi - f_lo) / (1.0 - 0.25);
  intercept_ = f_lo - slope_ * 0.25;
}

double TeleportFidelityModel::eval(double pair_fidelity) const {
  DQCSIM_EXPECTS(pair_fidelity >= 0.25 && pair_fidelity <= 1.0);
  return intercept_ + slope_ * pair_fidelity;
}

}  // namespace dqcsim::noise
