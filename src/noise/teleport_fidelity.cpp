#include "noise/teleport_fidelity.hpp"

#include <array>
#include <bit>

#include "common/error.hpp"

namespace dqcsim::noise {

double depolarizing_prob_for_avg_fidelity(int dim, double f_avg) {
  DQCSIM_EXPECTS_MSG(dim == 2 || dim == 4, "dim must be 2 or 4");
  const double d = static_cast<double>(dim);
  DQCSIM_EXPECTS_MSG(f_avg > 1.0 / (d + 1.0) && f_avg <= 1.0,
                     "average fidelity out of the depolarizing range");
  const double f_pro = ((d + 1.0) * f_avg - 1.0) / d;
  const double p = (1.0 - f_pro) / (1.0 - 1.0 / (d * d));
  return p;
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
      : p2(depolarizing_prob_for_avg_fidelity(4, params.local_2q_fidelity)),
        p1(depolarizing_prob_for_avg_fidelity(2, params.local_1q_fidelity)),
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
// models use the density-matrix gadgets' values at their calibration
// points, recorded bit for bit (hex literals below); everywhere else they
// use the closed forms, which differ from the gadgets by a few ulps. The
// recorded values keep every result computed at the defaults before the
// closed form existed bit-identical: the frozen replay samples in
// tests/data/replay_v1, which cannot be regenerated, are gated by a KS test
// that depends on exact fidelity ties. tests/test_noise.cpp checks the
// recorded values against the gadgets (tests/oracle) bit for bit.

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
