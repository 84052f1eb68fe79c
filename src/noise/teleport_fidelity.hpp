/// \file teleport_fidelity.hpp
/// \brief Exact fidelity of a gate-teleported CNOT from a noisy Bell pair.
///
/// Implements the paper's §IV-C methodology: "the fidelity of a remote gate
/// is obtained through the evaluation of the gate teleportation circuit
/// which includes a noisy Bell state, noisy local 2-qubit gates, and a noisy
/// single-qubit measurement." The fidelity is the *process* fidelity of the
/// induced channel, converted to average gate fidelity.
///
/// The models evaluate each gadget in closed form, in the Pauli-frame
/// picture of stabilizer circuits (Aaronson & Gottesman, PRA 70, 052328
/// (2004)). The literal density-matrix simulation of the same circuits
/// (6 qubits for the gate gadget, 8 for the state gadget) is the test
/// oracle; it lives beside the tests in tests/oracle/teleport_gadgets.hpp,
/// and nothing in the library calls it.
///
/// The closed form. Every noise source in both gadgets is an independent
/// Pauli channel on a Clifford circuit, so the output channel is the ideal
/// CNOT followed by one Pauli error E on (c, t), and F_pro = Pr[E = I].
/// With v_i the error of source i propagated to (c, t) (a vector in F_2^4)
///   F_pro = (1/16) sum_{s in F_2^4} prod_i E_i[(-1)^{s.v_i}],
///   F_avg = (4 F_pro + 1) / 5.
/// p2 and p1 are depolarizing_prob_for_avg_fidelity(4 | 2, f) of the
/// local two- and one-qubit fidelities, and a readout flips with
/// probability 1 - f_r. A Werner pair of fidelity F is |Phi+> with a Pauli
/// error on one half: I with probability F, X, Y, Z with (1 - F)/3 each.
/// A feed-forward correction is applied on a uniformly random reported
/// outcome that is independent of every error, so its gate noise acts as
/// depolarizing at p1/2.
///
/// Gate gadget (qubits c, e1 on node A; e2, t on node B):
///
/// | source                                  | propagates to            |
/// | --------------------------------------- | ------------------------ |
/// | Werner error on e2                      | X -> X_t, Z -> Z_c       |
/// | depolarizing p2 after CNOT(c -> e1)     | c part on c; X_e1 -> X_t |
/// | e1 readout flip                         | X_t                      |
/// | conditional X on e2 (p1/2)              | as the Werner error      |
/// | depolarizing p2 after CNOT(e2 -> t)     | Z_e2 -> Z_c; t part on t |
/// | depolarizing p1 after H on e2           | X_e2 -> Z_c              |
/// | e2 readout flip                         | Z_c                      |
/// | conditional Z on c (p1/2)               | on c                     |
///
/// (Y maps to the product of the X and Z images; an unlisted Pauli on a
/// measured qubit has no effect.)
///
/// State gadget: teleport c to node B, CNOT(c -> t) there, teleport c back.
/// Each teleport of a qubit Q (data d, Bell halves bl local, br remote)
/// leaves an error on Q:
///
/// | source                                  | propagates to            |
/// | --------------------------------------- | ------------------------ |
/// | Werner error                            | on Q                     |
/// | depolarizing p2 after CNOT(d -> bl)     | Z_d -> Z_Q; X_bl -> X_Q  |
/// | depolarizing p1 after H on d            | X_d -> Z_Q               |
/// | bl / d readout flip                     | X_Q / Z_Q                |
/// | conditional X and Z on br (p1/2 each)   | on Q                     |
///
/// The first teleport's error then passes through the local CNOT
/// (X_c -> X_c X_t, Z_c -> Z_c); the CNOT's depolarizing p2 on (c, t) and
/// the second teleport's error land directly.
///
/// Both closed forms agree with the density-matrix oracle to rounding
/// (tests/test_noise.cpp checks 1e-13 over randomized parameters). The
/// average fidelity is affine in each pair's Werner weight, so the models
/// reduce a remote gate to one multiply-add; building one costs about a
/// microsecond. At the Table II defaults the models use the oracle's
/// values at their calibration points, recorded bit for bit, so results
/// computed at the defaults before the closed form stay bit-identical
/// (see teleport_fidelity.cpp).

#pragma once

namespace dqcsim::noise {

/// Noise parameters entering the teleportation gadget.
struct TeleportNoiseParams {
  double local_2q_fidelity = 0.999;   ///< average fidelity of local CNOTs
  double local_1q_fidelity = 0.9999;  ///< average fidelity of corrections/H
  double readout_fidelity = 0.998;    ///< classical outcome correctness

  friend bool operator==(const TeleportNoiseParams&,
                         const TeleportNoiseParams&) = default;
};

/// Depolarizing probability p that realizes average gate fidelity `f_avg`
/// on a d-dimensional gate:
///   F_avg = (d * F_pro + 1) / (d + 1),   F_pro = 1 - p * (1 - 1/d^2).
/// Preconditions: dim in {2, 4}, f_avg in (1/(d+1), 1].
double depolarizing_prob_for_avg_fidelity(int dim, double f_avg);

/// Average gate fidelity of the teleported CNOT consuming a Bell pair of
/// fidelity `pair_fidelity` (Werner form), by the Pauli-frame character sum
/// (see the file comment). Preconditions: pair_fidelity in [0.25, 1].
double teleported_cnot_closed_form(double pair_fidelity,
                                   const TeleportNoiseParams& params = {});

/// Average gate fidelity of a remote CNOT implemented by *state*
/// teleportation: teleport the control to the target's node (pair 1), apply
/// the CNOT locally, teleport the control back (pair 2); by the Pauli-frame
/// character sum (see the file comment).
/// Preconditions: both fidelities in [0.25, 1].
double state_teleported_cnot_closed_form(
    double pair1_fidelity, double pair2_fidelity,
    const TeleportNoiseParams& params = {});

/// Bilinear model of state_teleported_cnot_closed_form:
///   F(F1, F2) = c00 + c10*F1 + c01*F2 + c11*F1*F2,
/// exact for Werner resources (the channel is linear in each resource
/// state); calibrated at the four corners (closed form; recorded gadget
/// values at the Table II defaults).
class StateTeleportCnotModel {
 public:
  explicit StateTeleportCnotModel(const TeleportNoiseParams& params = {});

  /// Average remote-CNOT fidelity for the two consumed pairs' fidelities.
  double eval(double pair1_fidelity, double pair2_fidelity) const;

  const TeleportNoiseParams& params() const noexcept { return params_; }

 private:
  TeleportNoiseParams params_;
  double c00_ = 0.0, c10_ = 0.0, c01_ = 0.0, c11_ = 0.0;
};

/// Affine model F_avg(pair_fidelity) = intercept + slope * pair_fidelity,
/// exact for Werner resources (calibrated at F = 0.25 and F = 1: closed
/// form; recorded gadget values at the Table II defaults).
class TeleportFidelityModel {
 public:
  explicit TeleportFidelityModel(const TeleportNoiseParams& params = {});

  /// Average teleported-gate fidelity for a pair of the given fidelity.
  double eval(double pair_fidelity) const;

  double intercept() const noexcept { return intercept_; }
  double slope() const noexcept { return slope_; }
  const TeleportNoiseParams& params() const noexcept { return params_; }

 private:
  TeleportNoiseParams params_;
  double intercept_ = 0.0;
  double slope_ = 0.0;
};

}  // namespace dqcsim::noise
