/// \file teleport_gadgets.hpp
/// \brief Density-matrix evaluation of the teleportation gadgets: the test
/// oracle of the closed forms in noise/teleport_fidelity.hpp.
///
/// Each gadget simulates its circuit literally, with noisy local gates,
/// noisy readout and feed-forward corrections, and reads the average
/// fidelity off the reference-entangled output (the Choi state). The
/// library's models use the Pauli-frame closed forms instead; these
/// evaluations exist to check them (tests/test_noise.cpp) and to time the
/// kernel they replaced (bench/perf_micro.cpp).

#pragma once

#include "noise/teleport_fidelity.hpp"
#include "qsim/density_matrix.hpp"

namespace dqcsim::noise {

/// Exact average gate fidelity of the teleported CNOT consuming a Bell pair
/// of fidelity `pair_fidelity` (Werner form), simulated on a 6-qubit
/// density matrix with two reference qubits (16 measurement branches).
/// Milliseconds per call. Preconditions: pair_fidelity in [0.25, 1].
double teleported_cnot_avg_fidelity(double pair_fidelity,
                                    const TeleportNoiseParams& params = {});

/// Exact average fidelity of teleporting one qubit's *state* across a Bell
/// pair of fidelity `pair_fidelity` (the paper's Fig. 1(b) gadget with
/// noisy local ops and readout): the d = 2 building block of the
/// state-teleportation implementation of remote gates.
double teleported_state_avg_fidelity(double pair_fidelity,
                                     const TeleportNoiseParams& params = {});

/// Exact average gate fidelity of a remote CNOT implemented by *state*
/// teleportation (control over on pair 1, local CNOT, control back on
/// pair 2), evaluated on an 8-qubit density matrix. Tens of milliseconds
/// per call. Preconditions: both fidelities in [0.25, 1].
double state_teleported_cnot_avg_fidelity(
    double pair1_fidelity, double pair2_fidelity,
    const TeleportNoiseParams& params = {});

/// Teleport the state of `data` through the Bell pair (`bh_local`,
/// `bh_remote`) within `rho`: CNOT(data -> bh_local), H on data, measure
/// both, and apply the feed-forward X and Z corrections on the remote
/// half, all with the noise of `params` (perfect params give the ideal
/// Bell measurement). Returns the outcome-averaged state; the teleported
/// state lives on `bh_remote`, and `data` and `bh_local` are left measured
/// out (trace them when done).
qsim::DensityMatrix teleport_through(const qsim::DensityMatrix& rho, int data,
                                     int bh_local, int bh_remote,
                                     const TeleportNoiseParams& params);

}  // namespace dqcsim::noise
