/// \file link_params.hpp
/// \brief Parameters of one inter-node entanglement-generation link.
///
/// A link connects two QPU nodes through `num_comm_pairs` communication-
/// qubit pairs, each running heralded generation attempts of duration
/// `cycle_time` that succeed with probability `p_succ` (paper §III-A,
/// Table II). Successes are SWAPped into buffer qubits (capacity
/// `buffer_capacity`) where they decay per the Werner law with rate `kappa`
/// and may be discarded after `cutoff` (§III-C cut-off policy).
///
/// These are the stationary values. Under a fault & drift scenario the
/// engine scales p_succ and f0, and takes the link down, one segment at a
/// time (ent::EffectiveLink, GenerationService::set_effective); the
/// structural fields stay fixed for the whole trial.

#pragma once

#include <limits>

namespace dqcsim::ent {

/// Attempt-phase alignment across communication-qubit pairs.
enum class AttemptSchedule {
  Synchronous,   ///< all pairs share aligned attempt windows (sync_buf)
  Asynchronous,  ///< pairs staggered in subgroups (async_buf, §III-C)
};

/// Entanglement link configuration.
struct LinkParams {
  int num_comm_pairs = 10;    ///< communication-qubit pairs on the link
  int buffer_capacity = 10;   ///< max simultaneously buffered EPR pairs
  double p_succ = 0.4;        ///< success probability per attempt
  double cycle_time = 10.0;   ///< T_EG, in units of local CNOT latency
  double swap_latency = 1.0;  ///< comm->buffer SWAP duration
  double f0 = 0.99;           ///< fidelity of a freshly generated pair
  double kappa = 0.002;       ///< buffer decoherence rate per time unit
  /// Discard pairs buffered longer than this (default: never).
  double cutoff = std::numeric_limits<double>::infinity();
  AttemptSchedule schedule = AttemptSchedule::Synchronous;
  /// Number of stagger subgroups for Asynchronous (Fig. 3 uses 4; the
  /// default spreads every pair maximally). Clamped to num_comm_pairs.
  int async_subgroups = 10;
  /// Which buffered pair remote gates consume (see ConsumeOrder).
  bool consume_freshest = true;
  /// Record every pair arrival in the ArrivalTrace. The trace feeds the
  /// Fig. 3 burstiness analysis; Monte-Carlo sweeps that never read it can
  /// switch it off to avoid the per-arrival log growth entirely.
  bool record_trace = true;

  /// Throws ConfigError when any field is out of domain.
  void validate() const;

  friend bool operator==(const LinkParams&, const LinkParams&) = default;
};

}  // namespace dqcsim::ent
