/// \file engine.hpp
/// \brief Event-driven execution of a partitioned circuit on the DQC
/// architecture (the paper's evaluation core, §IV).
///
/// The engine couples two processes on one discrete-event simulator:
///  1. the entanglement-generation service (ent::GenerationService), and
///  2. list-scheduled circuit execution: a gate starts as soon as its
///     per-qubit predecessors complete; remote gates additionally wait for
///     an EPR pair (from the buffer, or — in the bufferless original design
///     — for a heralding instant).
///
/// Depth is the resulting makespan in local-CNOT units; fidelity is the
/// product of all gate fidelities (remote gates via the teleportation-gadget
/// model at the consumed pair's decayed fidelity) times exp(-kappa * depth).
///
/// For adapt_buf / init_buf the engine admits the circuit segment by
/// segment, choosing the pre-compiled ASAP/ALAP/original variant from the
/// live buffer occupancy when each segment is admitted (paper §III-D).
///
/// The entry point is RunContext: a reusable workspace executing one trial
/// per call. All engine state (event pool, dependency arrays, link
/// services, scratch buffers, metrics) is reset() instead of reallocated
/// between calls, and circuit-derived artifacts (gate placement, segment
/// variants, fusion chains, link topology, teleportation models) are cached
/// while consecutive calls share a setup — so a Monte-Carlo trial loop does
/// zero steady-state allocation. The design is not part of the setup key:
/// trials of different distributed designs share one setup, and the
/// artifacts only some designs use (segment variants, fusion chains) are
/// built with the first trial that needs them. Each worker id of each
/// thread calling runtime::run_design owns one, warm across calls. A
/// one-off run is a fresh RunContext and one execute().

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "circuit/circuit.hpp"
#include "noise/teleport_fidelity.hpp"
#include "runtime/arch_config.hpp"
#include "runtime/design.hpp"
#include "runtime/metrics.hpp"

namespace dqcsim::runtime {

/// Reusable single-trial execution workspace. Not thread-safe: one
/// RunContext per concurrent caller (see ThreadPool::parallel_for_workers).
class RunContext {
 public:
  RunContext();
  ~RunContext();
  RunContext(RunContext&&) noexcept;
  RunContext& operator=(RunContext&&) noexcept;
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  /// Execute one trial and return its metrics. Inputs are validated on
  /// every call (ConfigError for a bad config, PreconditionError for an
  /// assignment that misses a qubit or names a node outside
  /// [0, num_nodes); IdealMono ignores the assignment); `circuit` and
  /// `assignment` must stay alive for the call.
  ///
  /// \param teleport_model optional pre-built teleported-gate fidelity
  ///        model (must match config fidelities); pass nullptr to build
  ///        (and cache) one internally.
  RunResult execute(const Circuit& circuit, const std::vector<int>& assignment,
                    const ArchConfig& config, DesignKind design,
                    std::uint64_t seed,
                    const noise::TeleportFidelityModel* teleport_model =
                        nullptr);

  /// execute() for a batch caller that validated `config` once for all of
  /// its trials (runtime::run_design, run_design_matrix): skips only the
  /// per-trial ArchConfig::validate(). Precondition: config.validate()
  /// passed and the config is unchanged since.
  RunResult execute_validated(const Circuit& circuit,
                              const std::vector<int>& assignment,
                              const ArchConfig& config, DesignKind design,
                              std::uint64_t seed);

  /// End a batch of execute() calls (runtime::run_design calls this when
  /// it returns): drop every reference to the batch's inputs — the
  /// config's observer, scenario and topology handles, the circuit and
  /// model pointers — and keep the cached setup (the routing cache pins the
  /// topology it was built from). The next execute() resolves its circuit by
  /// content fingerprint, never by address, so a circuit mutated in place
  /// between batches cannot hit the stale setup.
  void release_inputs() noexcept;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace dqcsim::runtime
