/// \file buffer_pool.hpp
/// \brief Storage for successfully generated EPR pairs (the buffer qubits).
///
/// Each buffered pair occupies one buffer qubit on each side of the link,
/// so pool capacity is min(buffer qubits per node) for a 2-node link. Pairs
/// carry their deposit timestamp; their fidelity at consumption follows the
/// Werner decay law. A cut-off policy (paper §III-C) discards pairs stored
/// longer than a threshold to bound decoherence of the entangled states.
///
/// Storage is a fixed-capacity ring buffer sized at configure() time, so
/// deposit/pop/expire perform no heap allocation — the pool is part of the
/// reusable per-trial RunContext workspace.

#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "des/event_pool.hpp"

namespace dqcsim::ent {

/// A buffered EPR pair (timestamps in simulation time units).
struct BufferedPair {
  des::SimTime deposited;  ///< when the pair became available in the buffer
  double f0 = 0.99;        ///< fidelity at deposit time (the birth fidelity)
};

/// Which buffered pair a remote gate consumes.
///
/// FreshestFirst minimizes the decoherence of *consumed* pairs (older stock
/// only matters through the cutoff policy) and realizes the paper's
/// observation that pairs are "consumed immediately after generation,
/// maintaining high fidelity" (§V-B). OldestFirst is the naive FIFO used as
/// an ablation.
enum class ConsumeOrder {
  FreshestFirst,
  OldestFirst,
};

/// FIFO pool of buffered pairs with capacity, decay, and cutoff expiry.
class BufferPool {
 public:
  /// \param capacity   max pairs stored simultaneously
  /// \param f0         fidelity of a pair at deposit time
  /// \param kappa      Werner decay rate per time unit per pair
  /// \param cutoff     max storage duration before the pair is discarded
  BufferPool(int capacity, double f0, double kappa, double cutoff);

  /// Re-parameterize and empty the pool, zeroing all lifetime counters.
  /// The ring storage is reallocated only when the capacity changes, so a
  /// same-configuration reset (the Monte-Carlo trial loop) is free.
  void configure(int capacity, double f0, double kappa, double cutoff);

  std::size_t capacity() const noexcept { return capacity_; }

  /// Pairs currently stored, after expiring per the cutoff at time `now`.
  std::size_t size(des::SimTime now);

  /// Pairs stored ignoring the cutoff (cheap, const).
  std::size_t raw_size() const noexcept { return count_; }

  bool full(des::SimTime now) { return size(now) >= capacity_; }
  bool empty(des::SimTime now) { return size(now) == 0; }

  /// Store a pair deposited at `now` with birth fidelity `f0` (the value
  /// the link's current segment produced). Returns false (and counts
  /// a waste) when the pool is full.
  bool deposit(des::SimTime now, double f0);

  /// Store a pair at the pool's configured f0 — the stationary-fabric case.
  bool deposit(des::SimTime now) { return deposit(now, f0_); }

  /// Remove and return the oldest pair still within the cutoff, or nullopt
  /// when the pool is empty at time `now`.
  std::optional<BufferedPair> pop_oldest(des::SimTime now);

  /// Remove and return the most recently deposited pair, or nullopt when
  /// the pool is empty at time `now`.
  std::optional<BufferedPair> pop_freshest(des::SimTime now);

  /// Pop according to `order`.
  std::optional<BufferedPair> pop(des::SimTime now, ConsumeOrder order);

  /// First instant at which the oldest stored pair counts as expired (the
  /// pool expires strictly after deposited + cutoff); +inf when the pool is
  /// empty or the cutoff is infinite.
  des::SimTime next_expiry() const noexcept;

  /// Fidelity of a pair of the given age (Werner decay from f0).
  double fidelity_at_age(double age) const;

  // Lifetime counters.
  std::size_t total_deposited() const noexcept { return deposited_; }
  std::size_t total_consumed() const noexcept { return consumed_; }
  std::size_t total_expired() const noexcept { return expired_; }
  std::size_t total_rejected() const noexcept { return rejected_; }

 private:
  void expire_until(des::SimTime now);

  std::size_t next(std::size_t i) const noexcept {
    return i + 1 == capacity_ ? 0 : i + 1;
  }

  std::size_t capacity_ = 0;
  double f0_ = 0.99;
  double kappa_ = 0.0;
  double cutoff_ = 1.0;
  std::vector<BufferedPair> ring_;  ///< size == capacity_
  std::size_t head_ = 0;            ///< index of the oldest pair
  std::size_t count_ = 0;           ///< pairs currently stored
  std::size_t deposited_ = 0;
  std::size_t consumed_ = 0;
  std::size_t expired_ = 0;
  std::size_t rejected_ = 0;
};

}  // namespace dqcsim::ent
