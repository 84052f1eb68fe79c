/// \file generation_service.hpp
/// \brief Continuous heralded entanglement-generation service (§III-B/C).
///
/// Each communication-qubit pair runs attempt windows of length
/// `cycle_time`; a window completes with a success with probability
/// `p_succ`. Window phases are aligned (Synchronous) or staggered across
/// subgroups (Asynchronous). Two consumption modes:
///
///  - Buffered: successes are SWAPped into the BufferPool (availability is
///    delayed by `swap_latency`); the arrival handler is notified at
///    deposit time. If the pool is full the pair is wasted. Attempt windows
///    stay on the per-pair phase grid — the SWAP is handled by the buffer
///    layer and does not re-phase the communication qubits, which preserves
///    the paper's synchronous burst pattern (Fig. 3).
///
///  - OnDemand (the paper's bufferless `original` design): a success exists
///    only at its heralding instant. The arrival handler may consume it by
///    returning true; otherwise the pair is wasted, reproducing the
///    "significant EPR pair waste" of the no-buffer design (§V-A).
///
/// Lazy generation (replay format v2). On a stationary link — no effective-
/// parameter provider and the default RetryKind::EveryWindow — every window
/// is an independent Bernoulli(p_succ) trial, so the service draws the
/// index of each pair's next successful window with one Rng::geometric draw
/// and keeps exactly one DES event alive: at the earliest pending success
/// over its pairs. Pairs due at the same grid instant are heralded in one
/// event, in pair-index order. Window n of pair p completes at
/// origin_p + n * cycle_time, with origin_p fixed at start(), so pairs on
/// one phase grid share bitwise-equal instants (the Fig. 3 burst pattern).
///
/// A buffered service whose buffer is full at a herald *parks*: it schedules
/// nothing until a pop (or, under a finite cutoff, its oldest pair's
/// expiry) can free a slot. On waking at W it replays the skipped successes
/// in time order across pairs: one whose SWAP lands before W was wasted
/// into the full buffer, a later one gets a real deposit event. Same-
/// instant ties keep the per-window chain's FIFO order against the waking
/// event (des::Simulator::scheduled_at says when it was queued): a SWAP
/// landing at W was queued at its herald, so it is wasted when the waker
/// was queued at or after that herald and deposits after the pop
/// otherwise; a success due at W is heralded inside the wake when its
/// window event (queued one cycle earlier) precedes the waker, else on the
/// timer after it. stop() settles the same way up to the trial's end,
/// where a SWAP landing at or after the end stays in flight. OnDemand
/// services skip ahead but never park.
///
/// attempts() is exact at any instant (it counts the windows each pair
/// completed on its grid). successes, waste and max_delivery_gap of a
/// parked service are settled at the next pop or at stop(); the engine
/// reads them only after stop(). Providers (scenarios) and backoff policies
/// keep the eager one-event, one-draw-per-window chain.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "des/simulator.hpp"
#include "ent/buffer_pool.hpp"
#include "ent/link_params.hpp"
#include "ent/trace.hpp"
#include "obs/trace.hpp"

namespace dqcsim::ent {

/// How successful pairs are delivered.
enum class ServiceMode {
  Buffered,
  OnDemand,
};

/// Effective link parameters at one instant, as seen through an active
/// fault & drift scenario (the engine composes scenario::ScenarioRuntime
/// scales over the logical link's current route).
struct EffectiveLink {
  double p_succ = 1.0;  ///< per-attempt success probability right now
  double f0 = 0.99;     ///< fidelity a pair born right now would have
  bool up = true;       ///< false while any hop of the route is down
};

/// Queried by the service at every attempt-window boundary (and at
/// pre-fill). Absent provider == stationary fabric.
using EffectiveProvider = std::function<EffectiveLink(des::SimTime)>;

/// Event-driven generation service over one inter-node link.
class GenerationService {
 public:
  /// Called on pair availability. In OnDemand mode the return value
  /// indicates whether the pair was consumed on the spot (false = wasted);
  /// in Buffered mode it is ignored (the pair is already in the buffer).
  using ArrivalHandler = std::function<bool(des::SimTime)>;

  /// The service schedules its events on `sim` and draws from `rng`; both
  /// must outlive the service. `params` is validated on construction.
  GenerationService(des::Simulator& sim, const LinkParams& params, Rng& rng,
                    ServiceMode mode);

  /// Return the service to its just-constructed state with (possibly new)
  /// parameters: not started, empty buffer, cleared trace and counters, no
  /// arrival handler. Storage capacity is retained, so a same-configuration
  /// reset (the Monte-Carlo trial loop) performs no allocation.
  void reset(const LinkParams& params, ServiceMode mode);

  /// Begin attempting: the first window of pair p completes at
  /// offset(p) + cycle_time. Idempotent once started.
  void start();

  /// Stop scheduling further attempt windows (already-scheduled completions
  /// still fire but do nothing). A lazy service first settles its counters
  /// up to `horizon`, so every lifetime counter is final once stop()
  /// returns. `horizon` >= now() is the instant generation ends: a trial
  /// cut at a sim-time budget ends at the budget, past its last event.
  void stop(des::SimTime horizon);
  void stop() { stop(sim_.now()); }

  /// Fill the buffer to capacity with fresh pairs at the current simulation
  /// time (the paper's init_buf pre-initialization).
  /// Precondition: Buffered mode.
  void pre_fill_buffer();

  /// Boundary capacity re-sharing (ArchConfig::reshare_at_boundaries):
  /// adopt a new comm-pair count and buffer capacity mid-trial without
  /// clearing the buffer, counters, or handlers. Returns the number of
  /// buffered pairs discarded when the buffer share shrank below the
  /// current stock (oldest first; see BufferPool::resize_capacity).
  ///
  /// The attempt chains carry the epoch guard: a window already in flight
  /// completes its attempt under the old share, and only then does its
  /// chain stop (shrink) — deactivated pairs never lose a started window.
  /// Growing restarts dead chains on a fresh phase grid from `now`;
  /// chains still in flight simply keep running.
  ///
  /// Reached only at scenario boundaries, so only on a provider-driven
  /// (never lazy) service. Precondition: the service is not lazy.
  std::size_t set_capacity_share(int num_comm_pairs, int buffer_capacity);

  void set_arrival_handler(ArrivalHandler handler) {
    handler_ = std::move(handler);
  }

  /// Install a time-varying effective-parameter source (see
  /// EffectiveProvider). The provider is re-read at every attempt-window
  /// completion: drift takes effect at the next window boundary, and a
  /// down link pauses attempting (no attempt counted, no RNG draw) while
  /// the completion chain stays on the phase grid, so generation resumes
  /// in phase on recovery. Cleared by reset().
  void set_effective_provider(EffectiveProvider provider) {
    provider_ = std::move(provider);
  }

  /// Trial-trace hook (see src/obs/): when set, attempt-window outcomes
  /// are recorded as gen_ok/gen_fail spans and buffer deposits as instants
  /// on track `track` of `sink`. Pure observation — no RNG draw, no
  /// scheduled event, no parameter change — and cleared by reset(), so the
  /// engine re-arms it for each traced trial only.
  void set_trial_trace(obs::TraceBuffer* sink, std::uint32_t track) noexcept {
    obs_trace_ = sink;
    obs_track_ = track;
  }

  /// Take one buffered pair for a consumer (see BufferPool::pop). Every
  /// consumer pop goes through the service: a parked service wakes first,
  /// so the slot the pop frees reaches the generation it suspended.
  std::optional<BufferedPair> pop(des::SimTime now, ConsumeOrder order);

  /// Buffered pairs available at `now` (after cutoff expiry).
  std::size_t available(des::SimTime now) { return buffer_.size(now); }

  /// Drop every buffered pair (a down endpoint node) and return how many
  /// were dropped. Reached only under a scenario, so only on a provider-
  /// driven service. Precondition: the service is not lazy.
  std::size_t flush_buffer(des::SimTime now);

  /// Read-only view: consumers mutate the pool through pop()/flush_buffer().
  const BufferPool& buffer() const noexcept { return buffer_; }
  const ArrivalTrace& trace() const noexcept { return trace_; }
  const LinkParams& params() const noexcept { return params_; }
  ServiceMode mode() const noexcept { return mode_; }

  /// Phase offset of pair p's attempt windows.
  double offset_of(int pair_index) const;

  // Lifetime counters.
  std::size_t attempts() const noexcept {
    return lazy_ && running_ ? lazy_attempts(sim_.now()) : attempts_;
  }
  std::size_t successes() const noexcept { return successes_; }
  /// Buffered-mode successes dropped because the pool was full.
  std::size_t wasted_buffer_full() const noexcept {
    return wasted_buffer_full_;
  }
  /// OnDemand-mode successes with no consumer at the heralding instant.
  std::size_t wasted_unconsumed() const noexcept { return wasted_unconsumed_; }

  /// Longest gap between consecutive successful generations so far,
  /// extended to `now` for the open interval since the last success (the
  /// pre-success interval starts at start()). Feeds the link_stalled
  /// watchdog: a service whose max gap exceeds N attempt windows made no
  /// delivery for that long. Always tracked — it costs two compares per
  /// success and never touches the RNG stream.
  double max_delivery_gap(des::SimTime now) const noexcept {
    if (!started_) return 0.0;
    return std::max(max_delivery_gap_, now - last_success_);
  }

 private:
  /// Lazy per-pair state (see the file comment).
  struct LazyPair {
    des::SimTime origin = 0.0;  ///< completion instant of window 0
    std::uint64_t next = 0;     ///< index of the next successful window
    des::SimTime due = 0.0;     ///< its completion instant (inf: never)
    std::uint64_t traced = 0;   ///< first window no trace span covers yet
  };

  void schedule_completion(int pair_index, des::SimTime completion);
  void schedule_deposit(des::SimTime at, double birth_f0);
  void start_lazy();
  des::SimTime window_time(const LazyPair& pair,
                           std::uint64_t n) const noexcept {
    return pair.origin + static_cast<double>(n) * params_.cycle_time;
  }
  /// Windows of `pair` completed at or before `t`.
  std::uint64_t windows_through(const LazyPair& pair,
                                des::SimTime t) const noexcept;
  std::size_t lazy_attempts(des::SimTime t) const noexcept;
  void draw_next_success(LazyPair& pair, std::uint64_t from) noexcept;
  void arm_timer();
  void on_timer();
  void herald(LazyPair& pair, des::SimTime at);
  void park(des::SimTime now);
  /// Resume at `now`, woken by an event queued at `waker_queued` (-inf for
  /// the service's own expiry timer, which only frees a slot).
  void wake(des::SimTime now, des::SimTime waker_queued);
  /// Settle the successes skipped before `until` (and at it, when
  /// stopping); a wake schedules the SWAPs still in flight. `waker_queued`
  /// orders the heralds due and SWAPs landing at `until` against the
  /// waking event.
  void replay_skipped(des::SimTime until, bool stopping,
                      des::SimTime waker_queued);
  /// Trace pair windows [traced, n) as one GenFail span; when `ok`, also
  /// window n as a GenOk span.
  void trace_windows(LazyPair& pair, std::uint64_t n, bool ok);
  void on_window_complete(int pair_index);
  /// Delay until pair `pair_index`'s next attempt after a failure (>=
  /// cycle_time; draws jitter from the service RNG when configured).
  double retry_delay(int consecutive_failures);
  void record_success(des::SimTime at) noexcept {
    max_delivery_gap_ = std::max(max_delivery_gap_, at - last_success_);
    last_success_ = at;
  }

  des::Simulator& sim_;
  LinkParams params_;
  Rng& rng_;
  ServiceMode mode_;
  BufferPool buffer_;
  ArrivalTrace trace_;
  ArrivalHandler handler_;
  EffectiveProvider provider_;
  obs::TraceBuffer* obs_trace_ = nullptr;
  std::uint32_t obs_track_ = 0;
  bool started_ = false;
  bool running_ = false;
  /// Bumped by reset(): events scheduled before a reset carry the old
  /// epoch and are ignored if the caller did not also reset the simulator.
  std::uint64_t epoch_ = 0;
  std::size_t attempts_ = 0;
  std::size_t successes_ = 0;
  std::size_t wasted_buffer_full_ = 0;
  std::size_t wasted_unconsumed_ = 0;

  // Lazy generation state, sized at start() with capacity retained.
  bool lazy_ = false;
  bool parked_ = false;
  bool timer_armed_ = false;
  des::EventId timer_ = 0;
  double log1m_p_ = 0.0;  ///< Rng::geometric_log1m(p_succ), fixed at start()
  std::vector<LazyPair> lazy_pairs_;

  // Boundary re-sharing state. active_pairs_ tracks the live comm-pair
  // count (== params_.num_comm_pairs unless set_capacity_share moved it);
  // pair_alive_[p] marks whether pair p's completion chain is still
  // scheduled, so a grow never double-chains a pair whose final event is
  // in flight.
  int active_pairs_ = 0;
  std::vector<char> pair_alive_;

  // Retry/backoff state: consecutive failed attempts per pair (only
  // maintained when params_.retry.kind != RetryKind::EveryWindow).
  std::vector<int> consecutive_failures_;

  // link_stalled watchdog state (see max_delivery_gap).
  des::SimTime last_success_ = 0.0;
  double max_delivery_gap_ = 0.0;
};

}  // namespace dqcsim::ent
