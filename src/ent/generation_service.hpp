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
/// Lazy generation (replay format v4). Every window is an independent
/// Bernoulli trial at the link's current success probability, so the
/// service draws the index of each pair's next successful window with one
/// Rng::geometric draw and keeps exactly one DES event alive: at the
/// earliest pending success over its pairs. Pairs due at the same grid
/// instant are heralded in one event, in pair-index order. Window n of pair
/// p completes at origin_p + n * cycle_time, with origin_p fixed at start(),
/// so pairs on one phase grid share bitwise-equal instants (the Fig. 3
/// burst pattern).
///
/// Segments. Under a fault scenario the engine pushes the link's
/// EffectiveLink (p_succ, f0, up) through set_effective() at t = 0 and at
/// every scenario boundary; between boundaries it is constant. The up state
/// follows the link's outages, and a composed link that reroutes takes its
/// new route's p_succ and f0. A change of p_succ or up settles the service
/// up to the boundary t under the old values, then redraws each pair's
/// pending success as a fresh geometric from its first window at or after
/// t (exact: the windows are iid, the geometric memoryless). A down segment
/// makes no attempt and no draw, and each pair keeps its phase grid, so
/// generation resumes in phase. A change of f0 alone redraws nothing: later
/// heralds carry the new f0 (a parked service settles first, so its SWAPs
/// in flight keep their herald's f0).
///
/// Same-instant rule: a window completing exactly at a boundary belongs to
/// the new segment, except a success the service's timer already heralded
/// at that instant, which happens when the timer was queued before the
/// boundary event (ties keep queue order). A settle at a boundary
/// therefore stops strictly before t.
///
/// A buffered service whose buffer is full at a herald *parks*: it schedules
/// nothing until a pop (or, under a finite cutoff, its oldest pair's
/// expiry) can free a slot. On waking at W it settles the skipped
/// successes in two steps:
///
///  - Bulk. Every success whose SWAP lands strictly before W met the full
///    buffer. For a pair with its pending success at window n and M the
///    last window whose SWAP lands before W, the wasted count is
///    1 + Binomial(M - n, p_succ), and the pair's next success is a fresh
///    geometric draw from M + 1. Pairs are settled in pair order, two draws
///    each, so a wake costs O(pairs), not O(successes).
///  - Walk. The successes left, at most ceil(swap_latency / cycle) + 1
///    windows per pair, are replayed one by one in time order across
///    pairs. A later SWAP gets a real deposit event. Same-instant ties
///    against a consumer's pop keep the per-window chain's FIFO order
///    (des::Simulator::scheduled_at says when the pop's event was queued):
///    a SWAP landing at W was queued at its herald, so it is wasted when
///    the waker was queued at or after that herald and deposits after the
///    pop otherwise; a success due at W is heralded inside the wake when
///    its window event (queued one cycle earlier) precedes the waker, else
///    on the timer after it.
///
/// stop() settles the same way up to the trial's end, where a SWAP landing
/// at or after the end stays in flight. OnDemand services skip ahead but
/// never park, so they only walk.
///
/// The bulk step knows how many successes a pair wasted, not in which
/// windows. Only a traced service, whose GenOk spans record them, places
/// each pair's successes: a uniform subset of windows n..M of the drawn
/// size, with n fixed, drawn from a per-service side stream (Floyd's
/// algorithm over a bitmap when the subset is dense, repeat-free rejection
/// when it is sparse). Given the counts the placement is exact, and the
/// main stream never sees it, so tracing cannot perturb the trial.
///
/// attempts() is exact at any instant (it counts the windows each pair
/// completed on its grid in up segments). successes and waste of a parked
/// service are settled at the next pop or boundary, or at stop(); the
/// engine reads them only after stop().

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "des/simulator.hpp"
#include "ent/buffer_pool.hpp"
#include "ent/link_params.hpp"
#include "obs/trace.hpp"

namespace dqcsim::ent {

/// How successful pairs are delivered.
enum class ServiceMode {
  Buffered,
  OnDemand,
};

/// Effective link parameters of one segment, as seen through an active
/// fault scenario (the engine composes them over the logical link's
/// current route).
struct EffectiveLink {
  double p_succ = 1.0;  ///< per-attempt success probability
  double f0 = 0.99;     ///< fidelity of a pair born in this segment
  bool up = true;       ///< false while any hop of the route is down
};

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
  /// parameters: not started, empty buffer, cleared counters, no arrival
  /// handler. Storage capacity is retained, so a same-configuration
  /// reset (the Monte-Carlo trial loop) performs no allocation.
  void reset(const LinkParams& params, ServiceMode mode);

  /// Begin attempting: the first window of pair p completes at
  /// offset(p) + cycle_time. Idempotent once started.
  void start();

  /// Stop generating (SWAPs already in flight still deposit). The service
  /// first settles its counters up to `horizon`, so every lifetime counter
  /// is final once stop() returns. `horizon` >= now() is the instant
  /// generation ends: a trial cut at a sim-time budget ends at the budget,
  /// past its last event.
  void stop(des::SimTime horizon);
  void stop() { stop(sim_.now()); }

  /// Fill the buffer to capacity with fresh pairs of the current f0 at the
  /// current simulation time (the paper's init_buf pre-initialization).
  /// Precondition: Buffered mode.
  void pre_fill_buffer();

  void set_arrival_handler(ArrivalHandler handler) {
    handler_ = std::move(handler);
  }

  /// Enter a new segment at the current simulation time with the given
  /// effective parameters (see the file comment). A bitwise-unchanged value
  /// is a no-op. Before start() it sets the first segment, which pre-fill
  /// and start() read. Cleared by reset() to the stationary
  /// {params.p_succ, params.f0, up}.
  void set_effective(const EffectiveLink& eff);
  const EffectiveLink& effective() const noexcept { return eff_; }

  /// Trial-trace hook (see src/obs/): when set, attempt-window outcomes
  /// are recorded as gen_ok/gen_fail spans and buffer deposits as instants
  /// on track `track` of `sink`. `side_seed` seeds the side stream that
  /// places a parked service's bulk-settled successes (see the file
  /// comment). Pure observation — no draw from the main stream, no
  /// scheduled event, no parameter change. Set after reset(), before
  /// start(); cleared by reset(), so the engine re-arms it for each traced
  /// trial only. Untraced, a bulk settle only counts.
  void set_trial_trace(obs::TraceBuffer* sink, std::uint32_t track,
                       std::uint64_t side_seed) noexcept {
    obs_trace_ = sink;
    obs_track_ = track;
    side_seed_ = side_seed;
  }

  /// Take one buffered pair for a consumer (see BufferPool::pop). Every
  /// consumer pop goes through the service: a parked service wakes first,
  /// so the slot the pop frees reaches the generation it suspended.
  std::optional<BufferedPair> pop(des::SimTime now, ConsumeOrder order);

  /// Buffered pairs available at `now` (after cutoff expiry).
  std::size_t available(des::SimTime now) { return buffer_.size(now); }

  /// Read-only view: consumers mutate the pool through pop().
  const BufferPool& buffer() const noexcept { return buffer_; }
  const LinkParams& params() const noexcept { return params_; }
  ServiceMode mode() const noexcept { return mode_; }

  /// Phase offset of pair p's attempt windows.
  double offset_of(int pair_index) const;

  // Lifetime counters.
  std::size_t attempts() const noexcept {
    return running_ ? lazy_attempts(sim_.now()) : attempts_;
  }
  std::size_t successes() const noexcept { return successes_; }
  /// Buffered-mode successes dropped because the pool was full.
  std::size_t wasted_buffer_full() const noexcept {
    return wasted_buffer_full_;
  }
  /// OnDemand-mode successes with no consumer at the heralding instant.
  std::size_t wasted_unconsumed() const noexcept { return wasted_unconsumed_; }

 private:
  /// Lazy per-pair state (see the file comment).
  struct LazyPair {
    des::SimTime origin = 0.0;    ///< completion instant of window 0
    std::uint64_t from = 0;       ///< first window of the pending draw
    std::uint64_t next = 0;       ///< index of the next successful window
    des::SimTime due = 0.0;       ///< its completion instant (inf: never)
    std::uint64_t traced = 0;     ///< first window no trace span covers yet
    std::uint64_t seg_start = 0;  ///< first window of the current segment
    std::uint64_t banked = 0;     ///< windows attempted in earlier segments
  };

  void schedule_deposit(des::SimTime at, double birth_f0);
  des::SimTime window_time(const LazyPair& pair,
                           std::uint64_t n) const noexcept {
    return pair.origin + static_cast<double>(n) * params_.cycle_time;
  }
  /// Windows of `pair` completed at or before `t`.
  std::uint64_t windows_through(const LazyPair& pair,
                                des::SimTime t) const noexcept;
  /// Windows of `pair` completed strictly before `t`.
  std::uint64_t windows_before(const LazyPair& pair,
                               des::SimTime t) const noexcept;
  /// Windows `pair` attempted through `t` (t >= its segment's start).
  std::uint64_t pair_attempts(const LazyPair& pair,
                              des::SimTime t) const noexcept;
  /// Windows of `pair` whose SWAP lands strictly before `t`.
  std::uint64_t windows_landed_before(const LazyPair& pair,
                                      des::SimTime t) const noexcept;
  std::size_t lazy_attempts(des::SimTime t) const noexcept;
  /// The pair's next success at or after window `from`; none while down.
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
  /// The bulk step of replay_skipped: count every pair's successes whose
  /// SWAP lands before `until` into the full buffer of a parked service.
  void settle_parked(des::SimTime until);
  /// Place the `count` successes of `pair` in windows n..n+span, window n
  /// among them, as a uniform subset drawn from the side stream, and trace
  /// them.
  void place_settled(LazyPair& pair, std::uint64_t n, std::uint64_t span,
                     std::uint64_t count);
  /// Trace pair windows [traced, n) as one GenFail span; when `ok`, also
  /// window n as a GenOk span.
  void trace_windows(LazyPair& pair, std::uint64_t n, bool ok);

  des::Simulator& sim_;
  LinkParams params_;
  Rng& rng_;
  ServiceMode mode_;
  BufferPool buffer_;
  ArrivalHandler handler_;
  EffectiveLink eff_;  ///< the current segment
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
  bool parked_ = false;
  bool timer_armed_ = false;
  des::EventId timer_ = 0;
  double log1m_p_ = 0.0;  ///< Rng::geometric_log1m of the segment's p_succ
  std::vector<LazyPair> lazy_pairs_;

  // Bulk-settle placement (traced services only): the side stream,
  // reseeded at start(), and working storage kept across trials.
  std::uint64_t side_seed_ = 0;
  Rng side_rng_;
  std::vector<std::uint64_t> pick_bits_;  ///< dense placement's bitmap
  std::vector<std::uint64_t> picks_;      ///< one pair's offsets, sorted
};

}  // namespace dqcsim::ent
