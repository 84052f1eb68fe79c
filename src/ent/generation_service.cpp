#include "ent/generation_service.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace dqcsim::ent {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// LazyPair::next of a pair that never succeeds within this trial.
constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

}  // namespace

GenerationService::GenerationService(des::Simulator& sim,
                                     const LinkParams& params, Rng& rng,
                                     ServiceMode mode)
    : sim_(sim),
      params_(params),
      rng_(rng),
      mode_(mode),
      buffer_(params.buffer_capacity, params.f0, params.kappa,
              params.cutoff) {
  params_.validate();
  active_pairs_ = params_.num_comm_pairs;
  pair_alive_.assign(static_cast<std::size_t>(active_pairs_), 0);
  if (params_.retry.kind != RetryKind::EveryWindow) {
    consecutive_failures_.assign(static_cast<std::size_t>(active_pairs_), 0);
  }
}

void GenerationService::reset(const LinkParams& params, ServiceMode mode) {
  params_ = params;
  params_.validate();
  mode_ = mode;
  // Invalidate any attempt/deposit events still scheduled on the simulator
  // from the previous run (harmless when the caller resets the simulator
  // too, as the trial loop does).
  ++epoch_;
  buffer_.configure(params.buffer_capacity, params.f0, params.kappa,
                    params.cutoff);
  trace_.clear();
  handler_ = nullptr;
  provider_ = nullptr;
  obs_trace_ = nullptr;
  obs_track_ = 0;
  started_ = false;
  running_ = false;
  attempts_ = 0;
  successes_ = 0;
  wasted_buffer_full_ = 0;
  wasted_unconsumed_ = 0;
  active_pairs_ = params_.num_comm_pairs;
  pair_alive_.assign(static_cast<std::size_t>(active_pairs_), 0);
  if (params_.retry.kind != RetryKind::EveryWindow) {
    consecutive_failures_.assign(static_cast<std::size_t>(active_pairs_), 0);
  } else {
    consecutive_failures_.clear();
  }
  last_success_ = 0.0;
  max_delivery_gap_ = 0.0;
  lazy_ = false;
  parked_ = false;
  timer_armed_ = false;
  lazy_pairs_.clear();
}

double GenerationService::offset_of(int pair_index) const {
  DQCSIM_EXPECTS(pair_index >= 0 && pair_index < params_.num_comm_pairs);
  if (params_.schedule == AttemptSchedule::Synchronous) return 0.0;
  const int groups =
      std::min(params_.async_subgroups, params_.num_comm_pairs);
  const int group = pair_index % groups;
  return params_.cycle_time * static_cast<double>(group) /
         static_cast<double>(groups);
}

void GenerationService::start() {
  if (started_) return;
  started_ = true;
  running_ = true;
  // Entanglement generation is a continuously running background service
  // (paper §III-B), so attempt windows are already in steady state when the
  // circuit starts: pair p's completions fall on offset(p) + k*cycle, and
  // the first one after t=now is scheduled (a zero offset completes after a
  // full cycle). Results are only *stored* from start() on, which keeps the
  // buffered designs distinct from init_buf's pre-filled buffer.
  last_success_ = sim_.now();
  lazy_ = !provider_ && params_.retry.kind == RetryKind::EveryWindow;
  if (lazy_) {
    start_lazy();
    return;
  }
  for (int p = 0; p < params_.num_comm_pairs; ++p) {
    pair_alive_[static_cast<std::size_t>(p)] = 1;
    const double offset = offset_of(p);
    const double first = (offset > 0.0) ? offset : params_.cycle_time;
    schedule_completion(p, sim_.now() + first);
  }
}

std::size_t GenerationService::set_capacity_share(int num_comm_pairs,
                                                  int buffer_capacity) {
  DQCSIM_EXPECTS(num_comm_pairs >= 1);
  DQCSIM_EXPECTS(buffer_capacity >= 0);
  DQCSIM_EXPECTS_MSG(!lazy_, "capacity re-sharing needs a provider-driven "
                             "service (scenario boundaries only)");
  const des::SimTime now = sim_.now();
  const int old_active = active_pairs_;
  active_pairs_ = num_comm_pairs;
  params_.num_comm_pairs = num_comm_pairs;
  if (pair_alive_.size() < static_cast<std::size_t>(num_comm_pairs)) {
    pair_alive_.resize(static_cast<std::size_t>(num_comm_pairs), 0);
  }
  if (params_.retry.kind != RetryKind::EveryWindow &&
      consecutive_failures_.size() <
          static_cast<std::size_t>(num_comm_pairs)) {
    consecutive_failures_.resize(static_cast<std::size_t>(num_comm_pairs),
                                 0);
  }
  // Shrinking needs no action here: deactivated chains complete their
  // in-flight window (the old-share epoch) and stop at the reschedule
  // check in on_window_complete. Growing restarts only chains that have
  // actually died — a still-alive chain keeps its phase.
  if (started_ && running_) {
    for (int p = old_active; p < active_pairs_; ++p) {
      auto& alive = pair_alive_[static_cast<std::size_t>(p)];
      if (alive) continue;
      alive = 1;
      const double offset = offset_of(p);
      const double first = (offset > 0.0) ? offset : params_.cycle_time;
      schedule_completion(p, now + first);
    }
  }
  return buffer_.resize_capacity(buffer_capacity, now);
}

void GenerationService::pre_fill_buffer() {
  DQCSIM_EXPECTS_MSG(mode_ == ServiceMode::Buffered,
                     "pre-fill requires a buffered service");
  // Under a scenario, pre-loaded pairs carry the effective birth fidelity
  // of the fill instant (they were generated by the same drifting fabric).
  const double f0 = provider_ ? provider_(sim_.now()).f0 : params_.f0;
  while (!buffer_.full(sim_.now())) {
    buffer_.deposit(sim_.now(), f0);
  }
}

void GenerationService::schedule_deposit(des::SimTime at, double birth_f0) {
  sim_.schedule_at(at, [this, birth_f0, epoch = epoch_] {
    if (epoch != epoch_) return;
    const des::SimTime t = sim_.now();
    if (buffer_.deposit(t, birth_f0)) {
      if (obs_trace_ != nullptr) {
        obs_trace_->instant(obs::Ev::Deposit, obs_track_, t);
      }
      if (params_.record_trace) trace_.record(t);
      if (handler_) handler_(t);
    } else {
      ++wasted_buffer_full_;
    }
  });
}

void GenerationService::schedule_completion(int pair_index,
                                            des::SimTime completion) {
  sim_.schedule_at(completion, [this, pair_index, epoch = epoch_] {
    if (epoch == epoch_) on_window_complete(pair_index);
  });
}

// DQCSIM_HOT
void GenerationService::on_window_complete(int pair_index) {
  if (!running_) return;
  const des::SimTime now = sim_.now();

  // Under an active scenario, re-read the effective link parameters at this
  // window boundary. A down link pauses attempting — no attempt counted, no
  // RNG draw — but the completion chain stays on the phase grid, so
  // generation resumes in phase on recovery. Without a provider this path
  // is identical to the stationary service.
  double p_succ = params_.p_succ;
  double birth_f0 = params_.f0;
  bool up = true;
  if (provider_) {
    const EffectiveLink eff = provider_(now);
    p_succ = eff.p_succ;
    birth_f0 = eff.f0;
    up = eff.up;
  }

  // The delay to this pair's next completion: one attempt window by
  // default; a non-default RetryPolicy stretches it after failures. When
  // the link is down the chain keeps probing on the plain cycle grid so
  // generation resumes in phase on recovery (recovery is an exogenous
  // repair, not a failed attempt — backoff does not apply).
  double delay = params_.cycle_time;
  if (up) {
    ++attempts_;
    const bool success = rng_.bernoulli(p_succ);
    if (obs_trace_ != nullptr) {
      obs_trace_->span(success ? obs::Ev::GenOk : obs::Ev::GenFail, obs_track_,
                       now - params_.cycle_time, now);
    }
    if (success) {
      ++successes_;
      record_success(now);
      if (params_.retry.kind != RetryKind::EveryWindow) {
        consecutive_failures_[static_cast<std::size_t>(pair_index)] = 0;
      }
      if (mode_ == ServiceMode::Buffered) {
        // SWAP into the buffer; availability is delayed by the SWAP latency.
        schedule_deposit(now + params_.swap_latency, birth_f0);
      } else {
        if (params_.record_trace) trace_.record(now);
        const bool consumed = handler_ ? handler_(now) : false;
        if (!consumed) ++wasted_unconsumed_;
      }
    } else if (params_.retry.kind != RetryKind::EveryWindow) {
      delay = retry_delay(
          ++consecutive_failures_[static_cast<std::size_t>(pair_index)]);
    }
  }

  // Reschedule unless a boundary re-share deactivated this pair — its
  // in-flight window just completed under the old share (the epoch
  // guard), and the chain ends here until a grow revives it.
  if (pair_index < active_pairs_) {
    schedule_completion(pair_index, now + delay);
  } else {
    pair_alive_[static_cast<std::size_t>(pair_index)] = 0;
  }
}

// DQCSIM_HOT
double GenerationService::retry_delay(int consecutive_failures) {
  const RetryPolicy& r = params_.retry;
  double d;
  if (r.attempt_cutoff > 0 && consecutive_failures >= r.attempt_cutoff) {
    // Past the cutoff the pair only probes at the ceiling interval.
    d = r.max_interval;
  } else if (r.kind == RetryKind::Fixed) {
    d = r.interval;
  } else {
    // interval * growth^(n-1), capped — iterated multiply, not std::pow,
    // so the value is bit-identical across libm implementations.
    d = r.interval;
    for (int i = 1; i < consecutive_failures && d < r.max_interval; ++i) {
      d *= r.growth;
    }
    d = std::min(d, r.max_interval);
  }
  // A pair cannot re-attempt faster than its attempt window.
  d = std::max(d, params_.cycle_time);
  // Deterministic seeded jitter: one uniform draw per delayed retry, part
  // of the service's replay stream.
  if (r.jitter > 0.0) d *= 1.0 + r.jitter * rng_.uniform();
  return d;
}

void GenerationService::stop(des::SimTime horizon) {
  DQCSIM_EXPECTS(horizon >= sim_.now());
  if (!running_) return;
  running_ = false;
  if (!lazy_) return;
  // Every window completed by the horizon counts, whatever the order of
  // same-instant events: a success due exactly at the horizon is heralded
  // here, its SWAP or consumer beyond the trial.
  replay_skipped(horizon, /*stopping=*/true, -kInf);
  parked_ = false;
  if (timer_armed_) {
    sim_.cancel(timer_);
    timer_armed_ = false;
  }
  attempts_ = 0;
  for (LazyPair& pair : lazy_pairs_) {
    const std::uint64_t done = windows_through(pair, horizon);
    attempts_ += done;
    trace_windows(pair, done, /*ok=*/false);
  }
}

// DQCSIM_HOT
std::optional<BufferedPair> GenerationService::pop(des::SimTime now,
                                                   ConsumeOrder order) {
  if (parked_) wake(now, sim_.scheduled_at());
  return buffer_.pop(now, order);
}

std::size_t GenerationService::flush_buffer(des::SimTime now) {
  DQCSIM_EXPECTS_MSG(!lazy_, "node-outage flushes need a provider-driven "
                             "service (scenarios only)");
  return buffer_.flush(now);
}

void GenerationService::start_lazy() {
  const des::SimTime now = sim_.now();
  log1m_p_ = Rng::geometric_log1m(params_.p_succ);
  lazy_pairs_.resize(static_cast<std::size_t>(params_.num_comm_pairs));
  for (std::size_t p = 0; p < lazy_pairs_.size(); ++p) {
    LazyPair& pair = lazy_pairs_[p];
    // Same first completion as the eager chain (see start()).
    const double offset = offset_of(static_cast<int>(p));
    pair.origin = now + ((offset > 0.0) ? offset : params_.cycle_time);
    pair.traced = 0;
    draw_next_success(pair, 0);
  }
  arm_timer();
}

std::uint64_t GenerationService::windows_through(
    const LazyPair& pair, des::SimTime t) const noexcept {
  if (t < pair.origin) return 0;
  // The quotient estimates the last window at or before t; window_time is
  // the authority, so step to it exactly.
  auto n = static_cast<std::uint64_t>((t - pair.origin) / params_.cycle_time);
  while (n > 0 && window_time(pair, n) > t) --n;
  while (window_time(pair, n + 1) <= t) ++n;
  return n + 1;
}

std::size_t GenerationService::lazy_attempts(des::SimTime t) const noexcept {
  std::size_t total = 0;
  for (const LazyPair& pair : lazy_pairs_) total += windows_through(pair, t);
  return total;
}

// DQCSIM_HOT
void GenerationService::draw_next_success(LazyPair& pair,
                                          std::uint64_t from) noexcept {
  // Failures before the next success; a saturated draw (p so small the
  // skip exceeds 2^64 windows) means the pair never succeeds this trial.
  const std::uint64_t skip =
      params_.p_succ >= 1.0 ? 0 : rng_.geometric_from_log1m(log1m_p_);
  if (skip >= kNever - from) {
    pair.next = kNever;
    pair.due = kInf;
  } else {
    pair.next = from + skip;
    pair.due = window_time(pair, pair.next);
  }
}

// DQCSIM_HOT
void GenerationService::arm_timer() {
  des::SimTime due = kInf;
  for (const LazyPair& pair : lazy_pairs_) due = std::min(due, pair.due);
  if (due == kInf) return;
  timer_ = sim_.schedule_at(due, [this, epoch = epoch_] {
    if (epoch == epoch_) on_timer();
  });
  timer_armed_ = true;
}

// DQCSIM_HOT
void GenerationService::on_timer() {
  timer_armed_ = false;
  if (!running_) return;
  const des::SimTime now = sim_.now();
  if (parked_) {  // the oldest buffered pair just expired: a slot is free
    wake(now, -kInf);
    return;
  }
  for (LazyPair& pair : lazy_pairs_) {
    if (pair.due != now) continue;
    if (mode_ == ServiceMode::Buffered && buffer_.full(now)) {
      park(now);
      return;
    }
    herald(pair, now);
  }
  arm_timer();
}

// DQCSIM_HOT
void GenerationService::herald(LazyPair& pair, des::SimTime at) {
  const std::uint64_t n = pair.next;
  // Draw the pair's next success before the OnDemand handler runs, so the
  // handler's own draws (purification) follow it in the stream.
  draw_next_success(pair, n + 1);
  ++successes_;
  record_success(at);
  trace_windows(pair, n, /*ok=*/true);
  if (mode_ == ServiceMode::Buffered) {
    schedule_deposit(at + params_.swap_latency, params_.f0);
  } else {
    if (params_.record_trace) trace_.record(at);
    const bool consumed = handler_ ? handler_(at) : false;
    if (!consumed) ++wasted_unconsumed_;
  }
}

void GenerationService::park(des::SimTime now) {
  parked_ = true;
  // Only a pop or the oldest pair's expiry can free a slot; a pop wakes
  // the service itself, the expiry needs the one timer.
  const des::SimTime expiry = buffer_.next_expiry();
  if (expiry == kInf) return;
  DQCSIM_ENSURES(expiry > now);
  timer_ = sim_.schedule_at(expiry, [this, epoch = epoch_] {
    if (epoch == epoch_) on_timer();
  });
  timer_armed_ = true;
}

void GenerationService::wake(des::SimTime now, des::SimTime waker_queued) {
  if (timer_armed_) {
    sim_.cancel(timer_);
    timer_armed_ = false;
  }
  replay_skipped(now, /*stopping=*/false, waker_queued);
  parked_ = false;
  arm_timer();
}

// DQCSIM_HOT
void GenerationService::replay_skipped(des::SimTime until, bool stopping,
                                       des::SimTime waker_queued) {
  // Walk the skipped successes in time order across pairs (ties in pair
  // order), so record_success sees nondecreasing instants. A parked buffer
  // stayed full over the whole gap, so a SWAP landing before `until` was
  // wasted and left the contents unchanged. stop() settles the heralds due
  // at `until` too. A wake settles those whose window event the per-window
  // chain queued (one cycle earlier) before the waking event, so their
  // SWAPs are queued ahead of whatever the waker schedules next; the rest
  // follow the waker on the timer.
  for (;;) {
    // Earliest due pair, ties to the lowest index.
    LazyPair* first = &lazy_pairs_[0];
    for (LazyPair& pair : lazy_pairs_) {
      if (pair.due < first->due) first = &pair;
    }
    const des::SimTime at = first->due;
    if (!(at < until ||
          (at == until &&
           (stopping || at - params_.cycle_time < waker_queued)))) {
      return;
    }
    const std::uint64_t n = first->next;
    draw_next_success(*first, n + 1);
    ++successes_;
    record_success(at);
    trace_windows(*first, n, /*ok=*/true);
    if (mode_ == ServiceMode::OnDemand) {
      // Only stop() reaches here (OnDemand never parks): the trial is over,
      // so no gate is left to claim the pair.
      if (params_.record_trace) trace_.record(at);
      ++wasted_unconsumed_;
      continue;
    }
    // Only a parked service has heralds before `until`, so an earlier SWAP
    // met its full buffer. A SWAP landing at `until` was queued at its
    // herald: the per-window chain runs it before a waking event queued at
    // or after that herald (FIFO ties; it met the full buffer) and after
    // one queued earlier (it deposits now). At the trial's end it stays in
    // flight.
    const des::SimTime deposit_at = at + params_.swap_latency;
    if (deposit_at < until || (deposit_at == until && waker_queued >= at)) {
      ++wasted_buffer_full_;
    } else if (!stopping) {
      schedule_deposit(deposit_at, params_.f0);
    }
  }
}

void GenerationService::trace_windows(LazyPair& pair, std::uint64_t n,
                                      bool ok) {
  if (obs_trace_ == nullptr) return;
  const double cycle = params_.cycle_time;
  if (pair.traced < n) {
    obs_trace_->span(obs::Ev::GenFail, obs_track_,
                     window_time(pair, pair.traced) - cycle,
                     window_time(pair, n - 1));
  }
  if (ok) {
    obs_trace_->span(obs::Ev::GenOk, obs_track_, window_time(pair, n) - cycle,
                     window_time(pair, n));
    pair.traced = n + 1;
  } else {
    pair.traced = std::max(pair.traced, n);
  }
}

}  // namespace dqcsim::ent
