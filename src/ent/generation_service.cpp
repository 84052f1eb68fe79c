#include "ent/generation_service.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/error.hpp"

namespace dqcsim::ent {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// LazyPair::next of a pair that never succeeds within this trial.
constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

/// How many windows 0, 1, ... satisfy `holds`, a predicate that is true up
/// to some window and false after it. `guess` estimates the last such
/// window by a quotient; window_time is the authority, so step to it
/// exactly.
template <typename Holds>
std::uint64_t leading_windows(double guess, Holds holds) noexcept {
  if (!holds(0)) return 0;
  auto m = static_cast<std::uint64_t>(guess);
  while (m > 0 && !holds(m)) --m;
  while (holds(m + 1)) ++m;
  return m + 1;
}

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
  eff_ = EffectiveLink{params_.p_succ, params_.f0, true};
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
  eff_ = EffectiveLink{params_.p_succ, params_.f0, true};
  obs_trace_ = nullptr;
  obs_track_ = 0;
  track_gap_ = true;
  side_seed_ = 0;
  started_ = false;
  running_ = false;
  attempts_ = 0;
  successes_ = 0;
  wasted_buffer_full_ = 0;
  wasted_unconsumed_ = 0;
  last_success_ = 0.0;
  max_delivery_gap_ = 0.0;
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
  // circuit starts: pair p's completions fall on offset(p) + k*cycle, the
  // first one after t=now (a zero offset completes after a full cycle).
  // Results are only *stored* from start() on, which keeps the buffered
  // designs distinct from init_buf's pre-filled buffer.
  const des::SimTime now = sim_.now();
  last_success_ = now;
  log1m_p_ = Rng::geometric_log1m(eff_.p_succ);
  side_rng_ = Rng(side_seed_);
  lazy_pairs_.resize(static_cast<std::size_t>(params_.num_comm_pairs));
  for (std::size_t p = 0; p < lazy_pairs_.size(); ++p) {
    LazyPair& pair = lazy_pairs_[p];
    const double offset = offset_of(static_cast<int>(p));
    pair.origin = now + ((offset > 0.0) ? offset : params_.cycle_time);
    pair.traced = 0;
    pair.seg_start = 0;
    pair.banked = 0;
    draw_next_success(pair, 0);
  }
  arm_timer();
}

void GenerationService::set_effective(const EffectiveLink& eff) {
  const auto same = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  const bool same_rate = same(eff.p_succ, eff_.p_succ) && eff.up == eff_.up;
  if (same_rate && same(eff.f0, eff_.f0)) return;
  if (!running_) {  // the first segment, read by pre-fill and start()
    eff_ = eff;
    return;
  }
  const des::SimTime now = sim_.now();
  // Settle the old segment strictly before `now`: a parked service's
  // skipped successes, whose SWAPs still in flight carry the old f0.
  if (parked_) wake(now, -kInf);
  if (same_rate) {
    eff_.f0 = eff.f0;
    return;
  }
  if (timer_armed_) {
    sim_.cancel(timer_);
    timer_armed_ = false;
  }
  const bool was_up = eff_.up;
  eff_ = eff;
  log1m_p_ = Rng::geometric_log1m(eff_.p_succ);
  for (LazyPair& pair : lazy_pairs_) {
    // The new segment starts at the first window at or after `now`, or
    // just past a success the timer already heralded at `now`.
    const std::uint64_t cut = std::max(windows_before(pair, now), pair.from);
    if (was_up) {
      pair.banked += cut - pair.seg_start;
      trace_windows(pair, cut, /*ok=*/false);
    }
    pair.seg_start = cut;
    pair.traced = cut;
    draw_next_success(pair, cut);
  }
  arm_timer();
}

void GenerationService::pre_fill_buffer() {
  DQCSIM_EXPECTS_MSG(mode_ == ServiceMode::Buffered,
                     "pre-fill requires a buffered service");
  // Under a scenario, pre-loaded pairs carry the effective birth fidelity
  // of the fill instant (they were generated by the same drifting fabric).
  while (!buffer_.full(sim_.now())) {
    buffer_.deposit(sim_.now(), eff_.f0);
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

void GenerationService::stop(des::SimTime horizon) {
  DQCSIM_EXPECTS(horizon >= sim_.now());
  if (!running_) return;
  running_ = false;
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
    attempts_ += pair_attempts(pair, horizon);
    if (eff_.up) {
      trace_windows(pair, windows_through(pair, horizon), /*ok=*/false);
    }
  }
}

// DQCSIM_HOT
std::optional<BufferedPair> GenerationService::pop(des::SimTime now,
                                                   ConsumeOrder order) {
  if (parked_) wake(now, sim_.scheduled_at());
  return buffer_.pop(now, order);
}

std::size_t GenerationService::flush_buffer(des::SimTime now) {
  // A flush happens at a scenario boundary: settle strictly before it.
  if (parked_) wake(now, -kInf);
  return buffer_.flush(now);
}

std::uint64_t GenerationService::windows_through(
    const LazyPair& pair, des::SimTime t) const noexcept {
  return leading_windows(
      (t - pair.origin) / params_.cycle_time,
      [&](std::uint64_t m) { return window_time(pair, m) <= t; });
}

std::uint64_t GenerationService::windows_landed_before(
    const LazyPair& pair, des::SimTime t) const noexcept {
  // The walk's own predicate for a SWAP that met the full buffer.
  return leading_windows(
      (t - params_.swap_latency - pair.origin) / params_.cycle_time,
      [&](std::uint64_t m) {
        return window_time(pair, m) + params_.swap_latency < t;
      });
}

std::uint64_t GenerationService::windows_before(
    const LazyPair& pair, des::SimTime t) const noexcept {
  return leading_windows(
      (t - pair.origin) / params_.cycle_time,
      [&](std::uint64_t m) { return window_time(pair, m) < t; });
}

std::uint64_t GenerationService::pair_attempts(
    const LazyPair& pair, des::SimTime t) const noexcept {
  if (!eff_.up) return pair.banked;
  return pair.banked + windows_through(pair, t) - pair.seg_start;
}

std::size_t GenerationService::lazy_attempts(des::SimTime t) const noexcept {
  std::size_t total = 0;
  for (const LazyPair& pair : lazy_pairs_) total += pair_attempts(pair, t);
  return total;
}

// DQCSIM_HOT
void GenerationService::draw_next_success(LazyPair& pair,
                                          std::uint64_t from) noexcept {
  pair.from = from;
  if (!eff_.up) {
    pair.next = kNever;
    pair.due = kInf;
    return;
  }
  // Failures before the next success; a saturated draw (p so small the
  // skip exceeds 2^64 windows) means the pair never succeeds this trial.
  const std::uint64_t skip =
      eff_.p_succ >= 1.0 ? 0 : rng_.geometric_from_log1m(log1m_p_);
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
    schedule_deposit(at + params_.swap_latency, eff_.f0);
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
  // A parked buffer stayed full over the whole gap, so a SWAP landing
  // before `until` was wasted and left the contents unchanged: count those
  // in bulk. Then walk the successes left in time order across pairs (ties
  // in pair order), so record_success sees nondecreasing instants (every
  // bulk success precedes them). stop() settles the heralds due at `until`
  // too. A wake settles those whose window event the per-window chain
  // queued (one cycle earlier) before the waking event, so their SWAPs are
  // queued ahead of whatever the waker schedules next; the rest follow the
  // waker on the timer.
  if (parked_) settle_parked(until);
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
      schedule_deposit(deposit_at, eff_.f0);
    }
  }
}

// DQCSIM_HOT
void GenerationService::settle_parked(des::SimTime until) {
  const bool place = track_gap_ || obs_trace_ != nullptr;
  settled_.clear();
  settled_runs_.clear();
  for (LazyPair& pair : lazy_pairs_) {
    // Pending success at window n; M = landed - 1 is the last window whose
    // SWAP lands before `until`. n's own SWAP landing there (M >= n) is
    // what makes the pair's gap non-empty.
    if (!(pair.due + params_.swap_latency < until)) continue;
    const std::uint64_t n = pair.next;
    const std::uint64_t span = windows_landed_before(pair, until) - 1 - n;
    const std::uint64_t count = 1 + rng_.binomial(span, eff_.p_succ);
    draw_next_success(pair, n + span + 1);
    successes_ += count;
    wasted_buffer_full_ += count;
    if (place) place_settled(pair, n, span, count);
  }
  if (!track_gap_) return;
  merge_settled_runs();
  for (const des::SimTime at : settled_) record_success(at);
}

void GenerationService::place_settled(LazyPair& pair, std::uint64_t n,
                                      std::uint64_t span, std::uint64_t count) {
  // count - 1 distinct offsets from 1..span, every subset equally likely,
  // into picks_ in increasing order.
  const std::uint64_t extra = count - 1;
  picks_.clear();
  if (extra > 0 && extra <= span / extra) {
    // Sparse: draw with replacement until no offset repeats. With
    // extra^2 <= span a round succeeds with probability at least 1/2.
    do {
      picks_.clear();
      for (std::uint64_t i = 0; i < extra; ++i) {
        picks_.push_back(1 + side_rng_.uniform_int(span));
      }
      std::sort(picks_.begin(), picks_.end());
    } while (std::adjacent_find(picks_.begin(), picks_.end()) != picks_.end());
  } else if (extra > 0) {
    // Dense: Floyd's algorithm over a bitmap of the offsets, read out in
    // order.
    pick_bits_.assign(span / 64 + 1, 0);
    const auto taken = [&](std::uint64_t offset) {
      return ((pick_bits_[offset / 64] >> (offset % 64)) & 1) != 0;
    };
    for (std::uint64_t j = span - extra + 1; j <= span; ++j) {
      std::uint64_t offset = 1 + side_rng_.uniform_int(j);
      if (taken(offset)) offset = j;
      pick_bits_[offset / 64] |= std::uint64_t{1} << (offset % 64);
    }
    for (std::size_t w = 0; w < pick_bits_.size(); ++w) {
      for (std::uint64_t bits = pick_bits_[w]; bits != 0; bits &= bits - 1) {
        const auto bit = static_cast<std::uint64_t>(std::countr_zero(bits));
        picks_.push_back(64 * w + bit);
      }
    }
  }
  trace_windows(pair, n, /*ok=*/true);
  for (const std::uint64_t offset : picks_) {
    trace_windows(pair, n + offset, /*ok=*/true);
  }
  if (!track_gap_) return;
  settled_.push_back(window_time(pair, n));
  for (const std::uint64_t offset : picks_) {
    settled_.push_back(window_time(pair, n + offset));
  }
  settled_runs_.push_back(settled_.size());
}

void GenerationService::merge_settled_runs() {
  // Each pair's instants are one sorted run of settled_; merge the runs
  // pairwise, bottom up, through merged_.
  while (settled_runs_.size() > 1) {
    merged_.resize(settled_.size());
    const des::SimTime* from = settled_.data();
    des::SimTime* to = merged_.data();
    std::size_t begin = 0;
    std::size_t kept = 0;
    for (std::size_t r = 0; r < settled_runs_.size(); r += 2) {
      const std::size_t mid = settled_runs_[r];
      const std::size_t end =
          r + 1 < settled_runs_.size() ? settled_runs_[r + 1] : mid;
      std::merge(from + begin, from + mid, from + mid, from + end, to + begin);
      settled_runs_[kept++] = end;
      begin = end;
    }
    settled_runs_.resize(kept);
    settled_.swap(merged_);
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
