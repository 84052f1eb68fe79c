#include "ent/buffer_pool.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "noise/werner.hpp"

namespace dqcsim::ent {

BufferPool::BufferPool(int capacity, double f0, double kappa, double cutoff) {
  configure(capacity, f0, kappa, cutoff);
}

void BufferPool::configure(int capacity, double f0, double kappa,
                           double cutoff) {
  DQCSIM_EXPECTS(capacity >= 0);
  DQCSIM_EXPECTS(f0 >= 0.25 && f0 <= 1.0);
  DQCSIM_EXPECTS(kappa >= 0.0);
  DQCSIM_EXPECTS(cutoff > 0.0);
  capacity_ = static_cast<std::size_t>(capacity);
  f0_ = f0;
  kappa_ = kappa;
  cutoff_ = cutoff;
  if (ring_.size() != capacity_) ring_.resize(capacity_);
  head_ = 0;
  count_ = 0;
  deposited_ = consumed_ = expired_ = rejected_ = 0;
}

std::size_t BufferPool::flush(des::SimTime now) {
  expire_until(now);
  const std::size_t dropped = count_;
  head_ = 0;
  count_ = 0;
  return dropped;
}

// DQCSIM_HOT
void BufferPool::expire_until(des::SimTime now) {
  while (count_ > 0 && now - ring_[head_].deposited > cutoff_) {
    head_ = next(head_);
    --count_;
    ++expired_;
  }
}

std::size_t BufferPool::size(des::SimTime now) {
  expire_until(now);
  return count_;
}

// DQCSIM_HOT
bool BufferPool::deposit(des::SimTime now, double f0) {
  expire_until(now);
  if (count_ >= capacity_) {
    ++rejected_;
    return false;
  }
  std::size_t tail = head_ + count_;
  if (tail >= capacity_) tail -= capacity_;
  ring_[tail] = BufferedPair{now, f0};
  ++count_;
  ++deposited_;
  return true;
}

// DQCSIM_HOT
std::optional<BufferedPair> BufferPool::pop_oldest(des::SimTime now) {
  expire_until(now);
  if (count_ == 0) return std::nullopt;
  const BufferedPair pair = ring_[head_];
  head_ = next(head_);
  --count_;
  ++consumed_;
  return pair;
}

// DQCSIM_HOT
std::optional<BufferedPair> BufferPool::pop_freshest(des::SimTime now) {
  expire_until(now);
  if (count_ == 0) return std::nullopt;
  std::size_t tail = head_ + count_ - 1;
  if (tail >= capacity_) tail -= capacity_;
  const BufferedPair pair = ring_[tail];
  --count_;
  ++consumed_;
  return pair;
}

std::optional<BufferedPair> BufferPool::pop(des::SimTime now,
                                            ConsumeOrder order) {
  return order == ConsumeOrder::FreshestFirst ? pop_freshest(now)
                                              : pop_oldest(now);
}

des::SimTime BufferPool::next_expiry() const noexcept {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (count_ == 0 || !std::isfinite(cutoff_)) return kInf;
  const des::SimTime deposited = ring_[head_].deposited;
  // deposited + cutoff may round to an instant the strict test in
  // expire_until does not drop yet; step up to the first one it does.
  des::SimTime t = deposited + cutoff_;
  while (!(t - deposited > cutoff_)) t = std::nextafter(t, kInf);
  return t;
}

double BufferPool::fidelity_at_age(double age) const {
  DQCSIM_EXPECTS(age >= 0.0);
  return noise::werner_decayed_fidelity(f0_, kappa_, age);
}

}  // namespace dqcsim::ent
