#include "des/simulator.hpp"

#include "common/error.hpp"

namespace dqcsim::des {

bool Simulator::step() {
  if (queue_.empty()) return false;
  // The clock advances between event extraction and callback dispatch, so
  // the callback observes now() == its own timestamp (same contract as the
  // previous pop-then-run design) without a separate next_time() pass.
  queue_.dispatch_next([this](SimTime t, SimTime scheduled_at) {
    now_ = t;
    scheduled_at_ = scheduled_at;
    ++executed_;
  });
  scheduled_at_ = now_;
  return true;
}

std::size_t Simulator::run(std::size_t max_events) {
  std::size_t executed = 0;
  while (executed < max_events && step()) ++executed;
  return executed;
}

std::size_t Simulator::run_until(SimTime t_end) {
  DQCSIM_EXPECTS_MSG(t_end >= now_, "cannot run backwards in time");
  std::size_t executed = 0;
  while (!queue_.empty() && queue_.next_time() <= t_end) {
    step();
    ++executed;
  }
  now_ = t_end;
  scheduled_at_ = t_end;
  return executed;
}

}  // namespace dqcsim::des
