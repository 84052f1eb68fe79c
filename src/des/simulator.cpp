#include "des/simulator.hpp"

#include "common/error.hpp"

namespace dqcsim::des {

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
