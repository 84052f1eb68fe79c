#include "runtime/metrics.hpp"

namespace dqcsim::runtime {

AggregateResult::AggregateResult() {
  // Quantile histogram ranges, in local-CNOT time units. Samples beyond a
  // range still land in the exact-count tail buckets and interpolate
  // against min/max, so a wider-than-expected distribution degrades
  // gracefully instead of clipping. Each bin width (0.5, 8, 128) is a power
  // of two, so the bin edges are exact.
  avg_pair_age.enable_histogram(0.0, 256.0, 512);
  avg_remote_wait.enable_histogram(0.0, 4096.0, 512);
  outage_downtime.enable_histogram(0.0, 65536.0, 512);
}

void AggregateResult::add(const RunResult& run) {
#define DQCSIM_METRIC_ADD(type, name, init, fold) \
  name.add(static_cast<double>(run.name));
  DQCSIM_TRIAL_METRICS(DQCSIM_METRIC_ADD)
#undef DQCSIM_METRIC_ADD
}

}  // namespace dqcsim::runtime
