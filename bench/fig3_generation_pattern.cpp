/// \file fig3_generation_pattern.cpp
/// \brief Reproduces the paper's Fig. 3: synchronous vs asynchronous EPR
/// generation patterns in the time domain.
///
/// Matches the figure's setup: T_EG = 4 * T_local, communication pairs split
/// into 4 subgroups whose attempt start times are separated by T_local.
/// Output: per-time-unit arrival counts (ASCII bars) plus the burstiness
/// (coefficient of variation) of each pattern.

#include <iostream>

#include "bench_util.hpp"

namespace {

using namespace dqcsim;

ent::ArrivalTrace run_pattern(ent::AttemptSchedule schedule,
                              double horizon) {
  des::Simulator sim;
  Rng rng(2025);
  ent::LinkParams link;
  link.num_comm_pairs = 16;
  link.cycle_time = 4.0;  // the figure's T_EG = 4 T_local
  link.p_succ = 0.4;
  link.swap_latency = 0.0;
  link.buffer_capacity = 1 << 20;  // observe the raw pattern, never reject
  link.schedule = schedule;
  link.async_subgroups = 4;
  ent::GenerationService service(sim, link, rng, ent::ServiceMode::Buffered);
  // The arrival handler runs at every deposit; the buffer never fills, so
  // every success is logged.
  ent::ArrivalTrace trace;
  service.set_arrival_handler([&trace](des::SimTime t) {
    trace.record(t);
    return true;
  });
  service.start();
  sim.run_until(horizon);
  return trace;
}

void print_pattern(const std::string& label, const ent::ArrivalTrace& trace,
                   double horizon) {
  std::cout << label << " (arrivals per T_local):\n";
  const auto counts = trace.binned_counts(1.0, horizon);
  for (std::size_t t = 0; t < counts.size(); ++t) {
    std::cout << "  t=" << (t < 10 ? " " : "") << t << " |"
              << std::string(counts[t], '#') << " " << counts[t] << '\n';
  }
  std::cout << "  burstiness (CV of per-unit counts): "
            << TablePrinter::fmt(trace.burstiness(1.0, horizon), 3) << "\n\n";
}

}  // namespace

int main() {
  using namespace dqcsim;
  std::cout << "=== Fig. 3: entanglement generation patterns ===\n"
               "16 communication pairs, T_EG = 4 T_local, p_succ = 0.4, "
               "4 async subgroups\n\n";

  const double display_horizon = 24.0;
  const double stats_horizon = 4000.0;

  const auto sync_short =
      run_pattern(ent::AttemptSchedule::Synchronous, display_horizon);
  const auto async_short =
      run_pattern(ent::AttemptSchedule::Asynchronous, display_horizon);
  print_pattern("Synchronous", sync_short, display_horizon);
  print_pattern("Asynchronous", async_short, display_horizon);

  bench::BenchReport report("fig3_generation_pattern");
  ent::ArrivalTrace sync_long, async_long;
  report.time_section(
      "fig3/sync_long_horizon", static_cast<std::size_t>(stats_horizon),
      [&] {
        sync_long = run_pattern(ent::AttemptSchedule::Synchronous,
                                stats_horizon);
      });
  report.time_section(
      "fig3/async_long_horizon", static_cast<std::size_t>(stats_horizon),
      [&] {
        async_long = run_pattern(ent::AttemptSchedule::Asynchronous,
                                 stats_horizon);
      });

  TablePrinter table({"schedule", "pairs generated", "rate [pairs/T_local]",
                      "burstiness (CV)"});
  CsvWriter csv(bench::csv_path("fig3_generation_pattern"),
                {"schedule", "pairs", "rate", "burstiness"});
  for (const auto& [name, trace] :
       {std::pair<std::string, const ent::ArrivalTrace*>{"synchronous",
                                                         &sync_long},
        {"asynchronous", &async_long}}) {
    const double rate = static_cast<double>(trace->count()) / stats_horizon;
    table.add_row({name, TablePrinter::fmt(trace->count()),
                   TablePrinter::fmt(rate, 3),
                   TablePrinter::fmt(trace->burstiness(1.0, stats_horizon), 3)});
    csv.add_row({name, std::to_string(trace->count()),
                 TablePrinter::fmt(rate, 4),
                 TablePrinter::fmt(trace->burstiness(1.0, stats_horizon), 4)});
  }
  std::cout << "Long-horizon statistics (t = 4000):\n";
  table.print(std::cout);
  report.write();
  std::cout << "\nPaper shape: identical generation rates; synchronous "
               "arrivals burst at window boundaries while asynchronous "
               "arrivals spread uniformly (Fig. 3).\n";
  return 0;
}
