/// \file main.cpp
/// \brief perfbench entry point.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--out-dir <dir>]
///
/// Prints every metric by name with its unit, then, as the last line of
/// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}:
/// the end-to-end metrics with --trace 0, the per-layer metrics with
/// --trace 1 (whose spans are also written to <out-dir>).

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "common/json.hpp"

namespace {

using perfbench::Options;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\nworkloads:";
  for (const auto& w : perfbench::workloads()) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        opt.workload = val;
      } else if (key == "--seed") {
        opt.seed = std::stoull(val);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (key == "--trace") {
        opt.trace = std::stoi(val) != 0;
      } else if (key == "--out-dir") {
        opt.out_dir = val;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::exception&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

void print_metric(const perfbench::Metric& m) {
  std::printf("  %-36s %18.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const perfbench::Workload* w = perfbench::find_workload(opt.workload);
  if (w == nullptr) usage("unknown workload " + opt.workload);

  perfbench::Report report;
  try {
    if (opt.trace) {
      std::filesystem::create_directories(opt.out_dir);
      report = perfbench::run_traced(*w, opt);
    } else {
      report = perfbench::run_end_to_end(*w, opt);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << w->name << " failed: " << e.what() << '\n';
    return 1;
  }

  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              w->name.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("%s metrics:\n", opt.trace ? "per-layer" : "end-to-end");
  for (const auto& m : report.metrics) print_metric(m);
  std::printf("details:\n");
  for (const auto& m : report.extra) print_metric(m);
  for (const auto& note : report.notes) {
    std::printf("  note: %s\n", note.c_str());
  }

  dqcsim::JsonValue metrics = dqcsim::JsonValue::object();
  for (const auto& m : report.metrics) {
    dqcsim::JsonValue v = dqcsim::JsonValue::object();
    v.set("value", m.value);
    v.set("unit", m.unit);
    metrics.set(m.name, std::move(v));
  }
  dqcsim::JsonValue out = dqcsim::JsonValue::object();
  out.set("correct", report.correct);
  out.set("attempted", static_cast<std::int64_t>(report.attempted));
  out.set("failed", static_cast<std::int64_t>(report.failed));
  out.set("metrics", std::move(metrics));
  std::cout << out.dump(0) << std::endl;
  return 0;
}
