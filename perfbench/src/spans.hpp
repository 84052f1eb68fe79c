/// \file spans.hpp
/// \brief In-memory span tracer for the benchmark's traced mode.
///
/// Spans are recorded around the benchmark's own calls into each library
/// layer (nothing inside src/ is instrumented). Each span keeps its name,
/// start, end, and parent; every span opened while no other is open starts
/// a new call id that its descendants share. Spans stay in memory and are
/// written out once at the end of the run.

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";  ///< "<layer>.<what>", a string literal
    std::uint64_t call_id = 0;
    int parent = -1;  ///< index into spans(), -1 for a root
    double start_us = 0.0;
    double end_us = 0.0;
  };

  /// RAII span; a null tracer records nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  Tracer();

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self time per layer (the name up to its first '.'): each span's
  /// duration minus the part its child spans cover, summed, in ms.
  std::map<std::string, double> self_ms_by_layer() const;

  /// Write {"workload", "seed", "spans": [...], "self_ms": {...},
  /// "metrics": {...}} to `path`. Returns false when the file can't be
  /// written.
  bool write_json(const std::string& path, const std::string& workload,
                  std::uint64_t seed,
                  const std::vector<Metric>& metrics) const;

 private:
  double now_us() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::uint64_t next_call_ = 0;
};

}  // namespace perfbench
