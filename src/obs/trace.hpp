/// \file trace.hpp
/// \brief Per-trial event tracing with Chrome trace-event JSON export.
///
/// TraceBuffer is a pre-sized ring of typed spans/instants that the engine
/// and the generation services append to while the *traced* trial runs (the
/// one whose seed matches obs::Observe::trace_seed — that trial's event
/// stream is deterministic, so the exported JSON is bit-identical at any
/// thread count). TraceSink turns a buffer into Chrome trace-event /
/// Perfetto-compatible JSON: one track (tid) per link/edge plus track 0 for
/// the engine, async "b"/"e" span pairs, and "i" instants. Open the file at
/// https://ui.perfetto.dev or chrome://tracing.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace dqcsim::obs {

/// Typed trace events. The name doubles as the Chrome trace "name" field.
enum class Ev : std::uint8_t {
  Trial,         ///< whole-trial span on the engine track
  GenOk,         ///< successful generation attempt window (span)
  GenFail,       ///< failed generation attempt window (span)
  Deposit,       ///< pair deposited into a buffer (instant)
  RemoteWait,    ///< remote gate ready → pair available (span)
  RemoteExec,    ///< remote gate execution incl. swap/purify latency (span)
  Purify,        ///< purification round on consume (instant)
  SwapAssemble,  ///< swap-as-you-go end-to-end assembly (instant)
  Salvage,       ///< degraded-mode pair salvage (instant)
  Outage,        ///< link/edge without a live route (span)
  Reroute,       ///< logical link re-established its route (instant)
};

/// Chrome trace "name" string for an event type.
const char* ev_name(Ev ev) noexcept;
/// Chrome trace "cat" (category) string for an event type.
const char* ev_category(Ev ev) noexcept;

/// One recorded event. Spans carry [t0, t1]; instants use t0 only.
struct TraceEvent {
  double t0 = 0.0;
  double t1 = 0.0;
  Ev ev = Ev::Trial;
  bool span = false;
  std::uint32_t track = 0;
};

/// Fixed-capacity ring of trace events. reset() pre-sizes the backing
/// storage; recording never allocates, and events beyond the capacity
/// overwrite the oldest (dropped() reports how many were evicted).
class TraceBuffer {
 public:
  /// Clear and (re)reserve storage for `capacity` events.
  void reset(std::size_t capacity);

  void span(Ev ev, std::uint32_t track, double t0, double t1) noexcept {
    record(TraceEvent{t0, t1, ev, true, track});
  }
  void instant(Ev ev, std::uint32_t track, double t) noexcept {
    record(TraceEvent{t, t, ev, false, track});
  }

  /// Recorded events, oldest first.
  std::vector<TraceEvent> events() const;
  std::size_t size() const noexcept { return events_.size(); }
  std::uint64_t dropped() const noexcept { return dropped_; }
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  void record(const TraceEvent& e) noexcept;

  std::vector<TraceEvent> events_;  ///< ring storage, reserved by reset()
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;  ///< next write slot once the ring is full
  std::uint64_t dropped_ = 0;
};

/// Exports a TraceBuffer as Chrome trace-event JSON. Track names set via
/// set_track_name() become thread_name metadata, so Perfetto labels each
/// link/edge row.
class TraceSink {
 public:
  /// Name a track (tid). Unnamed tracks appear as bare tids.
  void set_track_name(std::uint32_t track, std::string name);
  /// Forget all track names.
  void clear() noexcept { names_.clear(); }

  /// Build the {"traceEvents": [...]} document. Timestamps are scaled by
  /// `us_per_unit` (Chrome traces use microseconds; the default maps one
  /// simulation time unit to 1 µs). Events are emitted sorted by
  /// (timestamp, record order), with a span's "b" before its "e" at equal
  /// timestamps, so per-track timestamps are monotone.
  JsonValue to_json(const TraceBuffer& buf, double us_per_unit = 1.0) const;

  /// to_json() written to `path`.
  void write_file(const TraceBuffer& buf, const std::string& path,
                  double us_per_unit = 1.0) const;

 private:
  std::vector<std::string> names_;  ///< indexed by track id; "" = unnamed
};

}  // namespace dqcsim::obs
