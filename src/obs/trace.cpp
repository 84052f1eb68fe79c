#include "obs/trace.hpp"

#include <algorithm>
#include <utility>

namespace dqcsim::obs {

const char* ev_name(Ev ev) noexcept {
  switch (ev) {
    case Ev::Trial:
      return "trial";
    case Ev::GenOk:
      return "gen_ok";
    case Ev::GenFail:
      return "gen_fail";
    case Ev::Deposit:
      return "deposit";
    case Ev::RemoteWait:
      return "remote_wait";
    case Ev::RemoteExec:
      return "remote_exec";
    case Ev::Purify:
      return "purify";
    case Ev::SwapAssemble:
      return "swap_assemble";
    case Ev::Salvage:
      return "salvage";
    case Ev::Outage:
      return "outage";
    case Ev::Reroute:
      return "reroute";
  }
  return "unknown";
}

const char* ev_category(Ev ev) noexcept {
  switch (ev) {
    case Ev::Trial:
      return "run";
    case Ev::GenOk:
    case Ev::GenFail:
    case Ev::Deposit:
      return "gen";
    case Ev::RemoteWait:
    case Ev::RemoteExec:
    case Ev::Purify:
    case Ev::SwapAssemble:
      return "link";
    case Ev::Salvage:
    case Ev::Outage:
    case Ev::Reroute:
      return "fault";
  }
  return "unknown";
}

void TraceBuffer::reset(std::size_t capacity) {
  capacity_ = capacity;
  events_.clear();
  events_.reserve(capacity);
  head_ = 0;
  dropped_ = 0;
}

void TraceBuffer::record(const TraceEvent& e) noexcept {
  if (capacity_ == 0) return;
  if (events_.size() < capacity_) {
    events_.push_back(e);  // within reserve(): never reallocates
    return;
  }
  events_[head_] = e;
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

std::vector<TraceEvent> TraceBuffer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  for (std::size_t i = 0; i < events_.size(); ++i) {
    out.push_back(events_[(head_ + i) % events_.size()]);
  }
  return out;
}

void TraceSink::set_track_name(std::uint32_t track, std::string name) {
  if (names_.size() <= track) names_.resize(track + 1);
  names_[track] = std::move(name);
}

JsonValue TraceSink::to_json(const TraceBuffer& buf, double us_per_unit) const {
  struct Rec {
    double ts;
    JsonValue j;
  };
  std::vector<Rec> recs;
  const std::vector<TraceEvent> events = buf.events();
  recs.reserve(events.size() * 2);
  std::int64_t next_id = 0;
  auto base = [](Ev ev, std::uint32_t track, const char* ph, double ts) {
    JsonValue j = JsonValue::object();
    j.set("name", JsonValue(ev_name(ev)));
    j.set("cat", JsonValue(ev_category(ev)));
    j.set("ph", JsonValue(ph));
    j.set("pid", JsonValue(std::int64_t{0}));
    j.set("tid", JsonValue(static_cast<std::int64_t>(track)));
    j.set("ts", JsonValue(ts));
    return j;
  };
  for (const TraceEvent& e : events) {
    const double t0 = e.t0 * us_per_unit;
    const double t1 = std::max(e.t0, e.t1) * us_per_unit;
    if (e.span) {
      // Async span pair: a fresh id per span lets overlapping spans share a
      // track without breaking begin/end matching.
      const std::int64_t id = next_id++;
      JsonValue b = base(e.ev, e.track, "b", t0);
      b.set("id", JsonValue(id));
      recs.push_back(Rec{t0, std::move(b)});
      JsonValue end = base(e.ev, e.track, "e", t1);
      end.set("id", JsonValue(id));
      recs.push_back(Rec{t1, std::move(end)});
    } else {
      JsonValue i = base(e.ev, e.track, "i", t0);
      i.set("s", JsonValue("t"));
      recs.push_back(Rec{t0, std::move(i)});
    }
  }
  // Stable sort by timestamp: ties keep record order, so a span's "b"
  // (inserted first) precedes its "e" and per-track timestamps are monotone.
  std::stable_sort(recs.begin(), recs.end(),
                   [](const Rec& a, const Rec& b) { return a.ts < b.ts; });

  JsonValue events_json = JsonValue::array();
  {
    JsonValue meta = JsonValue::object();
    meta.set("name", JsonValue("process_name"));
    meta.set("ph", JsonValue("M"));
    meta.set("pid", JsonValue(std::int64_t{0}));
    JsonValue args = JsonValue::object();
    args.set("name", JsonValue("dqcsim traced trial"));
    meta.set("args", std::move(args));
    events_json.push(std::move(meta));
  }
  for (std::uint32_t track = 0; track < names_.size(); ++track) {
    if (names_[track].empty()) continue;
    JsonValue meta = JsonValue::object();
    meta.set("name", JsonValue("thread_name"));
    meta.set("ph", JsonValue("M"));
    meta.set("pid", JsonValue(std::int64_t{0}));
    meta.set("tid", JsonValue(static_cast<std::int64_t>(track)));
    JsonValue args = JsonValue::object();
    args.set("name", JsonValue(names_[track]));
    meta.set("args", std::move(args));
    events_json.push(std::move(meta));
  }
  for (Rec& rec : recs) events_json.push(std::move(rec.j));

  JsonValue doc = JsonValue::object();
  doc.set("traceEvents", std::move(events_json));
  doc.set("displayTimeUnit", JsonValue("ms"));
  doc.set("dropped_events",
          JsonValue(static_cast<std::int64_t>(buf.dropped())));
  return doc;
}

void TraceSink::write_file(const TraceBuffer& buf, const std::string& path,
                           double us_per_unit) const {
  to_json(buf, us_per_unit).write_file(path);
}

}  // namespace dqcsim::obs
