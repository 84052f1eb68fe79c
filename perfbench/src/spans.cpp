#include "spans.hpp"

#include <fstream>

#include "common/json.hpp"

namespace perfbench {

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span s;
  s.name = name;
  if (tracer_->open_.empty()) {
    s.call_id = tracer_->next_call_++;
  } else {
    s.parent = static_cast<int>(tracer_->open_.back());
    s.call_id = tracer_->spans_[tracer_->open_.back()].call_id;
  }
  s.start_us = tracer_->now_us();
  index_ = tracer_->spans_.size();
  tracer_->spans_.push_back(std::move(s));
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_us = tracer_->now_us();
  tracer_->open_.pop_back();
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    out[layer] += (s.end_us - s.start_us - child_us[i]) * 1e-3;
  }
  return out;
}

bool Tracer::write_json(const std::string& path, const std::string& workload,
                        std::uint64_t seed,
                        const std::vector<Metric>& metrics) const {
  using dqcsim::JsonValue;
  JsonValue spans = JsonValue::array();
  for (const Span& s : spans_) {
    JsonValue o = JsonValue::object();
    o.set("name", s.name);
    o.set("call_id", static_cast<double>(s.call_id));
    o.set("parent", static_cast<double>(s.parent));
    o.set("start_us", s.start_us);
    o.set("end_us", s.end_us);
    spans.push(std::move(o));
  }
  JsonValue self = JsonValue::object();
  for (const auto& [layer, ms] : self_ms_by_layer()) self.set(layer, ms);
  JsonValue mets = JsonValue::object();
  for (const Metric& m : metrics) {
    JsonValue o = JsonValue::object();
    o.set("value", m.value);
    o.set("unit", m.unit);
    mets.set(m.name, std::move(o));
  }
  JsonValue root = JsonValue::object();
  root.set("workload", workload);
  root.set("seed", static_cast<double>(seed));
  root.set("spans", std::move(spans));
  root.set("self_ms", std::move(self));
  root.set("metrics", std::move(mets));

  std::ofstream os(path);
  if (!os) return false;
  os << root.dump(1) << '\n';
  return static_cast<bool>(os);
}

}  // namespace perfbench
