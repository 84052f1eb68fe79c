#include "obs/registry.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace dqcsim::obs {

namespace {

template <typename T>
std::size_t find_named(const std::vector<T>& items, const std::string& name) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].name == name) return i;
  }
  return items.size();
}

}  // namespace

Registry::Handle Registry::counter(const std::string& name) {
  const std::size_t i = find_named(counters_, name);
  if (i < counters_.size()) return i;
  counters_.push_back(Counter{name, 0});
  return counters_.size() - 1;
}

Registry::Handle Registry::gauge(const std::string& name) {
  const std::size_t i = find_named(gauges_, name);
  if (i < gauges_.size()) return i;
  gauges_.push_back(Gauge{name, 0.0, false});
  return gauges_.size() - 1;
}

Registry::Handle Registry::fixed_histogram(const std::string& name, double lo,
                                           double hi, std::size_t bins) {
  const std::size_t i = find_named(hists_, name);
  if (i < hists_.size()) {
    DQCSIM_EXPECTS(hists_[i].hist.same_config(Histogram::fixed(lo, hi, bins)));
    return i;
  }
  hists_.push_back(NamedHist{name, Histogram::fixed(lo, hi, bins)});
  return hists_.size() - 1;
}

Registry::Handle Registry::log_histogram(const std::string& name) {
  const std::size_t i = find_named(hists_, name);
  if (i < hists_.size()) {
    DQCSIM_EXPECTS(hists_[i].hist.same_config(Histogram::logarithmic()));
    return i;
  }
  hists_.push_back(NamedHist{name, Histogram::logarithmic()});
  return hists_.size() - 1;
}

std::uint64_t Registry::counter_value(const std::string& name) const noexcept {
  const std::size_t i = find_named(counters_, name);
  return i < counters_.size() ? counters_[i].value : 0;
}

double Registry::gauge_value(const std::string& name) const noexcept {
  const std::size_t i = find_named(gauges_, name);
  return i < gauges_.size() ? gauges_[i].value : 0.0;
}

const Histogram* Registry::histogram(const std::string& name) const noexcept {
  const std::size_t i = find_named(hists_, name);
  return i < hists_.size() ? &hists_[i].hist : nullptr;
}

void Registry::merge(const Registry& other) {
  for (const auto& c : other.counters_) {
    counters_[counter(c.name)].value += c.value;
  }
  for (const auto& g : other.gauges_) {
    if (g.seen) gauge_max(gauge(g.name), g.value);
  }
  for (const auto& h : other.hists_) {
    const std::size_t i = find_named(hists_, h.name);
    if (i < hists_.size()) {
      hists_[i].hist.merge(h.hist);
    } else {
      hists_.push_back(h);
    }
  }
}

void Registry::reset_values() noexcept {
  for (auto& c : counters_) c.value = 0;
  for (auto& g : gauges_) {
    g.value = 0.0;
    g.seen = false;
  }
  for (auto& h : hists_) h.hist.reset_values();
}

JsonValue Registry::to_json() const {
  auto sorted_names = [](const auto& items) {
    std::vector<std::string> names;
    names.reserve(items.size());
    for (const auto& item : items) names.push_back(item.name);
    std::sort(names.begin(), names.end());
    return names;
  };

  JsonValue counters = JsonValue::object();
  for (const auto& name : sorted_names(counters_)) {
    counters.set(name, JsonValue(static_cast<std::int64_t>(
                           counters_[find_named(counters_, name)].value)));
  }
  JsonValue gauges = JsonValue::object();
  for (const auto& name : sorted_names(gauges_)) {
    gauges.set(name, JsonValue(gauges_[find_named(gauges_, name)].value));
  }
  JsonValue hists = JsonValue::object();
  for (const auto& name : sorted_names(hists_)) {
    const Histogram& h = hists_[find_named(hists_, name)].hist;
    JsonValue entry = JsonValue::object();
    entry.set("count", JsonValue(static_cast<std::int64_t>(h.count())));
    entry.set("min", JsonValue(h.min()));
    entry.set("max", JsonValue(h.max()));
    entry.set("p50", JsonValue(h.quantile(0.50)));
    entry.set("p90", JsonValue(h.quantile(0.90)));
    entry.set("p99", JsonValue(h.quantile(0.99)));
    hists.set(name, std::move(entry));
  }

  JsonValue doc = JsonValue::object();
  doc.set("counters", std::move(counters));
  doc.set("gauges", std::move(gauges));
  doc.set("histograms", std::move(hists));
  return doc;
}

}  // namespace dqcsim::obs
