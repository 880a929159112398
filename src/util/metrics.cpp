#include "util/metrics.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/json.hpp"

namespace hpcfail::util {

namespace {

std::atomic<MetricsRegistry*> g_metrics{nullptr};
std::atomic<std::uint64_t> g_metrics_generation{0};

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double v) noexcept {
  // First bucket whose upper edge admits v; past-the-end = +inf bucket.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  std::lock_guard lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>(std::move(bounds));
  } else {
    std::vector<double> normalized(std::move(bounds));
    std::sort(normalized.begin(), normalized.end());
    normalized.erase(std::unique(normalized.begin(), normalized.end()),
                     normalized.end());
    if (normalized != slot->bounds()) {
      throw std::logic_error("MetricsRegistry: histogram '" + name +
                             "' re-registered with different bucket bounds");
    }
  }
  return *slot;
}

std::vector<std::pair<std::string, std::uint64_t>> MetricsRegistry::counters() const {
  std::lock_guard lock(mutex_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  return out;
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard lock(mutex_);
  std::string out = "{\"schema\":\"hpcfail.metrics.v1\",\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    append_json_number(out, c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    append_json_number(out, g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ":{\"bounds\":[";
    for (std::size_t i = 0; i < h->bounds().size(); ++i) {
      if (i) out += ',';
      append_json_number(out, h->bounds()[i]);
    }
    out += "],\"counts\":[";
    const auto counts = h->counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i) out += ',';
      append_json_number(out, counts[i]);
    }
    out += "],\"count\":";
    append_json_number(out, h->count());
    out += ",\"sum\":";
    append_json_number(out, h->sum());
    out += '}';
  }
  out += "}}";
  return out;
}

void install_metrics(MetricsRegistry* registry) noexcept {
  g_metrics.store(registry, std::memory_order_release);
  g_metrics_generation.fetch_add(1, std::memory_order_release);
}

std::uint64_t metrics_generation() noexcept {
  return g_metrics_generation.load(std::memory_order_acquire);
}

MetricsRegistry* metrics() noexcept {
  return g_metrics.load(std::memory_order_acquire);
}

}  // namespace hpcfail::util
