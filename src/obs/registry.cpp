#include "obs/registry.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "perf/json.hpp"

namespace volcal::obs {

namespace detail {

unsigned thread_shard_slot() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace detail

Histogram ShardedHistogram::snapshot() const {
  Histogram out;
  for (std::size_t s = 0; s < detail::kMetricShards; ++s) {
    const Slot& slot = slots_[s];
    std::int64_t n = 0;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      const std::int64_t c = slot.buckets[b].load(std::memory_order_acquire);
      out.buckets[b] += c;
      n += c;
    }
    if (n == 0) continue;
    const std::int64_t lo = slot.min.load(std::memory_order_relaxed);
    const std::int64_t hi = slot.max.load(std::memory_order_relaxed);
    out.min = out.count == 0 ? lo : std::min(out.min, lo);
    out.max = out.count == 0 ? hi : std::max(out.max, hi);
    out.sum = Histogram::wrapping_add(out.sum, slot.sum.load(std::memory_order_relaxed));
    out.count += n;
  }
  return out;
}

std::int64_t MetricsSnapshot::counter(const std::string& name,
                                      std::int64_t fallback) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return fallback;
}

std::int64_t MetricsSnapshot::gauge(const std::string& name,
                                    std::int64_t fallback) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return fallback;
}

namespace {

template <typename T>
void append_scalar_map(std::string& out, const char* key,
                       const std::vector<std::pair<std::string, T>>& entries) {
  out += '"';
  out += key;
  out += "\": {";
  bool first = true;
  char buf[32];
  for (const auto& [name, value] : entries) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += perf::json_escape(name);
    out += "\": ";
    std::snprintf(buf, sizeof buf, "%" PRId64, static_cast<std::int64_t>(value));
    out += buf;
  }
  out += '}';
}

}  // namespace

void MetricsSnapshot::append_json(std::string& out) const {
  out += '{';
  append_scalar_map(out, "counters", counters);
  out += ", ";
  append_scalar_map(out, "gauges", gauges);
  out += ", \"histograms\": {";
  bool first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += perf::json_escape(name);
    out += "\": ";
    h.append_json(out);
  }
  out += "}}";
}

std::string MetricsSnapshot::to_json() const {
  std::string out;
  append_json(out);
  return out;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

ShardedHistogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<ShardedHistogram>();
  return slot.get();
}

void MetricsRegistry::gauge_fn(const std::string& name,
                               std::function<std::int64_t()> fn) {
  std::lock_guard lock(mu_);
  gauge_fns_[name] = std::move(fn);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  std::lock_guard lock(mu_);
  out.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.counters.emplace_back(name, c->value());
  // Owned gauges and callback gauges share one namespace in the snapshot; a
  // callback re-registered under an owned gauge's name wins (callbacks read
  // live state, which is the point of registering one).
  std::map<std::string, std::int64_t> gauges;
  for (const auto& [name, g] : gauges_) gauges[name] = g->value();
  for (const auto& [name, fn] : gauge_fns_) gauges[name] = fn ? fn() : 0;
  out.gauges.assign(gauges.begin(), gauges.end());
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    out.histograms.emplace_back(name, h->snapshot());
  }
  return out;
}

}  // namespace volcal::obs
