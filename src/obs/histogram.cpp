#include "obs/histogram.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace volcal::obs {

void Histogram::merge(const Histogram& other) {
  if (other.count == 0) return;
  for (std::size_t b = 0; b < kBuckets; ++b) buckets[b] += other.buckets[b];
  min = count == 0 ? other.min : std::min(min, other.min);
  max = count == 0 ? other.max : std::max(max, other.max);
  count += other.count;
  sum = wrapping_add(sum, other.sum);
}

std::int64_t Histogram::quantile(double q) const {
  if (count <= 0) return 0;
  const auto rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(count))));
  std::int64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets[b];
    if (seen >= rank) {
      const std::int64_t lo = bucket_lo(b);
      return std::clamp(lo + (bucket_hi(b) - lo) / 2, min, max);
    }
  }
  return max;
}

void Histogram::append_json(std::string& out, std::string_view leading) const {
  char buf[128];
  out += '{';
  out += leading;
  std::snprintf(buf, sizeof buf,
                "\"count\": %" PRId64 ", \"min\": %" PRId64 ", \"max\": %" PRId64
                ", \"sum\": %" PRId64 ", \"buckets\": {",
                count, min, max, sum);
  out += buf;
  bool first = true;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (buckets[b] == 0) continue;
    std::snprintf(buf, sizeof buf, "%s\"%" PRId64 "-%" PRId64 "\": %" PRId64,
                  first ? "" : ", ", bucket_lo(b), bucket_hi(b), buckets[b]);
    out += buf;
    first = false;
  }
  out += "}}";
}

WindowedHistogram::WindowedHistogram(double window_seconds) {
  if (!std::isfinite(window_seconds) || window_seconds <= 0.0) {
    throw std::invalid_argument("stats window must be a finite number of seconds > 0");
  }
  slot_ns_ = static_cast<std::int64_t>(
      std::clamp(window_seconds * 1e9 / kSlots, 1.0, 1e18));
}

void WindowedHistogram::add(std::int64_t now_ns, std::int64_t v) {
  const std::int64_t tick = std::max<std::int64_t>(now_ns, 0) / slot_ns_;
  const auto i = static_cast<std::size_t>(tick % kSlots);
  std::lock_guard lock(mu_);
  if (tick < tick_[i]) {
    retired_.add(v);
    return;
  }
  if (tick > tick_[i]) {
    retired_.merge(slots_[i]);
    slots_[i] = Histogram{};
    tick_[i] = tick;
  }
  slots_[i].add(v);
}

WindowedHistogram::Views WindowedHistogram::read(std::int64_t now_ns) const {
  const std::int64_t tick = now_ns / slot_ns_;
  Views out;
  std::lock_guard lock(mu_);
  out.since_start = retired_;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    out.since_start.merge(slots_[i]);
    if (tick_[i] > tick - kSlots) out.window.merge(slots_[i]);
  }
  return out;
}

}  // namespace volcal::obs
