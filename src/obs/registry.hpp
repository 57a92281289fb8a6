// MetricsRegistry — lock-cheap named metrics for long-running processes.
//
// SweepMetrics (obs/metrics.hpp) aggregates *after* a sweep finishes; the
// serving regime needs counters that are cheap enough to bump on the query
// hot path and readable at any moment from another thread.  This header
// provides the three primitives and the registry that names them:
//
//   Counter    monotone int64, per-thread atomic shards summed on read — a
//              bump is one relaxed fetch_add on a shard the incrementing
//              thread (almost always) owns alone, so worker threads never
//              contend on a shared cache line.
//   Gauge      single atomic level (set/add), e.g. a connection count;
//              also registrable as a callback (gauge_fn) evaluated at
//              snapshot time for values owned elsewhere.
//   ShardedHistogram  an obs::Histogram (obs/histogram.hpp) sharded like
//              Counter — 16 atomic copies, ~124 KB in all — and merged on
//              read into one obs::Histogram.
//
// Shard-merge determinism: every shard field is an order-independent
// reduction (sum, min, max), so a snapshot taken after N adds reads the
// same totals whether the adds came from 1 thread or 8 — asserted by
// tests/obs_registry_test.cpp.
//
// Snapshots are deterministic: metrics iterate in name order (std::map), so
// two snapshots of the same state render byte-identical JSON.  Registration
// (counter()/gauge()/histogram()) takes the registry mutex and is idempotent
// by name — callers register once and keep the stable handle; handles live
// as long as the registry.  There is no process-wide instance: each owner
// (one QueryService, one test) holds its own MetricsRegistry.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"

namespace volcal::obs {

namespace detail {

// Stable small index for the calling thread, handed out round-robin so the
// first kShards threads get exclusive shards and later ones wrap.
unsigned thread_shard_slot();

inline constexpr std::size_t kMetricShards = 16;

// Relaxed CAS min/max — shard collisions are rare (two threads sharing a
// slot), so the loop almost never retries.
inline void atomic_min(std::atomic<std::int64_t>& a, std::int64_t v) {
  std::int64_t cur = a.load(std::memory_order_relaxed);
  while (v < cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

inline void atomic_max(std::atomic<std::int64_t>& a, std::int64_t v) {
  std::int64_t cur = a.load(std::memory_order_relaxed);
  while (v > cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace detail

class Counter {
 public:
  Counter() : slots_(std::make_unique<Slot[]>(detail::kMetricShards)) {}

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::int64_t delta = 1) {
    slots_[detail::thread_shard_slot() % detail::kMetricShards].v.fetch_add(
        delta, std::memory_order_relaxed);
  }

  std::int64_t value() const {
    std::int64_t total = 0;
    for (std::size_t s = 0; s < detail::kMetricShards; ++s) {
      total += slots_[s].v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::int64_t> v{0};
  };
  std::unique_ptr<Slot[]> slots_;
};

class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

class ShardedHistogram {
 public:
  ShardedHistogram() : slots_(std::make_unique<Slot[]>(detail::kMetricShards)) {}

  ShardedHistogram(const ShardedHistogram&) = delete;
  ShardedHistogram& operator=(const ShardedHistogram&) = delete;

  // The bucket bump goes last, with release order: a snapshot that sees a
  // bucket count (acquire) also sees the min/max/sum of the values behind
  // it, so a live snapshot always has buckets summing to count and, once
  // non-empty, min <= max.
  void add(std::int64_t v) {
    Slot& slot = slots_[detail::thread_shard_slot() % detail::kMetricShards];
    detail::atomic_min(slot.min, v);
    detail::atomic_max(slot.max, v);
    slot.sum.fetch_add(v, std::memory_order_relaxed);
    slot.buckets[Histogram::bucket_of(v)].fetch_add(1, std::memory_order_release);
  }

  Histogram snapshot() const;

  // Heap bytes behind one histogram — a compile-time constant.
  static constexpr std::size_t footprint_bytes();

 private:
  struct alignas(64) Slot {
    std::array<std::atomic<std::int64_t>, Histogram::kBuckets> buckets{};
    std::atomic<std::int64_t> sum{0};
    std::atomic<std::int64_t> min{INT64_MAX};
    std::atomic<std::int64_t> max{INT64_MIN};
  };
  std::unique_ptr<Slot[]> slots_;
};

constexpr std::size_t ShardedHistogram::footprint_bytes() {
  return detail::kMetricShards * sizeof(Slot);
}

// One deterministic read of a whole registry (metrics in name order, gauge
// callbacks evaluated at snapshot time).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::int64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, Histogram>> histograms;

  std::int64_t counter(const std::string& name, std::int64_t fallback = 0) const;
  std::int64_t gauge(const std::string& name, std::int64_t fallback = 0) const;

  // {"counters": {...}, "gauges": {...}, "histograms": {"name": <the
  // Histogram::append_json object>, ...}}.
  std::string to_json() const;
  void append_json(std::string& out) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Idempotent by name: the first call creates, later calls return the same
  // handle.  Handles stay valid for the registry's lifetime.
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  ShardedHistogram* histogram(const std::string& name);

  // Callback gauge for a value owned elsewhere (the transport's connection
  // count); evaluated under the registry mutex at snapshot time, so keep it
  // O(1) and never have it call back into this registry.  Re-registering a
  // name replaces the callback.
  void gauge_fn(const std::string& name, std::function<std::int64_t()> fn);

  MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<ShardedHistogram>> histograms_;
  std::map<std::string, std::function<std::int64_t()>> gauge_fns_;
};

}  // namespace volcal::obs
