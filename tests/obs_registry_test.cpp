// MetricsRegistry (src/obs/registry.hpp): the named-metrics layer under the
// serving stack's Stats snapshots.
//
// The load-bearing property is shard-merge determinism: Counter and
// ShardedHistogram spread bumps over per-thread atomic shards so the query hot path never
// contends on a shared cache line, and every shard field is an
// order-independent reduction (sum, min, max).  A snapshot taken after N adds
// must therefore read the same totals whether the adds came from 1 thread or
// 8 — otherwise two Stats polls of an idle server could disagree, and the
// final --stats-log line could never reconcile with the run artifact.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.hpp"

namespace volcal::obs {
namespace {

// Deterministic value multiset shared by the 1-thread and 8-thread runs:
// values across many buckets, including the v <= 0 edge bucket.
std::vector<std::int64_t> sample_values() {
  std::vector<std::int64_t> values;
  for (std::int64_t i = 0; i < 4096; ++i) {
    values.push_back((i * 2654435761u) % 100000 - 50);
  }
  return values;
}

TEST(Counter, ShardedIncrementsSumExactlyAcrossThreads) {
  const int kThreads = 8;
  const std::int64_t kPerThread = 10000;

  Counter serial;
  for (std::int64_t i = 0; i < kThreads * kPerThread; ++i) serial.inc();

  Counter sharded;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::int64_t i = 0; i < kPerThread; ++i) sharded.inc();
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(serial.value(), kThreads * kPerThread);
  EXPECT_EQ(sharded.value(), serial.value());
}

TEST(Counter, DeltaIncrementsAndNegativeDeltasSum) {
  Counter c;
  c.inc(5);
  c.inc(-2);
  c.inc(0);
  EXPECT_EQ(c.value(), 3);
}

// The determinism pin: the same value multiset added from 1 thread and from
// 8 threads must produce snapshot-equal histograms — buckets, count, sum,
// min, and max all identical — and both equal a plain obs::Histogram fed
// the same values (the snapshot is the one histogram type, not a look-alike).
TEST(ShardedHistogram, ShardMergeIsDeterministicOneThreadVsEight) {
  const std::vector<std::int64_t> values = sample_values();

  ShardedHistogram one;
  for (const std::int64_t v : values) one.add(v);

  ShardedHistogram eight;
  const int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Strided partition: each thread adds a different subset, the union is
      // the full multiset.
      for (std::size_t i = static_cast<std::size_t>(t); i < values.size();
           i += kThreads) {
        eight.add(values[i]);
      }
    });
  }
  for (auto& th : threads) th.join();

  const Histogram a = one.snapshot();
  const Histogram b = eight.snapshot();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.count, static_cast<std::int64_t>(values.size()));
  Histogram plain;
  for (const std::int64_t v : values) plain.add(v);
  EXPECT_EQ(a, plain);

  std::int64_t expected_sum = 0, expected_min = INT64_MAX, expected_max = INT64_MIN;
  for (const std::int64_t v : values) {
    expected_sum += v;
    expected_min = std::min(expected_min, v);
    expected_max = std::max(expected_max, v);
  }
  EXPECT_EQ(a.sum, expected_sum);
  EXPECT_EQ(a.min, expected_min);
  EXPECT_EQ(a.max, expected_max);
}

TEST(ShardedHistogram, EmptySnapshotIsZeroed) {
  ShardedHistogram h;
  EXPECT_EQ(h.snapshot(), Histogram{});
}

// A snapshot taken while writers run still has buckets summing to count and
// min <= max: the bucket bump is published last (release), read first
// (acquire).
TEST(ShardedHistogram, LiveSnapshotsAreSelfConsistent) {
  ShardedHistogram h;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      for (std::int64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        h.add((i * 7919 + t) % 5'000'000);
      }
    });
  }
  for (int poll = 0; poll < 200; ++poll) {
    const Histogram s = h.snapshot();
    std::int64_t in_buckets = 0;
    for (const std::int64_t c : s.buckets) in_buckets += c;
    ASSERT_EQ(in_buckets, s.count);
    if (s.count > 0) {
      ASSERT_LE(s.min, s.max);
    }
  }
  stop = true;
  for (auto& th : writers) th.join();
}

TEST(MetricsRegistry, RegistrationIsIdempotentByName) {
  MetricsRegistry reg;
  Counter* c1 = reg.counter("serve.accepted");
  Counter* c2 = reg.counter("serve.accepted");
  EXPECT_EQ(c1, c2);
  Gauge* g1 = reg.gauge("serve.depth");
  Gauge* g2 = reg.gauge("serve.depth");
  EXPECT_EQ(g1, g2);
  ShardedHistogram* h1 = reg.histogram("serve.volume.ball-4");
  ShardedHistogram* h2 = reg.histogram("serve.volume.ball-4");
  EXPECT_EQ(h1, h2);
}

TEST(MetricsRegistry, SnapshotIteratesInNameOrderAndRendersDeterministicJson) {
  MetricsRegistry reg;
  // Register out of order; snapshots must come back sorted by name.
  reg.counter("zeta")->inc(3);
  reg.counter("alpha")->inc(1);
  reg.gauge("mid")->set(7);
  reg.histogram("hist")->add(5);

  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "alpha");
  EXPECT_EQ(snap.counters[1].first, "zeta");
  EXPECT_EQ(snap.counter("alpha"), 1);
  EXPECT_EQ(snap.counter("zeta"), 3);
  EXPECT_EQ(snap.counter("missing", -1), -1);
  EXPECT_EQ(snap.gauge("mid"), 7);

  // Two snapshots of unchanged state render byte-identical JSON.
  EXPECT_EQ(reg.snapshot().to_json(), snap.to_json());
  // And the JSON carries the expected shape markers.
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha\": 1"), std::string::npos);
}

TEST(MetricsRegistry, GaugeFnIsEvaluatedAtSnapshotTimeAndWinsOverOwnedGauge) {
  MetricsRegistry reg;
  std::int64_t live = 10;
  reg.gauge_fn("depth", [&] { return live; });
  EXPECT_EQ(reg.snapshot().gauge("depth"), 10);
  live = 42;  // no re-registration — the callback reads the live value
  EXPECT_EQ(reg.snapshot().gauge("depth"), 42);

  // A callback registered under an owned gauge's name shadows it (the
  // transport re-points serve.connections at stop() this way).
  reg.gauge("shadow")->set(1);
  reg.gauge_fn("shadow", [] { return std::int64_t{99}; });
  EXPECT_EQ(reg.snapshot().gauge("shadow"), 99);
  // Re-registering replaces the callback.
  reg.gauge_fn("shadow", [] { return std::int64_t{0}; });
  EXPECT_EQ(reg.snapshot().gauge("shadow"), 0);
}

TEST(MetricsRegistry, ConcurrentRegistrationAndBumpingIsSafe) {
  MetricsRegistry reg;
  const int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      // Every thread registers the same names and bumps through the handle it
      // got back — idempotent registration must hand all of them the same
      // metric.
      Counter* c = reg.counter("shared.counter");
      ShardedHistogram* h = reg.histogram("shared.hist");
      for (int i = 0; i < 1000; ++i) {
        c->inc();
        h->add(i);
      }
    });
  }
  for (auto& th : threads) th.join();
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("shared.counter"), kThreads * 1000);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, kThreads * 1000);
  EXPECT_EQ(snap.histograms[0].second.min, 0);
  EXPECT_EQ(snap.histograms[0].second.max, 999);
}

}  // namespace
}  // namespace volcal::obs
