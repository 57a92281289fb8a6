// Observability layer: trace sinks, replay oracle, sweep metrics, exporters.
//
// The load-bearing claims tested here:
//  * recording is invisible — a traced sweep produces bit-identical outputs
//    and costs to the untraced one;
//  * traces are deterministic at any thread count (disjoint preassigned
//    slots, same argument as the runner's output slots);
//  * a recorded trace replays bit-identically against a fresh Execution,
//    including budget truncation — and a tampered trace is rejected;
//  * SweepMetrics totals equal the engine's SweepStats, and histograms fold
//    the per-start slot vectors exactly;
//  * the one histogram type keeps its contract: log-linear buckets tiling
//    int64, nearest-rank quantiles within 1/32 of an exact sort, exact
//    count/sum/min/max, order-independent merge, and a window that never
//    holds a value since-start lacks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "labels/generators.hpp"
#include "lcl/registry.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/replay.hpp"
#include "obs/trace.hpp"
#include "perf/json.hpp"
#include "runtime/parallel_runner.hpp"

namespace volcal {
namespace {

std::vector<NodeIndex> every_node(NodeIndex n) {
  std::vector<NodeIndex> starts(static_cast<std::size_t>(n));
  for (NodeIndex v = 0; v < n; ++v) starts[static_cast<std::size_t>(v)] = v;
  return starts;
}

// --- recording is invisible -------------------------------------------------

TEST(Trace, TracedSweepMatchesUntracedBitForBit) {
  auto inst = make_complete_binary_tree(7, Color::Red, Color::Blue);
  const auto starts = every_node(inst.node_count());
  auto solver = [](auto& exec) {
    explore_ball(exec, 3);
    return exec.volume();
  };
  auto plain = ParallelRunner(1).run_at(inst.graph, inst.ids,
                                        std::span<const NodeIndex>(starts), solver);
  obs::TraceRecorder recorder;
  auto traced = obs::run_at_traced(ParallelRunner(1), inst.graph, inst.ids,
                                   std::span<const NodeIndex>(starts), solver, recorder);
  EXPECT_EQ(plain.output, traced.output);
  EXPECT_EQ(plain.volume, traced.volume);
  EXPECT_EQ(plain.distance, traced.distance);
  EXPECT_EQ(plain.queries, traced.queries);
  EXPECT_TRUE(same_costs(plain.stats, traced.stats));
}

TEST(Trace, DeterministicAcrossThreadCounts) {
  auto inst = make_complete_binary_tree(6, Color::Red, Color::Blue);
  const auto starts = every_node(inst.node_count());
  auto solver = [](auto& exec) {
    explore_ball(exec, 2);
    return 0;
  };
  obs::TraceRecorder serial, parallel;
  obs::run_at_traced(ParallelRunner(1), inst.graph, inst.ids,
                     std::span<const NodeIndex>(starts), solver, serial);
  obs::run_at_traced(ParallelRunner(8), inst.graph, inst.ids,
                     std::span<const NodeIndex>(starts), solver, parallel);
  ASSERT_EQ(serial.traces().size(), parallel.traces().size());
  EXPECT_EQ(serial.traces(), parallel.traces());
}

// --- replay oracle ----------------------------------------------------------

TEST(Replay, RoundTripsEveryRegistryEntry) {
  for (const RegistryEntry& entry : ProblemRegistry::global().entries()) {
    const ErasedInstance inst = entry.make(/*n_target=*/300, /*seed=*/17);
    const auto starts = every_node(inst.node_count());
    obs::TraceRecorder recorder;
    auto run = obs::run_at_traced(ParallelRunner(2), inst.graph(), inst.ids(),
                                  std::span<const NodeIndex>(starts),
                                  [&](auto& exec) { return inst.solve(exec); }, recorder);
    EXPECT_TRUE(inst.verify(run.output).ok) << entry.name;
    const obs::ReplayReport report =
        obs::replay_sweep(inst.graph(), inst.ids(), recorder.traces());
    EXPECT_TRUE(report.ok) << entry.name << ": " << report.error;
    EXPECT_EQ(report.probes, run.stats.total_queries) << entry.name;
  }
}

TEST(Replay, ReproducesBudgetTruncation) {
  auto inst = make_complete_binary_tree(6, Color::Red, Color::Blue);
  const auto starts = every_node(inst.node_count());
  const std::int64_t budget = 5;
  obs::TraceRecorder recorder;
  auto run = obs::run_at_traced(
      ParallelRunner(1), inst.graph, inst.ids, std::span<const NodeIndex>(starts),
      [](auto& exec) {
        explore_ball(exec, 10);  // wants the whole graph: blows the budget
        return 0;
      },
      recorder, budget);
  ASSERT_GT(run.stats.truncated, 0);
  bool saw_truncated = false;
  for (const auto& t : recorder.traces()) {
    if (t.truncated) {
      saw_truncated = true;
      EXPECT_NE(t.truncated_at_node, kNoNode);
      EXPECT_NE(t.truncated_at_port, kNoPort);
    }
  }
  ASSERT_TRUE(saw_truncated);
  const auto report = obs::replay_sweep(inst.graph, inst.ids, recorder.traces(), budget);
  EXPECT_TRUE(report.ok) << report.error;
}

TEST(Replay, RejectsTamperedTrace) {
  auto inst = make_complete_binary_tree(5, Color::Red, Color::Blue);
  obs::TraceRecorder recorder;
  const std::vector<NodeIndex> starts{0};
  obs::run_at_traced(
      ParallelRunner(1), inst.graph, inst.ids, std::span<const NodeIndex>(starts),
      [](auto& exec) {
        explore_ball(exec, 3);
        return 0;
      },
      recorder);
  ASSERT_FALSE(recorder.traces()[0].events.empty());

  obs::ExecutionTrace tampered = recorder.traces()[0];
  tampered.events[1].found_id += 1;
  EXPECT_FALSE(obs::replay_trace(inst.graph, inst.ids, tampered).ok);

  tampered = recorder.traces()[0];
  tampered.final_volume += 1;
  EXPECT_FALSE(obs::replay_trace(inst.graph, inst.ids, tampered).ok);

  tampered = recorder.traces()[0];
  tampered.events[0].volume += 1;
  EXPECT_FALSE(obs::replay_trace(inst.graph, inst.ids, tampered).ok);
}

// --- metrics ----------------------------------------------------------------

TEST(Metrics, TotalsEqualEngineSweepStats) {
  auto inst = make_complete_binary_tree(7, Color::Red, Color::Blue);
  const auto starts = every_node(inst.node_count());
  auto run = ParallelRunner(4).run_at(inst.graph, inst.ids,
                                      std::span<const NodeIndex>(starts),
                                      [](Execution& exec) {
                                        explore_ball(exec, 4);
                                        return 0;
                                      });
  obs::SweepMetrics metrics;
  metrics.observe(run);
  EXPECT_EQ(metrics.sweeps, 1);
  EXPECT_TRUE(same_costs(metrics.stats, run.stats));
  EXPECT_EQ(metrics.volume_hist.count, run.stats.starts);
  EXPECT_EQ(metrics.volume_hist.sum, run.stats.total_volume);
  EXPECT_EQ(metrics.volume_hist.max, run.stats.max_volume);
  EXPECT_EQ(metrics.distance_hist.max, run.stats.max_distance);
  EXPECT_EQ(metrics.queries_hist.sum, run.stats.total_queries);
  // A full disk fails the write; it must not pass for a written file.
  EXPECT_FALSE(metrics.write_file("/dev/full", "obs_test"));
}

// --- the histogram contract (obs/histogram.hpp) -----------------------------

// Exact nearest-rank quantile: the ceil(q * n)-th smallest value.
std::int64_t exact_quantile(std::vector<std::int64_t> values, double q) {
  std::sort(values.begin(), values.end());
  const auto rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(q * static_cast<double>(values.size()))));
  return values[static_cast<std::size_t>(rank - 1)];
}

obs::Histogram histogram_of(const std::vector<std::int64_t>& values) {
  obs::Histogram h;
  for (const std::int64_t v : values) h.add(v);
  return h;
}

static_assert(sizeof(obs::Histogram) == (obs::Histogram::kBuckets + 4) * sizeof(std::int64_t),
              "a histogram's size is a compile-time constant");

TEST(Histogram, BucketsTileTheInt64RangeLogLinearly) {
  using obs::Histogram;
  EXPECT_EQ(Histogram::bucket_of(-5), 0u);
  EXPECT_EQ(Histogram::bucket_lo(0), 0);
  EXPECT_EQ(Histogram::bucket_hi(Histogram::kBuckets - 1), INT64_MAX);
  EXPECT_EQ(Histogram::bucket_of(INT64_MAX), Histogram::kBuckets - 1);
  for (std::int64_t v = 0; v < 32; ++v) {
    EXPECT_EQ(Histogram::bucket_of(v), static_cast<std::size_t>(v)) << "exact below 32";
  }
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    const std::int64_t lo = Histogram::bucket_lo(b);
    const std::int64_t hi = Histogram::bucket_hi(b);
    ASSERT_EQ(Histogram::bucket_of(lo), b);
    ASSERT_EQ(Histogram::bucket_of(hi), b);
    if (b + 1 < Histogram::kBuckets) {
      ASSERT_EQ(Histogram::bucket_lo(b + 1), hi + 1);
    }
    // The error bound's premise: a bucket's width is at most 1/16 of its start.
    if (b >= 16) {
      ASSERT_LE(16 * (hi - lo + 1), lo) << "bucket " << b;
    }
  }
}

TEST(Histogram, QuantilesStayWithinOneThirtySecondOfExactNearestRank) {
  std::vector<std::pair<std::string, std::vector<std::int64_t>>> inputs;
  inputs.push_back({"all-equal", std::vector<std::int64_t>(1000, 777)});
  inputs.push_back({"single", {12345}});
  inputs.push_back({"zero-and-max", {0, INT64_MAX}});
  std::vector<std::int64_t> powers;
  for (int k = 0; k <= 62; ++k) {
    const std::int64_t p = std::int64_t{1} << k;
    powers.insert(powers.end(), {p - 1, p, p + 1});
  }
  inputs.push_back({"powers-of-two-and-neighbours", powers});
  std::vector<std::int64_t> bimodal(900, 1);
  bimodal.insert(bimodal.end(), 100, std::int64_t{1} << 40);
  inputs.push_back({"bimodal-1-vs-2^40", bimodal});
  std::vector<std::int64_t> geometric;
  for (int i = 0; i < 640; ++i) {
    geometric.push_back(static_cast<std::int64_t>(std::pow(1.065, i)));
  }
  inputs.push_back({"geometric", geometric});

  for (const auto& [name, values] : inputs) {
    SCOPED_TRACE(name);
    const obs::Histogram h = histogram_of(values);
    for (const double q : {0.0, 0.50, 0.95, 0.99, 1.0}) {
      const std::int64_t exact = exact_quantile(values, q);
      const std::int64_t got = h.quantile(q);
      EXPECT_LE(std::abs(static_cast<double>(got) - static_cast<double>(exact)),
                static_cast<double>(exact) / 32.0)
          << "q " << q << ": histogram " << got << " vs exact " << exact;
      if (exact < 32) {
        EXPECT_EQ(got, exact) << "q " << q;
      }
    }
  }
  EXPECT_EQ(obs::Histogram{}.quantile(0.99), 0) << "empty";
}

TEST(Histogram, CountSumMinMaxAndMeanAreExact) {
  const std::vector<std::int64_t> values = {3, 17, 1'000'000, 42, 0, 99'999'999'999, 17};
  const obs::Histogram h = histogram_of(values);
  EXPECT_EQ(h.count, 7);
  EXPECT_EQ(h.sum, 3 + 17 + 1'000'000 + 42 + 0 + 99'999'999'999 + 17);
  EXPECT_EQ(h.min, 0);
  EXPECT_EQ(h.max, 99'999'999'999);
  EXPECT_DOUBLE_EQ(h.mean(), static_cast<double>(h.sum) / 7.0);
  std::int64_t in_buckets = 0;
  for (const std::int64_t c : h.buckets) in_buckets += c;
  EXPECT_EQ(in_buckets, h.count);
  EXPECT_EQ(obs::Histogram{}.mean(), 0.0);
}

TEST(Histogram, MergeDoesNotDependOnOrder) {
  const std::vector<std::int64_t> a = {0, 1, 5, 100, 31, 32, 33};
  const std::vector<std::int64_t> b = {7, 2048, 1 << 20};
  const std::vector<std::int64_t> c = {INT64_MAX / 4, 64, 65, 66};
  const obs::Histogram ha = histogram_of(a), hb = histogram_of(b), hc = histogram_of(c);
  std::vector<std::int64_t> all = a;
  all.insert(all.end(), b.begin(), b.end());
  all.insert(all.end(), c.begin(), c.end());
  const obs::Histogram direct = histogram_of(all);
  const obs::Histogram* parts[] = {&ha, &hb, &hc};
  int order[] = {0, 1, 2};
  do {
    obs::Histogram merged;
    for (const int i : order) merged.merge(*parts[i]);
    EXPECT_EQ(merged, direct);
  } while (std::next_permutation(std::begin(order), std::end(order)));
  obs::Histogram with_empty = direct;
  with_empty.merge(obs::Histogram{});
  EXPECT_EQ(with_empty, direct);
}

TEST(Histogram, JsonListsNonzeroBucketsInAscendingRanges) {
  const obs::Histogram h = histogram_of({0, 1, 1, 40, 41, 1000, 1'000'000});
  std::string json;
  h.append_json(json, "\"p50_ns\": 1, ");
  std::string err;
  const perf::JsonValue doc = perf::parse_json(json, &err);
  ASSERT_FALSE(doc.is_null()) << err;
  EXPECT_EQ(doc.int_at("p50_ns"), 1);
  EXPECT_EQ(doc.int_at("count"), 7);
  EXPECT_EQ(doc.int_at("min"), 0);
  EXPECT_EQ(doc.int_at("max"), 1'000'000);
  const perf::JsonValue* buckets = doc.find("buckets");
  ASSERT_NE(buckets, nullptr);
  std::int64_t total = 0;
  std::int64_t prev_hi = -1;
  for (const auto& [key, count] : buckets->members()) {
    const std::size_t dash = key.find('-');
    ASSERT_NE(dash, std::string::npos) << key;
    const std::int64_t lo = std::stoll(key.substr(0, dash));
    const std::int64_t hi = std::stoll(key.substr(dash + 1));
    EXPECT_LE(lo, hi);
    EXPECT_GT(lo, prev_hi) << "keys must ascend without overlap";
    EXPECT_EQ(obs::Histogram::bucket_of(lo), obs::Histogram::bucket_of(hi));
    prev_hi = hi;
    total += count.as_int();
  }
  EXPECT_EQ(total, 7);
  EXPECT_EQ(buckets->members().size(), 5u);  // 40 and 41 share a bucket
}

TEST(WindowedHistogram, WindowSlidesAndStaysInsideSinceStart) {
  constexpr std::int64_t kMs = 1'000'000;
  obs::WindowedHistogram w(1.0);  // ten 100 ms slots
  w.add(0, 1);
  w.add(500 * kMs, 2);
  w.add(950 * kMs, 3);
  auto check = [&](std::int64_t now, std::int64_t since, std::int64_t window) {
    const obs::WindowedHistogram::Views v = w.read(now);
    EXPECT_EQ(v.since_start.count, since) << "at " << now / kMs << " ms";
    EXPECT_EQ(v.window.count, window) << "at " << now / kMs << " ms";
    for (std::size_t b = 0; b < obs::Histogram::kBuckets; ++b) {
      ASSERT_LE(v.window.buckets[b], v.since_start.buckets[b]);
    }
  };
  check(990 * kMs, 3, 3);
  check(1000 * kMs, 3, 2);  // the t = 0 slot left the window
  check(5000 * kMs, 3, 0);
  w.add(5000 * kMs, 4);     // reuses the t = 0 slot, retiring its value
  check(5000 * kMs, 4, 1);
  w.add(0, 5);              // older than its slot's tick (now 50): retired at once
  check(5000 * kMs, 5, 1);
  EXPECT_EQ(w.read(5000 * kMs).window.max, 4);
}

TEST(WindowedHistogram, RejectsNonPositiveAndNonFiniteWindows) {
  for (const double bad : {0.0, -1.0, std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    EXPECT_THROW(obs::WindowedHistogram{bad}, std::invalid_argument) << bad;
  }
  EXPECT_NO_THROW(obs::WindowedHistogram{1e-12});
  EXPECT_NO_THROW(obs::WindowedHistogram{1e300});
}

TEST(Metrics, MetricsDeterministicAcrossThreadCounts) {
  auto inst = make_complete_binary_tree(6, Color::Red, Color::Blue);
  const auto starts = every_node(inst.node_count());
  auto solver = [](Execution& exec) {
    explore_ball(exec, 3);
    return 0;
  };
  auto serial = ParallelRunner(1).run_at(inst.graph, inst.ids,
                                         std::span<const NodeIndex>(starts), solver);
  auto parallel = ParallelRunner(8).run_at(inst.graph, inst.ids,
                                           std::span<const NodeIndex>(starts), solver);
  obs::SweepMetrics m1, m8;
  m1.observe(serial);
  m8.observe(parallel);
  // Every deterministic field agrees (wall-clock fields are left unpopulated
  // because no profile was attached).
  EXPECT_TRUE(same_costs(m1.stats, m8.stats));
  EXPECT_EQ(m1.volume_hist, m8.volume_hist);
  EXPECT_EQ(m1.distance_hist, m8.distance_hist);
  EXPECT_EQ(m1.queries_hist, m8.queries_hist);
}

// --- exporters --------------------------------------------------------------

TEST(Exporters, JsonlAndChromeFilesHaveExpectedShape) {
  auto inst = make_complete_binary_tree(4, Color::Red, Color::Blue);
  const auto starts = every_node(inst.node_count());
  obs::TraceRecorder recorder;
  SweepProfile profile;
  obs::run_at_traced(
      ParallelRunner(1), inst.graph, inst.ids, std::span<const NodeIndex>(starts),
      [](auto& exec) {
        explore_ball(exec, 2);
        return 0;
      },
      recorder, /*budget=*/0, /*tape=*/nullptr, &profile);
  obs::SweepTrace sweep;
  sweep.label = "obs_test/sweep-0";
  sweep.n = inst.node_count();
  sweep.traces = recorder.traces();
  sweep.profile = profile;
  const std::vector<obs::SweepTrace> sweeps{sweep};

  const std::string jsonl = testing::TempDir() + "obs_test_trace.jsonl";
  const std::string chrome = testing::TempDir() + "obs_test_chrome.json";
  ASSERT_TRUE(obs::write_trace_jsonl(jsonl, sweeps));
  ASSERT_TRUE(obs::write_chrome_trace(chrome, sweeps));
  // A full disk fails the write; it must not pass for a written file.
  EXPECT_FALSE(obs::write_trace_jsonl("/dev/full", sweeps));
  EXPECT_FALSE(obs::write_chrome_trace("/dev/full", sweeps));

  std::ifstream jf(jsonl);
  std::string line;
  ASSERT_TRUE(std::getline(jf, line));
  EXPECT_NE(line.find("\"type\":\"sweep\""), std::string::npos);
  EXPECT_NE(line.find("\"label\":\"obs_test/sweep-0\""), std::string::npos);
  std::int64_t execs = 0, queries = 0;
  while (std::getline(jf, line)) {
    if (line.find("\"type\":\"exec\"") != std::string::npos) ++execs;
    if (line.find("\"type\":\"query\"") != std::string::npos) ++queries;
  }
  EXPECT_EQ(execs, inst.node_count());
  std::int64_t recorded = 0;
  for (const auto& t : recorder.traces()) {
    recorded += static_cast<std::int64_t>(t.events.size());
  }
  EXPECT_EQ(queries, recorded);

  std::ifstream cf(chrome);
  std::stringstream buf;
  buf << cf.rdbuf();
  const std::string doc = buf.str();
  EXPECT_EQ(doc.rfind("{\"traceEvents\":", 0), 0u);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"displayTimeUnit\""), std::string::npos);
  std::remove(jsonl.c_str());
  std::remove(chrome.c_str());
}

}  // namespace
}  // namespace volcal
