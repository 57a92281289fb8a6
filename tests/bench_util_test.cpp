#include "bench_util.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "labels/generators.hpp"
#include "lcl/algorithms/leaf_coloring_algos.hpp"
#include "lcl/algorithms/local_view.hpp"

namespace volcal::bench {
namespace {

void expect_valid_sample(NodeIndex n, NodeIndex count) {
  const auto starts = sampled_starts(n, count);
  ASSERT_FALSE(starts.empty());
  EXPECT_LE(starts.size(), static_cast<std::size_t>(count));
  EXPECT_EQ(starts.front(), 0);
  if (count >= 2) {
    EXPECT_EQ(starts.back(), n - 1);
  }
  EXPECT_TRUE(std::is_sorted(starts.begin(), starts.end()));
  EXPECT_EQ(std::adjacent_find(starts.begin(), starts.end()), starts.end()) << "duplicates";
  for (const NodeIndex v : starts) EXPECT_LT(v, n);
}

TEST(SampledStarts, AtMostCountAndCoversBothEnds) {
  expect_valid_sample(100, 10);
  EXPECT_EQ(sampled_starts(100, 10).size(), 10u);
  expect_valid_sample(7, 3);
  expect_valid_sample(2, 2);
}

// Regression: the pre-fix implementation clamped count up with max(count, 2),
// so a request for "at most 1" start returned 2 — fuzz-found (corpus case
// sampled-starts-count1.repro); count == 1 now yields exactly the root.
TEST(SampledStarts, CountOneYieldsRootOnly) {
  EXPECT_EQ(sampled_starts(100, 1), std::vector<NodeIndex>{0});
  EXPECT_EQ(sampled_starts(1, 1), std::vector<NodeIndex>{0});
  expect_valid_sample(64, 1);
}

TEST(SampledStarts, SmallGraphsYieldEveryNode) {
  const auto starts = sampled_starts(5, 10);
  EXPECT_EQ(starts, (std::vector<NodeIndex>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sampled_starts(1, 10), std::vector<NodeIndex>{0});
  EXPECT_TRUE(sampled_starts(0, 10).empty());
  EXPECT_TRUE(sampled_starts(10, 0).empty());
}

// The pre-fix implementation used step = max(1, n/count) and overshot: for
// n=1000, count=24 it returned 42 starts and never sampled the last node.
TEST(SampledStarts, RegressionNoOvershoot) {
  const auto starts = sampled_starts(1000, 24);
  EXPECT_EQ(starts.size(), 24u);
  EXPECT_EQ(starts.back(), 999);
  expect_valid_sample(1 << 16, 24);
}

TEST(Measure, MatchesDirectSerialSweep) {
  auto inst = make_complete_binary_tree(7, Color::Red, Color::Blue);
  const auto starts = sampled_starts(inst.node_count(), 12);
  auto solve = [&](Execution& exec) {
    InstanceSource<ColoredTreeLabeling> src(inst, exec);
    leafcoloring_nearest_leaf(src);
  };
  const ::volcal::SweepStats cost = measure(inst.graph, inst.ids, starts, solve);
  ::volcal::SweepStats direct;
  for (const NodeIndex v : starts) {
    Execution exec(inst.graph, inst.ids, v);
    solve(exec);
    direct.max_volume = std::max(direct.max_volume, exec.volume());
    direct.max_distance = std::max(direct.max_distance, exec.distance());
    direct.total_queries += exec.query_count();
    ++direct.starts;
  }
  EXPECT_EQ(cost.max_volume, direct.max_volume);
  EXPECT_EQ(cost.max_distance, direct.max_distance);
  EXPECT_EQ(cost.total_queries, direct.total_queries);
  EXPECT_EQ(cost.starts, direct.starts);
  EXPECT_GE(cost.wall_seconds, 0.0);
}

TEST(Args, ParsesAllFlagsInBothForms) {
  const char* raw[] = {"bench",          "--json", "out.json",         "--trace=t.jsonl",
                       "--chrome-trace", "c.json", "--metrics=m.json", "--max-n=4096",
                       nullptr};
  int argc = 8;
  char* argv[9];
  for (int i = 0; i < argc; ++i) argv[i] = const_cast<char*>(raw[i]);
  argv[argc] = nullptr;
  const Args args = Args::parse(&argc, argv, "bench");
  EXPECT_STREQ(args.json, "out.json");
  EXPECT_STREQ(args.trace, "t.jsonl");
  EXPECT_STREQ(args.chrome_trace, "c.json");
  EXPECT_STREQ(args.metrics, "m.json");
  EXPECT_EQ(args.max_n, 4096);
  EXPECT_TRUE(args.observing());
  // Everything was ours: argv is compacted down to the program name.
  EXPECT_EQ(argc, 1);
  EXPECT_EQ(argv[1], nullptr);
  // parse() publishes the result for deep helpers.
  EXPECT_EQ(Args::current().max_n, 4096);
}

TEST(Args, LeavesForeignFlagsForTheBinary) {
  const char* raw[] = {"bench", "--benchmark_filter=BM_x", "--max-n", "100",
                       "positional", nullptr};
  int argc = 5;
  char* argv[6];
  for (int i = 0; i < argc; ++i) argv[i] = const_cast<char*>(raw[i]);
  argv[argc] = nullptr;
  const Args args = Args::parse(&argc, argv, "bench");
  EXPECT_EQ(args.max_n, 100);
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv[0], "bench");
  EXPECT_STREQ(argv[1], "--benchmark_filter=BM_x");
  EXPECT_STREQ(argv[2], "positional");
  EXPECT_EQ(argv[3], nullptr);
  EXPECT_FALSE(args.observing());

  // The by-value form, for mains that do not hand argv to google-benchmark,
  // names a leftover and exits 2 — so do the flags Args no longer has, and a
  // --max-n that is not a size.
  for (const char* leftover : {"--benchmark_filter=BM_x", "positional", "--backend=basic",
                               "--filter=x", "--threads=2", "--cache=shared"}) {
    char* rest[] = {const_cast<char*>("bench"), const_cast<char*>(leftover), nullptr};
    EXPECT_EXIT((void)Args::parse(2, rest, "bench"), ::testing::ExitedWithCode(2),
                std::string("bench: unknown argument '") + leftover + "'");
  }
  char* junk[] = {const_cast<char*>("bench"), const_cast<char*>("--max-n"),
                  const_cast<char*>("abc"), nullptr};
  EXPECT_EXIT((void)Args::parse(3, junk, "bench"), ::testing::ExitedWithCode(2),
              "bench: invalid --max-n 'abc'");
}

TEST(Args, KeepNGatesOnlyWhenMaxNSet) {
  Args args;
  EXPECT_TRUE(args.keep_n(1));
  EXPECT_TRUE(args.keep_n(1'000'000'000));  // no --max-n: keep everything
  args.max_n = 1000;
  EXPECT_TRUE(args.keep_n(1000));
  EXPECT_FALSE(args.keep_n(1001));
}

TEST(Args, MissingOperandIsNotConsumed) {
  const char* raw[] = {"bench", "--json", nullptr};  // --json with no value
  int argc = 2;
  char* argv[3];
  for (int i = 0; i < argc; ++i) argv[i] = const_cast<char*>(raw[i]);
  argv[argc] = nullptr;
  const Args args = Args::parse(&argc, argv, "bench");
  EXPECT_EQ(args.json, nullptr);
  // The dangling flag is left in argv rather than silently swallowed.
  EXPECT_EQ(argc, 2);
  EXPECT_STREQ(argv[1], "--json");
}

TEST(JsonReport, RendersCurvesWithFitAndWallTime) {
  Curve c;
  c.add(100, 10, 0.5);
  c.add(1000, 20, 1.5);
  c.add(10000, 30, 2.5);
  JsonReport report("bench_test");
  report.add("say \"hi\"", c);
  const std::string doc = report.render();
  EXPECT_NE(doc.find("\"tool\": \"bench_test\""), std::string::npos);
  EXPECT_NE(doc.find("\"say \\\"hi\\\"\""), std::string::npos);
  EXPECT_NE(doc.find("\"fitted\": \"" + c.fitted() + "\""), std::string::npos);
  EXPECT_NE(doc.find("{\"n\": 100, \"cost\": 10, \"wall_seconds\": 0.5}"), std::string::npos);
  EXPECT_NE(doc.find("\"wall_seconds\": 2.5"), std::string::npos);
}

// Regression for the mutable-singleton leak: parse() used to overwrite the
// process-wide Args with no way to restore it, so a test that parsed flags
// poisoned --max-n for everything after it.  install()/reset() make the
// lifecycle explicit.
TEST(Args, InstallAndResetScopeTheProcessWideArgs) {
  Args::reset();
  EXPECT_EQ(Args::current().max_n, 0);
  EXPECT_EQ(Args::current().json, nullptr);

  Args scoped;
  scoped.max_n = 777;
  scoped.json = "scoped.json";
  Args::install(scoped);
  EXPECT_EQ(Args::current().max_n, 777);
  EXPECT_STREQ(Args::current().json, "scoped.json");

  // parse() installs its result, replacing the previous Args wholesale.
  const char* raw[] = {"bench", "--max-n", "42", nullptr};
  int argc = 3;
  char* argv[4];
  for (int i = 0; i < argc; ++i) argv[i] = const_cast<char*>(raw[i]);
  argv[argc] = nullptr;
  (void)Args::parse(&argc, argv, "bench");
  EXPECT_EQ(Args::current().max_n, 42);
  EXPECT_EQ(Args::current().json, nullptr) << "stale --json leaked through parse()";

  Args::reset();
  EXPECT_EQ(Args::current().max_n, 0);
}

TEST(JsonReport, ReportsFittedExponentAndRSquared) {
  Curve c;  // exact power law cost = n^1: exponent 1, r^2 1
  c.add(256, 256);
  c.add(512, 512);
  c.add(1024, 1024);
  c.add(2048, 2048);
  const stats::GrowthFit fit = c.fit();
  EXPECT_NEAR(fit.exponent, 1.0, 0.05);
  EXPECT_GT(fit.r_squared, 0.999);

  JsonReport report("bench_test");
  report.add("linear", c, "Θ(n)");
  const std::string doc = report.render();
  EXPECT_NE(doc.find("\"claim\": \"Θ(n)\""), std::string::npos);
  EXPECT_NE(doc.find("\"exponent\": "), std::string::npos);
  EXPECT_NE(doc.find("\"r_squared\": "), std::string::npos);
  // The rendered values match the fit, not some re-derivation drift: parse
  // the artifact back and compare exactly.
  std::string err;
  const perf::JsonValue parsed = perf::parse_json(doc, &err);
  ASSERT_TRUE(parsed.is_object()) << err;
  auto art = perf::BenchArtifact::from_json(parsed, &err);
  ASSERT_TRUE(art.has_value()) << err;
  ASSERT_EQ(art->curves.size(), 1u);
  EXPECT_EQ(art->curves[0].exponent, fit.exponent);
  EXPECT_EQ(art->curves[0].r_squared, fit.r_squared);
  EXPECT_EQ(art->curves[0].fitted, fit.label);
}

TEST(JsonReport, BelowThreePointsFitIsNa) {
  Curve c;
  c.add(256, 1);
  c.add(512, 2);
  JsonReport report("bench_test");
  report.add("tiny", c);
  EXPECT_NE(report.render().find("\"fitted\": \"(n/a)\""), std::string::npos);
}

TEST(JsonReport, PhaseScopesLandInArtifact) {
  JsonReport report("bench_test");
  {
    auto p = report.phase("alpha");
  }
  {
    auto p = report.phase("beta");
  }
  {
    auto p = report.phase("alpha");  // re-entry accumulates, keeps order
  }
  const perf::BenchArtifact art = report.artifact();
  ASSERT_EQ(art.phases.size(), 2u);
  EXPECT_EQ(art.phases[0].name, "alpha");
  EXPECT_EQ(art.phases[1].name, "beta");
  EXPECT_EQ(art.kind, "bench-report");
  EXPECT_EQ(art.schema_version, perf::kArtifactSchemaVersion);
  EXPECT_FALSE(art.env.compiler.empty());
}

}  // namespace
}  // namespace volcal::bench
