// src/perf/ unit tests: the minimal JSON parser, the canonical artifact
// round-trip (to_json -> parse_json -> from_json), phase timing, and the
// process probes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "perf/artifact.hpp"
#include "perf/json.hpp"
#include "perf/probe.hpp"

namespace volcal::perf {
namespace {

// --- JSON parser -------------------------------------------------------------

TEST(Json, ParsesScalarsArraysObjects) {
  std::string err;
  const JsonValue doc = parse_json(
      R"({"a": 1.5, "b": "x\ny", "c": [true, false, null], "d": {"e": -3}})", &err);
  ASSERT_TRUE(doc.is_object()) << err;
  EXPECT_DOUBLE_EQ(doc.number_at("a", 0.0), 1.5);
  EXPECT_EQ(doc.string_at("b", ""), "x\ny");
  const JsonValue* c = doc.find("c");
  ASSERT_NE(c, nullptr);
  ASSERT_EQ(c->items().size(), 3u);
  EXPECT_TRUE(c->items()[0].as_bool(false));
  EXPECT_FALSE(c->items()[1].as_bool(true));
  EXPECT_TRUE(c->items()[2].is_null());
  const JsonValue* d = doc.find("d");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->int_at("e", 0), -3);
}

TEST(Json, RejectsMalformedInput) {
  // The parser signals failure with a Null document plus an error string.
  for (const char* bad : {"{\"a\": }", "[1, 2", "", "{\"a\": 1} trailing"}) {
    std::string err;
    EXPECT_TRUE(parse_json(bad, &err).is_null()) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
}

TEST(Json, ParsesScientificNotationAndEscapes) {
  std::string err;
  const JsonValue doc = parse_json(R"({"x": 1e-3, "y": 2.5E2, "s": "\"\\\/\tA"})", &err);
  ASSERT_TRUE(doc.is_object()) << err;
  EXPECT_DOUBLE_EQ(doc.number_at("x", 0.0), 1e-3);
  EXPECT_DOUBLE_EQ(doc.number_at("y", 0.0), 250.0);
  EXPECT_EQ(doc.string_at("s", ""), "\"\\/\tA");
}

// --- artifact round-trip ------------------------------------------------------

BenchArtifact sample_artifact() {
  BenchArtifact a;
  a.kind = "bench-family";
  a.tool = "volcal_bench";
  a.family = "leaf-coloring";
  a.title = "LeafColoring (Def. 3.4)";
  a.theta = "D-VOL Th(n)";
  a.algorithm = "nearest-leaf BFS";
  a.env = current_env(4);
  ArtifactCurve c;
  c.name = "volume";
  c.claim = "Θ(n)";
  c.points = {{256, 511, 0.001}, {512, 1023, 0.002}, {1024, 2047, 0.004}};
  c.refit();
  a.curves.push_back(c);
  a.phases = {{"generate", 0.5}, {"sweep", 1.25}};
  a.alloc = {100, 90, 4096, 2048};
  a.alloc_instrumented = true;
  a.rss_high_water_kb = 12345;
  a.total_wall_seconds = 2.0;
  return a;
}

TEST(Json, EscapesControlCharacters) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape("a\tb"), "a\\tb");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(json_escape("Θ(log n)"), "Θ(log n)");  // UTF-8 untouched
}

TEST(Artifact, JsonRoundTripPreservesEverything) {
  const BenchArtifact a = sample_artifact();
  std::string err;
  const JsonValue doc = parse_json(a.to_json(), &err);
  ASSERT_TRUE(doc.is_object()) << err;
  auto back = BenchArtifact::from_json(doc, &err);
  ASSERT_TRUE(back.has_value()) << err;

  EXPECT_EQ(back->schema_version, kArtifactSchemaVersion);
  EXPECT_EQ(back->kind, a.kind);
  EXPECT_EQ(back->tool, a.tool);
  EXPECT_EQ(back->family, a.family);
  EXPECT_EQ(back->title, a.title);
  EXPECT_EQ(back->theta, a.theta);
  EXPECT_EQ(back->algorithm, a.algorithm);
  EXPECT_EQ(back->env.git_sha, a.env.git_sha);
  EXPECT_EQ(back->env.compiler, a.env.compiler);
  EXPECT_EQ(back->env.threads, 4);
  ASSERT_EQ(back->curves.size(), 1u);
  const ArtifactCurve& bc = back->curves[0];
  EXPECT_EQ(bc.name, "volume");
  EXPECT_EQ(bc.claim, "Θ(n)");
  EXPECT_EQ(bc.fitted, a.curves[0].fitted);
  // %.17g round-trips doubles exactly.
  EXPECT_EQ(bc.exponent, a.curves[0].exponent);
  EXPECT_EQ(bc.r_squared, a.curves[0].r_squared);
  ASSERT_EQ(bc.points.size(), 3u);
  EXPECT_EQ(bc.points[0].n, 256.0);
  EXPECT_EQ(bc.points[2].cost, 2047.0);
  ASSERT_EQ(back->phases.size(), 2u);
  EXPECT_EQ(back->phases[1].name, "sweep");
  EXPECT_EQ(back->alloc, a.alloc);
  EXPECT_TRUE(back->alloc_instrumented);
  EXPECT_EQ(back->rss_high_water_kb, 12345);
  EXPECT_DOUBLE_EQ(back->total_wall_seconds, 2.0);
}

TEST(Artifact, FromJsonRejectsWrongSchemaAndMissingKeys) {
  std::string err;
  const JsonValue wrong = parse_json(R"({"schema_version": 999, "kind": "bench-report"})", &err);
  ASSERT_TRUE(wrong.is_object());
  EXPECT_FALSE(BenchArtifact::from_json(wrong, &err).has_value());

  const JsonValue missing = parse_json(R"({"kind": "bench-report"})", &err);
  ASSERT_TRUE(missing.is_object());
  EXPECT_FALSE(BenchArtifact::from_json(missing, &err).has_value());

  // Readers accept exactly the current schema: a v1 document is rejected.
  const JsonValue v1 = parse_json(
      R"({"schema_version": 1, "kind": "bench-report", "tool": "t", "curves": []})", &err);
  ASSERT_TRUE(v1.is_object());
  EXPECT_FALSE(BenchArtifact::from_json(v1, &err).has_value());
  EXPECT_NE(err.find("unsupported schema_version 1"), std::string::npos) << err;
}

TEST(Artifact, FileRoundTrip) {
  const BenchArtifact a = sample_artifact();
  const std::string path = testing::TempDir() + "/volcal_perf_test_artifact.json";
  ASSERT_TRUE(a.write_file(path));
  std::string err;
  auto back = BenchArtifact::load(path, &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->family, "leaf-coloring");
  std::remove(path.c_str());
  // A full disk fails the write; it must not pass for a written artifact.
  EXPECT_FALSE(a.write_file("/dev/full"));
}

TEST(Artifact, RefitMatchesCurveShape) {
  ArtifactCurve linear;
  linear.points = {{256, 256, 0}, {512, 512, 0}, {1024, 1024, 0}, {2048, 2048, 0}};
  linear.refit();
  EXPECT_NEAR(linear.exponent, 1.0, 0.05);
  EXPECT_GT(linear.r_squared, 0.999);

  ArtifactCurve tiny;
  tiny.points = {{256, 1, 0}, {512, 2, 0}};
  tiny.refit();
  EXPECT_EQ(tiny.fitted, "(n/a)");
}

// --- probes ------------------------------------------------------------------

TEST(Probe, PhaseTimerAccumulatesInFirstSeenOrder) {
  PhaseTimer t;
  t.add("generate", 1.0);
  t.add("sweep", 2.0);
  t.add("generate", 0.5);
  ASSERT_EQ(t.phases().size(), 2u);
  EXPECT_EQ(t.phases()[0].name, "generate");
  EXPECT_DOUBLE_EQ(t.phases()[0].wall_seconds, 1.5);
  EXPECT_DOUBLE_EQ(t.total_seconds(), 3.5);
}

TEST(Probe, PhaseScopeRecordsElapsedTime) {
  PhaseTimer t;
  {
    auto s = t.scope("work");
    volatile double sink = 0;
    for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(static_cast<double>(i));
  }
  ASSERT_EQ(t.phases().size(), 1u);
  EXPECT_GT(t.phases()[0].wall_seconds, 0.0);
}

TEST(Probe, RssHighWaterIsPositiveOnLinux) {
#ifdef __linux__
  EXPECT_GT(rss_high_water_kb(), 0);
#endif
}

TEST(Probe, AllocSnapshotIsMonotone) {
  const AllocStats before = alloc_snapshot();
  const AllocStats after = alloc_snapshot();
  EXPECT_GE(after.allocs, before.allocs);
  EXPECT_GE(after.bytes, before.bytes);
  // Tests do not link volcal_alloc_hook: counters must sit at zero and the
  // artifact must say "not instrumented" rather than claim zero allocations.
  EXPECT_FALSE(alloc_hook_active());
  EXPECT_EQ(before.allocs, 0u);
}

TEST(Probe, AllocDeltaKeepsLaterPeak) {
  const AllocStats a{100, 90, 1000, 700};
  const AllocStats b{40, 30, 400, 500};
  const AllocStats d = a - b;
  EXPECT_EQ(d.allocs, 60u);
  EXPECT_EQ(d.frees, 60u);
  EXPECT_EQ(d.bytes, 600u);
  EXPECT_EQ(d.peak_bytes, 700u);
}

TEST(Probe, EnvFingerprintIsPopulated) {
  const EnvFingerprint env = current_env(3);
  EXPECT_FALSE(env.compiler.empty());
  EXPECT_FALSE(env.os.empty());
  EXPECT_FALSE(env.build_type.empty());
  EXPECT_EQ(env.threads, 3);
}

}  // namespace
}  // namespace volcal::perf
