// The canonical benchmark telemetry artifact — ONE versioned JSON schema for
// every perf number this repo produces, emitted by all bench binaries
// (--json), by the tools/volcal_bench orchestrator (one BENCH_<family>.json
// per registry family), and consumed by tools/volcal_bench_diff and the CI
// perf gate.
//
// Schema v2, one JSON object per artifact:
//
//   {
//     "schema_version": 2,
//     "kind": "bench-report" | "bench-family",
//     "tool": "...",                      // emitting binary
//     "family": "...", "title": "...",    // bench-family only: registry
//     "theta": "...", "algorithm": "...", //   metadata (Θ-claims included)
//     "env": {"git_sha", "compiler", "flags", "build_type", "os", "threads",
//             "backend"},                      // plan execution backend
//     "curves": [{"name", "claim", "fitted", "exponent", "r_squared",
//                 "points": [{"n", "cost", "wall_seconds"}, ...]}, ...],
//     "phases": [{"name", "wall_seconds"}, ...],
//     "cache": {"policy", "hits", "misses", "evictions",   // answer-memo
//               "served_nodes", "inserted_bytes"},         //   counters
//     "serve": {"accepted", "completed", "shed", "invalid", "swaps",
//               "latency_samples", "p50_ns", "p95_ns", "p99_ns", "mean_ns",
//               "max_ns", "qps", "wall_seconds",   // optional: query-service
//               "shed_latency_samples",            //   runs (volcal_serve /
//               "shed_p50_ns", "shed_p95_ns",      //   volcal_load) only;
//               "shed_p99_ns"},                    //   shed_* additive (0)
//     "mutate": {"updates", "applied", "rejected",    // optional: dynamic-
//                "cache_evicted", "cache_retained",   //   graph runs only
//                "flushes", "update_p50_ns",          //   (volcal_load
//                "update_p95_ns", "update_p99_ns",    //   --update-rate,
//                "apply_p50_ns"},                     //   churn ablation)
//     "alloc": {"instrumented", "allocs", "frees", "bytes", "peak_bytes"},
//     "rss_high_water_kb": N,
//     "total_wall_seconds": S
//   }
//
// Readers accept exactly schema v2; any layout change bumps the version.
//
// Determinism contract: "n", "cost", "fitted", "exponent", "r_squared" and
// the curve/point ordering are pure functions of the code (the sweep engine
// is bit-identical at any thread count), so the diff tool treats any drift
// in them as a hard regression.  Everything else — wall times, env, alloc,
// RSS, cache counters — is measurement, compared with tolerance or reported
// only.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/histogram.hpp"
#include "perf/json.hpp"
#include "perf/probe.hpp"
#include "runtime/sweep_stats.hpp"
#include "stats/growth.hpp"

namespace volcal::perf {

inline constexpr int kArtifactSchemaVersion = 2;

struct CurvePoint {
  double n = 0.0;
  double cost = 0.0;
  double wall_seconds = 0.0;

  friend bool operator==(const CurvePoint&, const CurvePoint&) = default;
};

struct ArtifactCurve {
  std::string name;
  std::string claim;   // the paper's Θ-claim for this curve, "" when n/a
  std::string fitted;  // growth label, "(n/a)" below 3 points
  double exponent = 0.0;
  double r_squared = 0.0;
  std::vector<CurvePoint> points;

  // Total measured wall time across points (the diff tool's per-curve
  // attribution unit).
  double wall_seconds() const {
    double t = 0.0;
    for (const CurvePoint& p : points) t += p.wall_seconds;
    return t;
  }

  // Fills fitted/exponent/r_squared from the points via
  // stats::classify_growth; below 3 points the fit is marked "(n/a)".
  void refit();
};

// Query-service telemetry (tools/volcal_serve server-side, tools/volcal_load
// client-side): request counters, nearest-rank latency percentiles in
// nanoseconds, and sustained throughput.  Optional and additive within
// schema v2 — artifacts without the block load with has_value() == false.
struct ServeStatsBlock {
  std::int64_t accepted = 0;
  std::int64_t completed = 0;
  std::int64_t shed = 0;
  std::int64_t invalid = 0;
  std::int64_t swaps = 0;
  std::int64_t latency_samples = 0;
  double p50_ns = 0.0;
  double p95_ns = 0.0;
  double p99_ns = 0.0;
  double mean_ns = 0.0;
  double max_ns = 0.0;
  double qps = 0.0;           // completed / wall_seconds
  double wall_seconds = 0.0;  // measured serving window
  // Client-side shed accounting (volcal_load): shed round-trips are timed
  // separately so the query percentiles above stay pure.
  std::int64_t shed_latency_samples = 0;
  double shed_p50_ns = 0.0;
  double shed_p95_ns = 0.0;
  double shed_p99_ns = 0.0;

  // Sets latency_samples and p50/p95/p99/mean/max_ns from a latency
  // histogram in ns (percentiles within 1/32 of exact; obs/histogram.hpp).
  void set_latency(const obs::Histogram& latency_ns);
  // p50/p95/p99 as the "latency-percentiles" curve (abscissa = percentile,
  // cost = ns): the one curve serve and load artifacts carry.
  ArtifactCurve latency_curve() const;

  friend bool operator==(const ServeStatsBlock&, const ServeStatsBlock&) = default;
};

// Dynamic-graph telemetry (volcal_load --update-rate client-side, the churn
// ablation bench-side): update counts, the region-invalidation eviction /
// retention totals reported by UpdateResult frames, and client-observed
// update round-trip / server-reported apply-time percentiles in nanoseconds.
// Optional and additive within schema v2, exactly like the serve block.
struct MutateStatsBlock {
  std::int64_t updates = 0;         // update requests issued
  std::int64_t applied = 0;         // acknowledged Ok
  std::int64_t rejected = 0;        // acknowledged Invalid
  std::int64_t cache_evicted = 0;   // summed over UpdateResult frames
  std::int64_t cache_retained = 0;
  std::int64_t flushes = 0;         // region invalidations that fell back
  double update_p50_ns = 0.0;       // client round-trip
  double update_p95_ns = 0.0;
  double update_p99_ns = 0.0;
  double apply_p50_ns = 0.0;        // server-side apply_mutations time

  friend bool operator==(const MutateStatsBlock&, const MutateStatsBlock&) = default;
};

struct BenchArtifact {
  int schema_version = kArtifactSchemaVersion;
  std::string kind = "bench-report";
  std::string tool;
  // Registry metadata — populated for kind == "bench-family".
  std::string family;
  std::string title;
  std::string theta;
  std::string algorithm;

  EnvFingerprint env;
  std::vector<ArtifactCurve> curves;
  std::vector<PhaseTimer::Phase> phases;
  // The answer memo's counters for serve runs; sweeps have no answer reuse
  // and keep the Off/zero default.
  CacheStats cache;
  // Query-service block — present only for serve/load runs.
  std::optional<ServeStatsBlock> serve;
  // Dynamic-graph block — present only for mixed update/query runs.
  std::optional<MutateStatsBlock> mutate;
  AllocStats alloc;
  bool alloc_instrumented = false;
  std::int64_t rss_high_water_kb = 0;
  double total_wall_seconds = 0.0;

  const ArtifactCurve* find_curve(const std::string& name) const;

  // Samples env/alloc/RSS probes into the artifact.  `alloc_base` subtracts
  // a snapshot taken before the measured section (per-family deltas in the
  // orchestrator); pass a default AllocStats for process totals.
  void stamp_probes(int threads, const AllocStats& alloc_base = {});

  std::string to_json() const;
  bool write_file(const std::string& path) const;

  static std::optional<BenchArtifact> from_json(const JsonValue& doc, std::string* err);
  static std::optional<BenchArtifact> load(const std::string& path, std::string* err);
};

}  // namespace volcal::perf
