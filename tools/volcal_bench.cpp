// volcal_bench — the benchmark-telemetry orchestrator behind the CI perf
// gate.  Runs every registry family through the shared bench::Args pipeline
// on an n-sweep, verifies each family's outputs once at the smallest size,
// and writes one canonical BENCH_<family>.json artifact per family
// (perf/artifact.hpp schema v2).
//
// The cost curves (volume / distance / queries vs n) are deterministic: the
// sweep engine is bit-identical at any thread count and every generator is
// seeded, so committed baselines (bench/baselines/) reproduce exactly on any
// machine and tools/volcal_bench_diff treats any drift as a hard regression.
//
// With --snapshot-dir, each sweep point first looks for the volcal_gen
// snapshot <dir>/<family>-t<target>-s<seed>.vsnap and mmap-loads it instead
// of regenerating; the wall time lands in a "load" phase (vs "generate"), so
// schema-v2 artifacts record the load-vs-generate comparison directly.  A
// missing file falls back to generating; a file that is present but not a
// valid snapshot fails the run (exit 1).  Cost curves are identical either
// way — snapshots round-trip bit-identically — which is what lets sweeps
// extend past RAM-comfortable generator sizes.
//
// Usage: volcal_bench [--out-dir DIR] [--seed S] [--snapshot-dir DIR]
//                     [bench::Args flags]
//   --out-dir DIR destination directory (default ".", created if missing)
//   --max-n N     largest instance target (default 4096)
//   --filter S    restrict to registry entries whose name contains S
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "lcl/registry.hpp"
#include "volcal/io.hpp"
#include "perf/artifact.hpp"
#include "perf/probe.hpp"
#include "volcal/runtime.hpp"

namespace volcal::bench {
namespace {

constexpr std::int64_t kDefaultMaxN = 4096;
constexpr std::int64_t kMinN = 256;
constexpr NodeIndex kStartSample = 16;
constexpr std::uint64_t kSeed = 7;

// One registry family -> one bench-family artifact: generate an n-sweep,
// verify once at the smallest size, sweep sampled starts at every size, and
// fit the three cost curves.
perf::BenchArtifact run_family(const RegistryEntry& entry, std::int64_t max_n,
                               std::uint64_t seed, const std::string& snapshot_dir) {
  perf::BenchArtifact art;
  art.kind = "bench-family";
  art.tool = "volcal_bench";
  art.family = entry.name;
  art.title = entry.title;
  art.theta = entry.theta;
  art.algorithm = entry.algorithm;

  auto claimed_curve = [&entry](const char* name) {
    perf::ArtifactCurve c;
    c.name = name;
    c.claim = entry.theta;
    return c;
  };
  perf::ArtifactCurve volume = claimed_curve("volume");
  perf::ArtifactCurve distance = claimed_curve("distance");
  perf::ArtifactCurve queries = claimed_curve("queries");

  const perf::AllocStats alloc_base = perf::alloc_snapshot();
  perf::PhaseTimer phases;
  WallTimer total;

  bool verified = false;
  std::int64_t last_node_count = -1;
  for (std::int64_t target = kMinN; target <= max_n; target *= 2) {
    ErasedInstance inst = [&]() -> ErasedInstance {
      if (!snapshot_dir.empty()) {
        const std::string snap = snapshot_dir + "/" + entry.name + "-t" +
                                 std::to_string(target) + "-s" + std::to_string(seed) +
                                 ".vsnap";
        if (std::filesystem::exists(snap)) {
          auto scope = phases.scope("load");
          return io::load_instance(snap);
        }
      }
      auto scope = phases.scope("generate");
      return entry.make(static_cast<NodeIndex>(target), seed);
    }();
    const auto n = static_cast<std::int64_t>(inst.node_count());
    // Families map n_target onto their natural size parameter; small targets
    // can collapse onto the same instance.  One point per distinct size.
    if (n == last_node_count) continue;
    last_node_count = n;

    if (!verified) {
      auto scope = phases.scope("verify");
      auto result = run_at_all_nodes(inst.graph(), inst.ids(),
                                     [&](Execution& exec) { return inst.solve(exec); });
      const VerifyResult v = inst.verify(result.output);
      if (!v.ok) {
        std::fprintf(stderr,
                     "volcal_bench: %s outputs INVALID at n=%lld (%lld violations, "
                     "first at node %lld)\n",
                     entry.name.c_str(), static_cast<long long>(n),
                     static_cast<long long>(v.violations),
                     static_cast<long long>(v.first_bad));
        std::exit(1);
      }
      verified = true;
    }

    SweepStats cost;
    {
      auto scope = phases.scope("sweep");
      const auto starts = sampled_starts(inst.node_count(), kStartSample);
      cost = measure(inst.graph(), inst.ids(), starts,
                     [&](Execution& exec) { return inst.solve(exec); },
                     /*tape=*/nullptr, /*threads=*/0, entry.plan);
    }
    const auto nd = static_cast<double>(n);
    // The sweep's wall time rides on the volume curve only, so per-curve
    // attribution in the diff tool does not triple-count it.
    volume.points.push_back({nd, static_cast<double>(cost.max_volume), cost.wall_seconds});
    distance.points.push_back({nd, static_cast<double>(cost.max_distance), 0.0});
    queries.points.push_back({nd, static_cast<double>(cost.total_queries), 0.0});
  }

  {
    auto scope = phases.scope("fit");
    volume.refit();
    distance.refit();
    queries.refit();
  }
  art.curves.push_back(std::move(volume));
  art.curves.push_back(std::move(distance));
  art.curves.push_back(std::move(queries));
  art.phases = phases.phases();
  art.total_wall_seconds = total.seconds();
  art.stamp_probes(detail::resolve_thread_count(0), alloc_base);
  return art;
}

int run(int argc, char** argv) {
  auto args = Args::parse(&argc, argv, "volcal_bench");
  std::string out_dir = ".";
  std::string snapshot_dir;
  std::uint64_t seed = kSeed;
  for (int i = 1; i < argc; ++i) {
    auto value_of = [&](const char* name, std::size_t len) -> const char* {
      if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
        return argv[i] + len + 1;
      }
      if (std::strcmp(argv[i], name) == 0 && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (const char* v = value_of("--out-dir", 9)) {
      out_dir = v;
    } else if (const char* v = value_of("--snapshot-dir", 14)) {
      snapshot_dir = v;
    } else if (const char* v = value_of("--seed", 6)) {
      seed = static_cast<std::uint64_t>(std::strtoull(v, nullptr, 10));
    } else {
      std::fprintf(stderr, "volcal_bench: unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "volcal_bench: cannot create --out-dir %s: %s\n", out_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  if (seed != kSeed) {
    std::fprintf(stderr,
                 "volcal_bench: note: custom --seed %llu — artifacts will not match "
                 "baselines generated with the default seed\n",
                 static_cast<unsigned long long>(seed));
  }
  const std::int64_t max_n = args.max_n > 0 ? args.max_n : kDefaultMaxN;

  const auto entries = ProblemRegistry::global().match(args.filter);
  if (entries.empty()) {
    std::fprintf(stderr, "volcal_bench: no registry entries match filter '%s'\n",
                 args.filter.c_str());
    return 2;
  }

  for (const RegistryEntry* entry : entries) {
    std::printf("== %s (%s) ==\n", entry->name.c_str(), entry->title.c_str());
    perf::BenchArtifact art = run_family(*entry, max_n, seed, snapshot_dir);
    for (const perf::ArtifactCurve& c : art.curves) {
      std::printf("  %-9s fitted %-14s (claim: %s)\n", c.name.c_str(), c.fitted.c_str(),
                  c.claim.c_str());
    }
    const std::string path = out_dir + "/BENCH_" + entry->name + ".json";
    if (!art.write_file(path)) {
      std::fprintf(stderr, "volcal_bench: cannot write %s\n", path.c_str());
      return 2;
    }
    std::printf("  [artifact: %s]\n", path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace volcal::bench

int main(int argc, char** argv) {
  try {
    return volcal::bench::run(argc, argv);
  } catch (const volcal::io::SnapshotError& e) {
    std::fprintf(stderr, "volcal_bench: cannot load instance: %s\n", e.what());
    return 1;
  }
}
