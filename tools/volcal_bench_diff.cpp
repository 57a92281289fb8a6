// volcal_bench_diff — compares two benchmark telemetry artifact sets (the
// perf/diff.hpp policy): cost curves, growth classes, and fit parameters are
// deterministic, so any drift is a hard failure; wall time is gated against a
// configurable tolerance with per-curve/per-phase attribution when it trips.
//
// Usage: volcal_bench_diff [--wall-tolerance X] [--ignore-wall] BASE CAND
//   BASE / CAND   a BENCH_*.json / --json artifact file, or a directory of
//                 BENCH_*.json files (e.g. bench/baselines)
//
// Exit codes: 0 = no regression, 1 = regression (hard or wall), 2 = usage or
// unreadable/invalid artifacts.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "perf/artifact.hpp"
#include "perf/diff.hpp"
#include "util/env.hpp"

namespace volcal::perf {
namespace {

namespace fs = std::filesystem;

// Loads one artifact set: a single artifact file (bench-family or
// bench-report) or a directory of BENCH_*.json files.  Returns false on any
// unreadable or schema-invalid input — the diff must never silently compare
// less than the caller asked for.
bool load_set(const std::string& path, std::vector<BenchArtifact>& out) {
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    std::vector<std::string> files;
    for (const auto& ent : fs::directory_iterator(path, ec)) {
      if (!ent.is_regular_file()) continue;
      const std::string name = ent.path().filename().string();
      if (name.rfind("BENCH_", 0) != 0 || ent.path().extension() != ".json") continue;
      files.push_back(ent.path().string());
    }
    if (ec) {
      std::fprintf(stderr, "volcal_bench_diff: cannot list %s: %s\n", path.c_str(),
                   ec.message().c_str());
      return false;
    }
    if (files.empty()) {
      std::fprintf(stderr, "volcal_bench_diff: no BENCH_*.json artifacts in %s\n",
                   path.c_str());
      return false;
    }
    std::sort(files.begin(), files.end());
    for (const std::string& f : files) {
      std::string err;
      auto art = BenchArtifact::load(f, &err);
      if (!art) {
        std::fprintf(stderr, "volcal_bench_diff: %s: %s\n", f.c_str(), err.c_str());
        return false;
      }
      out.push_back(std::move(*art));
    }
    return true;
  }

  std::string err;
  auto art = BenchArtifact::load(path, &err);
  if (!art) {
    std::fprintf(stderr, "volcal_bench_diff: %s: %s\n", path.c_str(), err.c_str());
    return false;
  }
  out.push_back(std::move(*art));
  return true;
}

constexpr const char* kTool = "volcal_bench_diff";
constexpr double kMax = std::numeric_limits<double>::max();

int run(int argc, char** argv) {
  DiffOptions opt;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ignore-wall") == 0) {
      opt.ignore_wall = true;
    } else if (const char* v = env::flag_value(argc, argv, &i, "--wall-tolerance")) {
      opt.wall_tolerance = env::number_flag(kTool, "--wall-tolerance", v, 0.0, kMax);
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::printf(
          "volcal_bench_diff [--wall-tolerance X] [--ignore-wall] BASE CAND\n\n"
          "Compares telemetry artifact sets (files or directories of\n"
          "BENCH_*.json).  Cost-curve drift is always a hard failure; total\n"
          "wall time may exceed the baseline by the tolerance (default %.0f%%)\n"
          "unless --ignore-wall.  Exit: 0 ok, 1 regression, 2 usage/io.\n",
          opt.wall_tolerance * 100);
      return 0;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "volcal_bench_diff: unknown flag '%s' (try --help)\n", argv[i]);
      return 2;
    } else {
      paths.emplace_back(argv[i]);
    }
  }
  if (paths.size() != 2) {
    std::fprintf(stderr, "volcal_bench_diff: need exactly BASE and CAND (try --help)\n");
    return 2;
  }

  std::vector<BenchArtifact> base, cand;
  if (!load_set(paths[0], base) || !load_set(paths[1], cand)) return 2;

  const DiffResult result = diff_artifact_sets(base, cand, opt);
  std::fputs(result.render().c_str(), stdout);
  return result.ok() ? 0 : 1;
}

}  // namespace
}  // namespace volcal::perf

int main(int argc, char** argv) { return volcal::perf::run(argc, argv); }
