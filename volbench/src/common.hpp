// Shared pieces of the volbench benchmark: options, timing, quantiles and the
// result record every workload fills in.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace volbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  // the measured budget of one run (BENCHMARK.json run_seconds)
  bool trace = false;
  std::string work_dir = ".bench_build/run";
};

// Nearest-rank quantile, q in [0, 1].  Failed requests enter latency samples
// as +infinity, so they sort last and count as over any limit.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return v[idx];
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload pass produced.  `e2e` is printed by an untraced run,
// `layer` by a traced one; attempted/failed count every operation the pass
// issued (sweep starts, queries, updates, polls, verifications) and every
// one that failed (violations, mismatches, sheds, lost or rejected updates).
struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;

  void add_e2e(std::string name, double value, std::string unit) {
    e2e.push_back({std::move(name), value, std::move(unit)});
  }
  void add_layer(std::string name, double value, std::string unit) {
    layer.push_back({std::move(name), value, std::move(unit)});
  }
  // A wrong answer: counted as failed and makes the run exit non-zero.
  void wrong(std::int64_t count = 1) {
    failed += count;
    correct = false;
  }
};

// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

// Prints the resident set now and at its peak, after the named phase.
void print_memory(const char* after);

// Prints one line naming the runnable threads a phase uses.
void print_thread_budget(const char* phase, int workers, int readers, int clients,
                         const char* note);

// Runs the workload opt.workload names (serve.cpp).
int run_serve(const Options& opt, Report* out);

}  // namespace volbench
