// volbench — the repo benchmark.  One process runs one workload:
//
//   volbench --workload serve-leaf|serve-ball --seed N --seconds S
//            --trace 0|1 [--work-dir DIR]
//
// Every input (instances, snapshots, traffic, mutation batches) is generated
// from --seed; --seconds is the measured budget the workload divides among
// its timed phases.  --trace 0 prints the end-to-end metrics.  --trace 1
// runs the workload twice, untraced and then traced (spans around every call
// into a volcal layer, see tracer.hpp), prints each phase's layer table, the
// traced-vs-untraced difference of every end-to-end metric (the tracing
// overhead) and the per-layer metrics, and writes the spans as Chrome
// trace_event JSON to DIR/trace-<workload>-s<seed>.json.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 1 on any wrong answer (label mismatch, verifier
// violation, lost or rejected update) and 2 on a usage or set-up error.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "common.hpp"
#include "tracer.hpp"

namespace volbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void print_memory(const char* after) {
  long pages = 0, resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  std::printf("[memory] after %-12s resident %.1f MB, peak %.1f MB\n", after,
              static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
                  (1024.0 * 1024.0),
              peak_rss_mb());
}

void print_thread_budget(const char* phase, int workers, int readers, int clients,
                         const char* note) {
  std::printf("[threads] %-12s runnable: %d service worker(s) + %d server reader(s) + "
              "%d client = %d (nproc %u)%s%s\n",
              phase, workers, readers, clients, workers + readers + clients,
              std::thread::hardware_concurrency(), note[0] != '\0' ? "; " : "", note);
}

namespace {

int usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "volbench: %s\n", msg);
  std::fprintf(stderr,
               "usage: volbench --workload serve-leaf|serve-ball --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n");
  return 2;
}

void print_json(const Report& r, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += r.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"metrics\": {";
  char buf[160];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // A value that could not be measured (every request of a phase failed)
    // is null; such a run is never correct.
    char value[32] = "null";
    if (std::isfinite(metrics[i].value)) {
      std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    }
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), value, metrics[i].unit.c_str());
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

int main_impl(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);  // progress lines appear as they happen
  // Pin glibc's allocator thresholds.  Left dynamic, whether a freed
  // multi-megabyte block goes back to the kernel depends on the order of
  // earlier frees across threads, so the service's per-wave reallocation of
  // its latency record (see README.md, Findings) flips between a memcpy and
  // a fresh page-faulting mapping from run to run: serve-ball saturation
  // read ~45k/s in some runs and ~150k/s in others.  Pinned, every
  // allocation under 32 MiB comes from the heap and nothing is trimmed
  // (serve.cpp trims between phases instead).  All threads share one arena:
  // with several, how many arenas the threads drew and how much of each
  // stayed resident (a thread arena's top is never trimmed) varied from run
  // to run, and peak_rss_mb with it (four arenas, trimmed: serve-leaf
  // 33-38 MB, serve-ball 213-230 MB over five seeds each).
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_ARENA_MAX, 1);
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = v;
    } else if (arg == "--seed") {
      errno = 0;
      opt.seed = std::strtoull(v, &end, 10);
      if (errno != 0 || end == v || *end != '\0' || v[0] == '-') return usage("bad --seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(opt.seconds >= 1.0 && opt.seconds <= 600.0)) {
        return usage("--seconds must be in [1, 600]");
      }
      have_seconds = true;
    } else if (arg == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return usage("--trace is 0 or 1");
      opt.trace = v[0] == '1';
      have_trace = true;
    } else if (arg == "--work-dir") {
      opt.work_dir = v;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.workload != "serve-leaf" && opt.workload != "serve-ball") {
    return usage("--workload is serve-leaf or serve-ball");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  if (ec) return usage(("cannot create work dir " + opt.work_dir).c_str());

  Report plain;
  if (const int rc = run_serve(opt, &plain); rc != 0) return rc;
  if (!opt.trace) {
    print_json(plain, plain.e2e);
    return plain.correct ? 0 : 1;
  }

  Tracer tracer;
  g_tracer = &tracer;
  Report traced;
  const int rc = run_serve(opt, &traced);
  g_tracer = nullptr;
  if (rc != 0) return rc;

  // Tracing overhead: every end-to-end metric and every end-to-end
  // candidate kept as a diagnostic, untraced against traced.
  const auto overhead = [](const std::vector<Metric>& a, const std::vector<Metric>& b,
                           bool diagnostics_only) {
    static const std::vector<std::string> kDiagnostics = {
        "runtime.sweep_s", "serve.sat_qps", "serve.p50_ms", "serve.p90_ms",
        "serve.update_p50_ms"};
    for (const Metric& m : a) {
      if (diagnostics_only &&
          std::find(kDiagnostics.begin(), kDiagnostics.end(), m.name) == kDiagnostics.end()) {
        continue;
      }
      for (const Metric& t : b) {
        if (t.name != m.name) continue;
        std::printf("[overhead] %-20s %-15.6g %-15.6g %+.2f%% (%s)\n", m.name.c_str(), m.value,
                    t.value, m.value != 0.0 ? 100.0 * (t.value - m.value) / m.value : 0.0,
                    m.unit.c_str());
      }
    }
  };
  std::printf("[overhead] metric               untraced        traced          difference\n");
  overhead(plain.e2e, traced.e2e, false);
  overhead(plain.layer, traced.layer, true);
  const bool sums_ok = tracer.print_layer_tables(stdout);
  std::printf("[layers] %zu span(s) kept, %lld dropped over the cap; self times %s\n",
              tracer.spans_kept(), static_cast<long long>(tracer.spans_dropped()),
              sums_ok ? "add up to every phase's wall time" : "DO NOT add up");
  const std::string trace_path =
      opt.work_dir + "/trace-" + opt.workload + "-s" + std::to_string(opt.seed) + ".json";
  if (tracer.write_chrome_trace(trace_path)) {
    std::printf("[layers] Chrome trace written to %s\n", trace_path.c_str());
  } else {
    std::fprintf(stderr, "volbench: cannot write %s\n", trace_path.c_str());
  }

  Report merged = traced;
  merged.correct = plain.correct && traced.correct;
  merged.attempted += plain.attempted;
  merged.failed += plain.failed;
  print_json(merged, traced.layer);
  return merged.correct ? 0 : 1;
}

}  // namespace volbench

int main(int argc, char** argv) {
  try {
    return volbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "volbench: %s\n", e.what());
    return 2;
  }
}
