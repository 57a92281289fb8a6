// Shared measurement helpers for the bench binaries.  Each bench binary
// regenerates one table/figure of the paper: it prints the paper's claimed
// Θ-class next to the measured cost curve and the growth class fitted by
// stats::classify_growth.
//
// Sweeps run on the parallel flat-scratch engine (runtime/parallel_runner.hpp);
// thread count comes from VOLCAL_THREADS (default 1) and never changes the
// measured costs — the engine's results are bit-identical at any thread count.
//
// Every bench main accepts the shared flag set of bench::Args (--json,
// --trace, --chrome-trace, --metrics, --filter, --max-n, --threads,
// --backend, --help);
// curves print as tables and dump as JSON, and the observability flags attach
// the obs/ layer (trace sinks + sweep metrics) to every measure() call.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "labels/ids.hpp"
#include "lcl/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perf/artifact.hpp"
#include "perf/probe.hpp"
#include "runtime/parallel_runner.hpp"
#include "runtime/sweep_stats.hpp"
#include "stats/growth.hpp"
#include "stats/table.hpp"
#include "util/hash.hpp"

namespace volcal::bench {

class WallTimer {
 public:
  WallTimer() : begin_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - begin_).count();
  }

 private:
  std::chrono::steady_clock::time_point begin_;
};

// Evenly spread sample of at most `count` start nodes, always including node
// 0 (the root of every generated instance — the worst case for the tree
// families) and, whenever count >= 2, node n-1 (a deepest leaf).  count == 1
// honors the "at most" contract and returns {0}.
inline std::vector<NodeIndex> sampled_starts(NodeIndex n, NodeIndex count) {
  std::vector<NodeIndex> out;
  if (n <= 0 || count <= 0) return out;
  const NodeIndex k = std::min(n, count);
  out.reserve(static_cast<std::size_t>(k));
  for (NodeIndex i = 0; i < k; ++i) {
    // Endpoint-inclusive linear interpolation: i=0 -> 0, i=k-1 -> n-1.
    const NodeIndex v = (k == 1) ? 0 : static_cast<NodeIndex>(i * (n - 1) / (k - 1));
    if (out.empty() || out.back() != v) out.push_back(v);
  }
  return out;
}

// --- Shared command-line flags (every bench main) ---------------------------

// One parser for all bench binaries.  parse() strips the flags it recognizes
// out of argv (so google-benchmark mains can hand the remainder to
// benchmark::Initialize) and `--threads N` is applied by exporting
// VOLCAL_THREADS before any runner is built.
struct Args {
  const char* json = nullptr;          // --json <path>: curve report
  const char* trace = nullptr;         // --trace <path>: JSONL query trace
  const char* chrome_trace = nullptr;  // --chrome-trace <path>: trace_event
  const char* metrics = nullptr;       // --metrics <path>: SweepMetrics JSON
  std::string filter;                  // --filter <substr>: registry subset
  std::int64_t max_n = 0;              // --max-n <n>: skip larger instances
  int threads = 0;                     // --threads <t>
  const char* backend = nullptr;       // --backend basic|batched
  bool help = false;

  bool observing() const {
    return trace != nullptr || chrome_trace != nullptr || metrics != nullptr;
  }
  // true if an instance of this size should be run under --max-n.
  bool keep_n(std::int64_t n) const { return max_n <= 0 || n <= max_n; }

  static void print_help(const char* tool) {
    std::printf(
        "%s — volcal bench binary\n\n"
        "  --json <path>          write the printed curves as a JSON report\n"
        "  --trace <path>         record every query of every measured sweep (JSONL)\n"
        "  --chrome-trace <path>  per-execution timeline in Chrome trace_event format\n"
        "                         (open in chrome://tracing or ui.perfetto.dev)\n"
        "  --metrics <path>       aggregate sweep metrics (histograms, workers) as JSON\n"
        "  --filter <substr>      restrict registry-driven sections to matching entries\n"
        "  --max-n <n>            skip instances larger than n\n"
        "  --threads <t>          worker threads (same as VOLCAL_THREADS=t)\n"
        "  --backend <backend>    plan execution backend: basic|batched\n"
        "                         (same as VOLCAL_BACKEND=<backend>)\n"
        "  --help                 this message\n\n"
        "Problem registry (--filter matches the first column):\n",
        tool);
    for (const RegistryEntry& e : ProblemRegistry::global().entries()) {
      std::printf("  %-14s %-28s %s\n      %s\n", e.name.c_str(), e.title.c_str(),
                  e.theta.c_str(), e.algorithm.c_str());
    }
  }

  // The last installed Args (default-constructed before any install) — lets
  // helpers deep inside a bench honor --max-n without threading the struct
  // through every table builder.
  static const Args& current() { return mutable_current(); }

  // Explicit lifecycle for the process-wide Args: parse() installs its
  // result, tests that parse several Args sets call reset() (or install a
  // fixture of their own) so state cannot leak between cases.
  static void install(const Args& args) { mutable_current() = args; }
  static void reset() { mutable_current() = Args{}; }

  // Flags may be given as `--flag value` or `--flag=value`.  Unrecognized
  // arguments stay in argv for the binary's own parsing.
  static Args parse(int* argc, char** argv, const char* tool) {
    Args args;
    auto value_of = [&](int& i, const char* name, std::size_t len) -> const char* {
      if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
        return argv[i] + len + 1;
      }
      if (std::strcmp(argv[i], name) == 0 && i + 1 < *argc) return argv[++i];
      return nullptr;
    };
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
      const char* v = nullptr;
      if ((v = value_of(i, "--json", 6)) != nullptr) {
        args.json = v;
      } else if ((v = value_of(i, "--trace", 7)) != nullptr) {
        args.trace = v;
      } else if ((v = value_of(i, "--chrome-trace", 14)) != nullptr) {
        args.chrome_trace = v;
      } else if ((v = value_of(i, "--metrics", 9)) != nullptr) {
        args.metrics = v;
      } else if ((v = value_of(i, "--filter", 8)) != nullptr) {
        args.filter = v;
      } else if ((v = value_of(i, "--max-n", 7)) != nullptr) {
        args.max_n = std::atoll(v);
      } else if ((v = value_of(i, "--threads", 9)) != nullptr) {
        args.threads = std::atoi(v);
      } else if ((v = value_of(i, "--backend", 9)) != nullptr) {
        args.backend = v;
      } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
        args.help = true;
      } else {
        argv[out++] = argv[i];
      }
    }
    *argc = out;
    argv[out] = nullptr;
    if (args.help) {
      print_help(tool);
      std::exit(0);
    }
    if (args.threads > 0) {
      const std::string t = std::to_string(args.threads);
      setenv("VOLCAL_THREADS", t.c_str(), /*overwrite=*/1);
    }
    if (args.backend != nullptr) {
      ExecBackend parsed = ExecBackend::Batched;
      if (!backend_from_name(args.backend, &parsed)) {
        std::fprintf(stderr, "%s: unknown --backend '%s' (basic|batched)\n", tool,
                     args.backend);
        std::exit(2);
      }
      // Exported rather than stored: every ParallelRunner the binary builds
      // picks the backend up through backend_from_env().
      setenv("VOLCAL_BACKEND", args.backend, /*overwrite=*/1);
    }
    install(args);
    return args;
  }

 private:
  static Args& mutable_current() {
    static Args a;
    return a;
  }
};

// --- Observer: attaches the obs/ layer to every measure() call --------------
//
// Installed once per binary from the parsed Args.  While installed, measure()
// profiles every sweep, folds it into one SweepMetrics, and — when a trace
// path was requested and the solver is generic enough to run on
// TracedExecution — records full query traces.  Artifacts are written when
// the (static) observer is destroyed at exit, or on an explicit flush().
class Observer {
 public:
  static Observer* current() { return slot(); }

  static void install(const Args& args, std::string tool) {
    if (!args.observing()) return;
    static Observer holder;
    holder.tool_ = std::move(tool);
    holder.trace_path_ = args.trace != nullptr ? args.trace : "";
    holder.chrome_path_ = args.chrome_trace != nullptr ? args.chrome_trace : "";
    holder.metrics_path_ = args.metrics != nullptr ? args.metrics : "";
    slot() = &holder;
  }

  ~Observer() { flush(); }

  bool tracing() const { return !trace_path_.empty() || !chrome_path_.empty(); }

  void note_traced_sweep(std::int64_t n, std::vector<obs::ExecutionTrace> traces,
                         const SweepProfile* profile,
                         const ProbePlan& plan = ProbePlan::independent()) {
    obs::SweepTrace sweep;
    sweep.label = tool_ + "/sweep-" + std::to_string(sweep_seq_);
    sweep.n = n;
    sweep.plan = plan.name();
    sweep.traces = std::move(traces);
    if (profile != nullptr) sweep.profile = *profile;
    sweeps_.push_back(std::move(sweep));
  }

  template <typename Label>
  void note_metrics(const SweepResult<Label>& run, const SweepProfile* profile,
                    const RandomTape* tape) {
    ++sweep_seq_;
    metrics_.observe(run, profile, tape);
    // Phase accounting: every measured sweep's engine wall time folds into
    // one "sweep" phase, so --metrics shows how much of the binary's runtime
    // the engine itself owns.
    metrics_.phases.add("sweep", run.stats.wall_seconds);
  }

  void flush() {
    if (!trace_path_.empty() && obs::write_trace_jsonl(trace_path_, sweeps_)) {
      std::printf("[trace: %s]\n", trace_path_.c_str());
    }
    if (!chrome_path_.empty() && obs::write_chrome_trace(chrome_path_, sweeps_)) {
      std::printf("[chrome trace: %s]\n", chrome_path_.c_str());
    }
    if (!metrics_path_.empty() && metrics_.write_file(metrics_path_, tool_)) {
      std::printf("[metrics: %s]\n", metrics_path_.c_str());
    }
    trace_path_.clear();
    chrome_path_.clear();
    metrics_path_.clear();
  }

  const obs::SweepMetrics& metrics() const { return metrics_; }

 private:
  static Observer*& slot() {
    static Observer* p = nullptr;
    return p;
  }

  std::string tool_;
  std::string trace_path_;
  std::string chrome_path_;
  std::string metrics_path_;
  std::int64_t sweep_seq_ = 0;
  std::vector<obs::SweepTrace> sweeps_;
  obs::SweepMetrics metrics_;
};

// Runs `solve(exec)` from each start on the parallel sweep engine and
// aggregates sup-costs (Defs. 2.1-2.2 restricted to the sample).  `tape`, if
// given, gets per-worker bit-usage accounting; `threads` overrides the
// VOLCAL_THREADS default.  `plan` is the family's ProbePlan (registry
// entries carry one): batchable plans ride the batched backend when the
// environment allows (--backend / VOLCAL_BACKEND), with identical measured
// costs either way.
//
// Observability: when an Observer is installed, the sweep is profiled and
// folded into its metrics; when tracing was requested *and* the solver is
// invocable on TracedExecution& (write it as a generic lambda
// `[&](auto& exec)` over InstanceSource<Labels, std::decay_t<decltype(exec)>>
// for that), the sweep runs on the recording execution — costs and outputs
// are bit-identical either way.  Solvers hard-typed on Execution& degrade
// gracefully to metrics-only.
template <typename Fn>
SweepStats measure(GraphView g, const IdAssignment& ids,
                   const std::vector<NodeIndex>& starts, Fn&& solve,
                   RandomTape* tape = nullptr, int threads = 0,
                   const ProbePlan& plan = ProbePlan::independent()) {
  Observer* obs = Observer::current();
  ParallelRunner runner(threads);
  SweepProfile profile;
  SweepProfile* prof = obs != nullptr ? &profile : nullptr;
  // The engine wants a Label-returning solver; benches often measure
  // cost-only solvers returning void.
  auto wrapped = [&](auto& exec) {
    using Exec = std::remove_reference_t<decltype(exec)>;
    if constexpr (std::is_void_v<std::invoke_result_t<Fn&, Exec&>>) {
      solve(exec);
      return 0;
    } else {
      return solve(exec);
    }
  };
  if constexpr (std::is_invocable_v<Fn&, obs::TracedExecution&>) {
    if (obs != nullptr && obs->tracing()) {
      obs::TraceRecorder recorder;
      auto run = obs::run_at_traced(runner, g, ids, std::span<const NodeIndex>(starts),
                                    wrapped, recorder, /*budget=*/0, tape, prof);
      run.stats.plan = plan.kind;  // traces must see every query: always basic
      obs->note_traced_sweep(g.node_count(), std::move(recorder.traces()), prof, plan);
      obs->note_metrics(run, prof, tape);
      return run.stats;
    }
  }
  auto run = runner.run_planned(g, ids, std::span<const NodeIndex>(starts), plan, wrapped,
                                /*budget=*/0, tape, prof);
  if (obs != nullptr) obs->note_metrics(run, prof, tape);
  return run.stats;
}

struct Curve {
  std::vector<double> ns;
  std::vector<double> costs;
  std::vector<double> secs;  // wall seconds per point (0 when unmeasured)

  void add(double n, double cost, double wall_seconds = 0.0) {
    ns.push_back(n);
    costs.push_back(cost);
    secs.push_back(wall_seconds);
  }
  // The full fit (label + exponent + r²) — what the JSON report serializes.
  // Below 3 points there is nothing to fit and the label reads "(n/a)".
  stats::GrowthFit fit() const {
    if (ns.size() < 3) {
      stats::GrowthFit none;
      none.label = "(n/a)";
      return none;
    }
    return stats::classify_growth(ns, costs);
  }
  std::string fitted() const { return fit().label; }
};

inline std::string fmt_int(std::int64_t v) { return std::to_string(v); }

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

// --- JSON report (--json <path>) -------------------------------------------

inline std::string json_escape(const std::string& s) { return perf::json_escape(s); }

// The canonical telemetry emitter behind every bench main's --json flag.
// Collects named curves (with the paper's Θ-claim where the caller has one)
// and per-section phase timings, and serializes the versioned
// perf::BenchArtifact schema — env fingerprint, fitted exponent + r² per
// curve, per-phase wall time, allocation counters, and the RSS high-water
// mark ride along with the cost curves.
class JsonReport {
 public:
  explicit JsonReport(std::string tool) : tool_(std::move(tool)) {}

  void add(std::string name, const Curve& curve, std::string claim = "") {
    curves_.push_back({std::move(name), std::move(claim), curve});
  }

  // Section timing: `auto p = report.phase("adversary");` scopes one named
  // phase; re-entering a name accumulates.
  perf::PhaseTimer::Scope phase(std::string name) {
    return phases_.scope(std::move(name));
  }
  perf::PhaseTimer& phases() { return phases_; }

  // Builds the artifact: deterministic content from the registered curves,
  // probes sampled at call time.
  perf::BenchArtifact artifact() const {
    perf::BenchArtifact a;
    a.kind = "bench-report";
    a.tool = tool_;
    for (const auto& [name, claim, curve] : curves_) {
      perf::ArtifactCurve c;
      c.name = name;
      c.claim = claim;
      const stats::GrowthFit fit = curve.fit();
      c.fitted = fit.label;
      c.exponent = fit.exponent;
      c.r_squared = fit.r_squared;
      for (std::size_t i = 0; i < curve.ns.size(); ++i) {
        c.points.push_back({curve.ns[i], curve.costs[i], curve.secs[i]});
      }
      a.curves.push_back(std::move(c));
    }
    a.phases = phases_.phases();
    a.total_wall_seconds = since_construction_.seconds();
    a.stamp_probes(detail::resolve_thread_count(0));
    return a;
  }

  std::string render() const { return artifact().to_json(); }

  // Writes the report if `path` is non-null; announces the file on stdout.
  bool write_file(const char* path) const {
    if (path == nullptr) return false;
    if (!artifact().write_file(path)) return false;
    std::printf("\n[json report: %s]\n", path);
    return true;
  }

 private:
  struct NamedCurve {
    std::string name;
    std::string claim;
    Curve curve;
  };

  std::string tool_;
  std::vector<NamedCurve> curves_;
  perf::PhaseTimer phases_;
  WallTimer since_construction_;
};

}  // namespace volcal::bench
