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
// --trace, --chrome-trace, --metrics, --max-n, --help; the google-benchmark
// mains also --benchmark_*) and refuses any other argument; curves print as
// tables and dump as JSON, and the observability flags attach the obs/ layer
// (trace sinks + sweep metrics) to every measure() call.  Every main ends in
// finish(), which exits 2 when a requested output failed to write.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "labels/ids.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perf/artifact.hpp"
#include "perf/probe.hpp"
#include "runtime/parallel_runner.hpp"
#include "runtime/sweep_stats.hpp"
#include "stats/growth.hpp"
#include "stats/table.hpp"
#include "util/env.hpp"
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
// out of argv, so the google-benchmark mains can hand the remainder to
// benchmark::Initialize.
struct Args {
  const char* json = nullptr;          // --json <path>: curve report
  const char* trace = nullptr;         // --trace <path>: JSONL query trace
  const char* chrome_trace = nullptr;  // --chrome-trace <path>: trace_event
  const char* metrics = nullptr;       // --metrics <path>: SweepMetrics JSON
  std::int64_t max_n = 0;              // --max-n <n>: skip larger instances

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
        "  --max-n <n>            skip instances larger than n, 1 to 2^31-1\n"
        "  --help                 this message\n\n"
        "Worker threads come from VOLCAL_THREADS (default 1).\n",
        tool);
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

  // Flags may be given as `--flag value` or `--flag=value`.  This form leaves
  // unrecognized arguments in argv for google-benchmark; the mains that hand
  // argv on check benchmark::ReportUnrecognizedArguments afterwards.
  static Args parse(int* argc, char** argv, const char* tool) {
    Args args;
    auto value_of = [&](int& i, const char* name) {
      return env::flag_value(*argc, argv, &i, name);
    };
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
      const char* v = nullptr;
      if ((v = value_of(i, "--json")) != nullptr) {
        args.json = v;
      } else if ((v = value_of(i, "--trace")) != nullptr) {
        args.trace = v;
      } else if ((v = value_of(i, "--chrome-trace")) != nullptr) {
        args.chrome_trace = v;
      } else if ((v = value_of(i, "--metrics")) != nullptr) {
        args.metrics = v;
      } else if ((v = value_of(i, "--max-n")) != nullptr) {
        args.max_n =
            env::int_flag(tool, "--max-n", v, 1, std::numeric_limits<std::int32_t>::max());
      } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
        print_help(tool);
        std::exit(0);
      } else {
        argv[out++] = argv[i];
      }
    }
    *argc = out;
    argv[out] = nullptr;
    install(args);
    return args;
  }

  // For mains that do not hand argv on: a leftover argument exits 2.
  static Args parse(int argc, char** argv, const char* tool) {
    Args args = parse(&argc, argv, tool);
    if (argc > 1) {
      std::fprintf(stderr, "%s: unknown argument '%s' (try --help)\n", tool, argv[1]);
      std::exit(2);
    }
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
// TracedExecution — records full query traces.  finish() writes the
// artifacts through flush(); the (static) observer's destructor flushes
// whatever is still unwritten.
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

  // Writes each requested artifact once.  False if any failed to write (the
  // writer names it on stderr).
  bool flush() {
    bool ok = true;
    const auto write = [&](std::string& path, const char* what, auto&& writer) {
      if (path.empty()) return;
      if (writer()) {
        std::printf("[%s: %s]\n", what, path.c_str());
      } else {
        ok = false;
      }
      path.clear();
    };
    write(trace_path_, "trace", [&] { return obs::write_trace_jsonl(trace_path_, sweeps_); });
    write(chrome_path_, "chrome trace",
          [&] { return obs::write_chrome_trace(chrome_path_, sweeps_); });
    write(metrics_path_, "metrics", [&] { return metrics_.write_file(metrics_path_, tool_); });
    return ok;
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

// Runs `solve(exec)` from each start on the parallel sweep engine
// (VOLCAL_THREADS workers) and aggregates sup-costs (Defs. 2.1-2.2
// restricted to the sample).  `tape`, if given, gets per-worker bit-usage
// accounting.  `plan` is the family's ProbePlan (registry entries carry
// one): batchable plans ride the batched backend, with measured costs
// identical to the per-start loop.
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
                   RandomTape* tape = nullptr,
                   const ProbePlan& plan = ProbePlan::independent()) {
  Observer* obs = Observer::current();
  ParallelRunner runner;
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

// The last step of every bench main: writes the --json report and the
// Observer's artifacts.  Returns the exit status, 2 if a requested output
// failed to write (as volcal_bench), else 0.
inline int finish(const JsonReport& report, const Args& args) {
  bool ok = args.json == nullptr || report.write_file(args.json);
  if (Observer* obs = Observer::current()) ok = obs->flush() && ok;
  return ok ? 0 : 2;
}

}  // namespace volcal::bench
