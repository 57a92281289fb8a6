// volcal_serve — long-running query front-end over a loaded instance.
//
// Loads a .vsnap snapshot (volcal_gen writes them), then serves per-node
// label queries over a Unix-domain socket speaking the
// length-prefixed frame protocol (src/serve/protocol.hpp).  Each query runs
// the family's solver once and is answered from one per-node answer memo
// after that; admission is controlled by a bounded queue (overload answers
// Shed with a fixed 50 ms retry hint, serve::kRetryAfterMs, instead of
// building unbounded backlog).
//
// Signals:
//   SIGTERM / SIGINT  graceful drain: stop admission, answer every accepted
//                     request, write the outputs, exit 0 (1 if the artifact,
//                     the stats log, the trace or the slow log failed).
//   SIGHUP            hot swap: reload --snapshot and atomically replace the
//                     served instance; in-flight waves finish against the
//                     old mapping, and the answer memo starts over (see the
//                     race rule in runtime/answer_memo.hpp).  Put the new
//                     file in place by rename (mv), never by rewriting the
//                     served file: the live target maps it for its whole
//                     life, and truncating it kills the process (SIGBUS).
//
// Usage: volcal_serve --snapshot FILE --socket PATH [--threads N] [--queue N]
//                     [--cache off|shared] [--artifact FILE]
//                     [--stats-interval SEC] [--stats-log FILE]
//                     [--stats-window SEC] [--trace-serve FILE]
//                     [--slow-ms MS] [--slow-log FILE]
// A numeric flag that is junk or out of range (see --help) exits 2.
//
// The artifact (--artifact) is a schema-v2 bench-report with the "serve"
// block: accepted/completed/shed counters, nearest-rank p50/p95/p99 latency
// (read from the service's latency histogram, within 1/32 of exact),
// sustained QPS, and the answer memo's hit counters —
// tools/check_artifacts.py --serve-report validates it in CI.
//
// Live observability: --stats-interval writes the service's stats_json()
// snapshot as one JSONL line per tick (to --stats-log, else stdout) plus one
// final line after the drain — so the log's last line reconciles exactly
// with the artifact's end-of-run totals (check_artifacts.py --stats-jsonl
// asserts counters are monotone across lines and percentiles are ordered
// within each).  The same snapshot answers the protocol's Stats frame at any
// moment (tools/volcal_top polls it).  --trace-serve collects per-request
// spans and exports a Chrome trace on drain; --slow-ms enables the bounded
// slow-query log (written as JSONL by --slow-log).
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include "perf/artifact.hpp"
#include "util/env.hpp"
#include "volcal/io.hpp"
#include "volcal/serve.hpp"

namespace volcal {
namespace {

// Self-pipe signal plumbing: handlers record the signal and poke the pipe;
// the main loop polls the read end.
int g_signal_pipe[2] = {-1, -1};
std::atomic<int> g_drain_signal{0};
std::atomic<int> g_reload_signal{0};

void on_drain_signal(int) {
  g_drain_signal.store(1, std::memory_order_relaxed);
  const char byte = 'q';
  [[maybe_unused]] const ssize_t rc = ::write(g_signal_pipe[1], &byte, 1);
}

void on_reload_signal(int) {
  g_reload_signal.store(1, std::memory_order_relaxed);
  const char byte = 'r';
  [[maybe_unused]] const ssize_t rc = ::write(g_signal_pipe[1], &byte, 1);
}

constexpr const char* kTool = "volcal_serve";
// Bounds of the time flags (--stats-interval and --stats-window in s,
// --slow-ms in ms): far past any use, and the upper one small enough that
// none overflows as integer nanoseconds.  A window must be > 0.
constexpr double kMinWindow = 1e-9;
constexpr double kMaxPeriod = 1e9;

serve::ServeTarget load_target(const std::string& snapshot_path) {
  return serve::make_serve_target(
      std::make_shared<const ErasedInstance>(io::load_instance(snapshot_path)));
}

bool write_artifact(const std::string& path, const serve::QueryService& service,
                    double wall_seconds) {
  const serve::ServeCounters counters = service.counters();

  perf::BenchArtifact artifact;
  artifact.kind = "bench-report";
  artifact.tool = "volcal_serve";
  artifact.stamp_probes(service.threads());
  artifact.cache = service.cache_stats();
  artifact.total_wall_seconds = wall_seconds;
  artifact.phases.push_back({"serve", wall_seconds});

  perf::ServeStatsBlock serve_block;
  serve_block.accepted = counters.accepted;
  serve_block.completed = counters.completed;
  serve_block.shed = counters.shed;
  serve_block.invalid = counters.invalid;
  serve_block.swaps = counters.swaps;
  serve_block.set_latency(service.latency().since_start);
  serve_block.wall_seconds = wall_seconds;
  serve_block.qps =
      wall_seconds > 0.0 ? static_cast<double>(counters.completed) / wall_seconds : 0.0;
  artifact.serve = serve_block;

  // The latency percentiles double as the artifact's curve (schema requires
  // at least one).
  artifact.curves.push_back(serve_block.latency_curve());
  return artifact.write_file(path);
}

int run(int argc, char** argv) {
  std::string snapshot_path;
  std::string socket_path;
  std::string artifact_path;
  std::string stats_log_path;
  std::string trace_path;
  std::string slow_log_path;
  double stats_interval_s = 0.0;  // 0 disables the periodic export
  serve::ServeConfig config;
  config.cache.policy = CachePolicy::Shared;

  for (int i = 1; i < argc; ++i) {
    auto value_of = [&](const char* name) { return env::flag_value(argc, argv, &i, name); };
    if (const char* v = value_of("--snapshot")) {
      snapshot_path = v;
    } else if (const char* v = value_of("--socket")) {
      socket_path = v;
    } else if (const char* v = value_of("--artifact")) {
      artifact_path = v;
    } else if (const char* v = value_of("--threads")) {
      config.threads = static_cast<int>(env::int_flag(kTool, "--threads", v, 1, 256));
    } else if (const char* v = value_of("--queue")) {
      config.queue_capacity = static_cast<std::size_t>(
          env::int_flag(kTool, "--queue", v, 1, std::numeric_limits<std::int64_t>::max()));
    } else if (const char* v = value_of("--cache")) {
      if (!CacheConfig::policy_from_name(v, &config.cache.policy)) {
        std::fprintf(stderr, "volcal_serve: unknown cache policy '%s'\n", v);
        return 2;
      }
    } else if (const char* v = value_of("--stats-interval")) {
      stats_interval_s = env::number_flag(kTool, "--stats-interval", v, 0.0, kMaxPeriod);
    } else if (const char* v = value_of("--stats-log")) {
      stats_log_path = v;
    } else if (const char* v = value_of("--stats-window")) {
      config.stats_window_seconds =
          env::number_flag(kTool, "--stats-window", v, kMinWindow, kMaxPeriod);
    } else if (const char* v = value_of("--trace-serve")) {
      trace_path = v;
    } else if (const char* v = value_of("--slow-ms")) {
      config.slow_threshold_ns = static_cast<std::int64_t>(
          env::number_flag(kTool, "--slow-ms", v, 0.0, kMaxPeriod) * 1e6);
    } else if (const char* v = value_of("--slow-log")) {
      slow_log_path = v;
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::printf(
          "volcal_serve — per-node label query service over a loaded instance\n\n"
          "  --snapshot <f>       serve this .vsnap (required); SIGHUP reloads <f>\n"
          "                       (replace the file by mv, never rewrite it in place)\n"
          "  --socket <p>         Unix socket path to listen on (required)\n"
          "  --threads <n>        worker threads, 1-256 [VOLCAL_THREADS, else 1]\n"
          "  --queue <n>          admission queue capacity, >= 1 [1024]; a query\n"
          "                       beyond it is shed with a 50 ms retry hint\n"
          "  --cache <p>          per-node answer memo: off | shared [shared]\n"
          "  --artifact <f>       write the serve perf artifact on drain\n"
          "  --stats-interval <s> write a stats JSONL line every s seconds, 0-1e9\n"
          "  --stats-log <f>      periodic stats destination, needs --stats-interval\n"
          "                       [stdout]\n"
          "  --stats-window <s>   sliding window for windowed percentiles, 1e-9-1e9 [10]\n"
          "  --trace-serve <f>    collect request spans, write Chrome trace on drain\n"
          "  --slow-ms <ms>       slow-query threshold, 0-1e9 (enables the slow log)\n"
          "  --slow-log <f>       write the slow-query JSONL on drain\n");
      return 0;
    } else {
      std::fprintf(stderr, "volcal_serve: unknown argument '%s' (try --help)\n", argv[i]);
      return 2;
    }
  }
  if (snapshot_path.empty() || socket_path.empty()) {
    std::fprintf(stderr, "volcal_serve: --snapshot and --socket are required (try --help)\n");
    return 2;
  }
  if (!stats_log_path.empty() && stats_interval_s <= 0.0) {
    std::fprintf(stderr, "volcal_serve: --stats-log needs --stats-interval (try --help)\n");
    return 2;
  }

  serve::ServeTarget target;
  try {
    target = load_target(snapshot_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "volcal_serve: cannot load instance: %s\n", e.what());
    return 1;
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::perror("volcal_serve: pipe");
    return 1;
  }
  // Non-blocking read end: the main loop drains whatever bytes handlers
  // wrote without ever sleeping inside read().
  ::fcntl(g_signal_pipe[0], F_SETFL, O_NONBLOCK);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = on_drain_signal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  sa.sa_handler = on_reload_signal;
  ::sigaction(SIGHUP, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);  // dead clients surface as write errors

  // The tracer must outlive the service (workers record spans until drain).
  std::unique_ptr<serve::ServeTracer> tracer;
  if (!trace_path.empty()) {
    tracer = std::make_unique<serve::ServeTracer>();
    config.tracer = tracer.get();
  }

  serve::QueryService service(std::move(target), config);
  serve::SocketServer server;
  if (!server.start(service, socket_path)) return 1;

  std::FILE* stats_file = stdout;
  if (!stats_log_path.empty()) {
    stats_file = std::fopen(stats_log_path.c_str(), "w");
    if (stats_file == nullptr) {
      std::fprintf(stderr, "volcal_serve: cannot open %s for writing\n",
                   stats_log_path.c_str());
      return 1;
    }
  }
  // A stats line that fails to write is reported once; serving goes on, and
  // the exit status says so after the drain.
  bool stats_ok = true;
  auto check_stats = [&](bool wrote) {
    if (!wrote && stats_ok) {
      std::fprintf(stderr, "volcal_serve: cannot write %s: %s\n",
                   stats_log_path.empty() ? "stdout" : stats_log_path.c_str(),
                   std::strerror(errno));
    }
    stats_ok = stats_ok && wrote;
  };
  auto emit_stats_line = [&] {
    const std::string line = service.stats_json() + '\n';
    check_stats(std::fwrite(line.data(), 1, line.size(), stats_file) == line.size() &&
                std::fflush(stats_file) == 0);
  };
  std::printf("volcal_serve: serving %s (n=%lld) on %s, %d thread(s)\n", snapshot_path.c_str(),
              static_cast<long long>(service.node_count()), socket_path.c_str(),
              service.threads());
  std::fflush(stdout);

  const auto serve_begin = std::chrono::steady_clock::now();
  auto next_stats = serve_begin + std::chrono::duration_cast<
                                      std::chrono::steady_clock::duration>(
                                      std::chrono::duration<double>(
                                          stats_interval_s > 0.0 ? stats_interval_s
                                                                 : 0.0));
  while (true) {
    int timeout_ms = -1;
    if (stats_interval_s > 0.0) {
      const auto until = next_stats - std::chrono::steady_clock::now();
      timeout_ms = std::max(
          0, static_cast<int>(
                 std::chrono::duration_cast<std::chrono::milliseconds>(until)
                     .count()));
    }
    pollfd pfd{g_signal_pipe[0], POLLIN, 0};
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0 && errno != EINTR) break;
    if (stats_interval_s > 0.0 &&
        std::chrono::steady_clock::now() >= next_stats) {
      emit_stats_line();
      next_stats += std::chrono::duration_cast<
          std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(stats_interval_s));
    }
    char drain_buf[64];
    while (::read(g_signal_pipe[0], drain_buf, sizeof drain_buf) > 0) {
    }
    if (g_reload_signal.exchange(0, std::memory_order_relaxed) != 0) {
      try {
        service.swap_target(load_target(snapshot_path));
        std::printf("volcal_serve: reloaded %s (swap #%lld)\n", snapshot_path.c_str(),
                    static_cast<long long>(service.counters().swaps));
        std::fflush(stdout);
      } catch (const std::exception& e) {
        // Keep serving the old target: a bad reload must not take the
        // service down.
        std::fprintf(stderr, "volcal_serve: reload failed, keeping old target: %s\n",
                     e.what());
      }
    }
    if (g_drain_signal.load(std::memory_order_relaxed) != 0) break;
  }

  // Graceful drain: stop admission and answer everything accepted, then
  // close the transport and report.
  service.drain_and_stop();
  server.stop();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - serve_begin)
          .count();

  if (stats_interval_s > 0.0) {
    // One final post-drain line: the log's last snapshot equals the
    // artifact's end-of-run totals exactly (everything accepted has
    // completed, the queue is empty).
    emit_stats_line();
  }
  if (stats_file != stdout) check_stats(std::fclose(stats_file) == 0);

  // Every requested output that failed to write fails the exit status.
  bool outputs_ok = stats_ok;
  if (tracer) {
    const std::vector<serve::RequestSpan> spans = tracer->spans();
    if (serve::write_serve_chrome_trace(trace_path, spans)) {
      std::printf("volcal_serve: wrote %zu request spans to %s%s\n", spans.size(),
                  trace_path.c_str(),
                  tracer->dropped() > 0 ? " (capacity hit; newest spans dropped)"
                                        : "");
    } else {
      outputs_ok = false;
    }
  }
  if (!slow_log_path.empty()) {
    const std::vector<serve::SlowQuery> slow = service.slow_queries();
    if (serve::write_slow_query_log(slow_log_path, slow)) {
      std::printf("volcal_serve: wrote %zu slow-query records to %s\n",
                  slow.size(), slow_log_path.c_str());
    } else {
      outputs_ok = false;
    }
  }

  const serve::ServeCounters counters = service.counters();
  const obs::Histogram latency = service.latency().since_start;
  const CacheStats cache = service.cache_stats();
  std::printf(
      "volcal_serve: drained — accepted %lld, completed %lld, shed %lld, "
      "invalid %lld, swaps %lld\n",
      static_cast<long long>(counters.accepted),
      static_cast<long long>(counters.completed),
      static_cast<long long>(counters.shed), static_cast<long long>(counters.invalid),
      static_cast<long long>(counters.swaps));
  std::printf("volcal_serve: latency p50 %" PRId64 " ns, p95 %" PRId64 " ns, p99 %" PRId64
              " ns over %" PRId64 " samples; cache hits %" PRId64 " / misses %" PRId64 "\n",
              latency.quantile(0.50), latency.quantile(0.95), latency.quantile(0.99),
              latency.count, cache.hits, cache.misses);

  if (!artifact_path.empty() && !write_artifact(artifact_path, service, wall_seconds)) {
    return 1;
  }
  return outputs_ok ? 0 : 1;
}

}  // namespace
}  // namespace volcal

int main(int argc, char** argv) { return volcal::run(argc, argv); }
