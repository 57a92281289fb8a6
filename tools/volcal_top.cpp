// volcal_top — live terminal dashboard for a running volcal_serve.
//
// Polls the server's Stats frame (serve/protocol.hpp) over the serve socket
// at a fixed interval and renders the snapshot: throughput (QPS derived
// from the completed-counter delta between polls), queue depth and
// in-flight, since-start and windowed latency percentiles, shed and
// slow-query counts, cache hit ratio, waves with the mean requests per
// wave, and connection count.  Stats polls are answered on the server's
// reader thread — they never enter the admission queue, so watching a
// loaded server does not displace queries.  Derived columns subtract the
// dashboard's own footprint (its poll connection); --raw prints the
// server's JSON verbatim.
//
// Modes:
//   default        redraw every --interval seconds until ^C (ANSI clear
//                  when stdout is a TTY, plain append otherwise)
//   --once         print one snapshot and exit (CI polls mid-load with
//                  this: --once --raw captures the exact stats JSON for
//                  check_artifacts.py --stats-snapshot)
//   --count N      exit after N polls
//   --raw          print the raw stats JSON line instead of the dashboard
//
// Usage: volcal_top --socket PATH [--interval SEC] [--count N] [--once]
//                   [--raw]
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

#include "perf/json.hpp"
#include "util/env.hpp"
#include "volcal/serve.hpp"

namespace volcal {
namespace {

struct Snapshot {
  perf::JsonValue doc;
  std::string raw;
  std::chrono::steady_clock::time_point at;
};

bool poll_stats(const std::string& socket_path, Snapshot* out) {
  // One connection per poll: the dashboard must observe the server the way
  // any client would, and a fresh connect doubles as a liveness check.  The
  // snapshot therefore always contains the dashboard itself — its own live
  // connection is up while the Stats frame is built — which render()
  // subtracts back out of the derived columns.
  serve::ServeClient client;
  if (!client.connect(socket_path)) return false;
  if (!client.stats(&out->raw)) return false;
  out->at = std::chrono::steady_clock::now();
  std::string err;
  out->doc = perf::parse_json(out->raw, &err);
  if (out->doc.is_null()) {
    std::fprintf(stderr, "volcal_top: bad stats payload: %s\n", err.c_str());
    return false;
  }
  return true;
}

void render(const Snapshot& snap, const Snapshot* prev, bool clear) {
  const perf::JsonValue& d = snap.doc;
  if (clear) std::printf("\x1b[H\x1b[2J");

  const std::int64_t completed = d.int_at("completed");
  double qps = 0.0;
  if (prev != nullptr) {
    const double dt = std::chrono::duration<double>(snap.at - prev->at).count();
    const std::int64_t before = prev->doc.int_at("completed");
    if (dt > 0.0 && completed >= before) {
      qps = static_cast<double>(completed - before) / dt;
    }
  }

  // Self-poll correction: the dashboard's poll connection is live while the
  // server builds the Stats frame, so the raw gauge always counts us.  The
  // derived column subtracts that one connection — "conns" is the clients
  // being served, not the instrument watching them.  (QPS needs no such
  // correction: stats polls are answered on the reader thread and never
  // touch the accepted/completed counters.)  The raw JSON (--raw) is left
  // untouched so snapshots stay comparable with server-side artifacts.
  const std::int64_t raw_conns = [&] {
    const perf::JsonValue* m = d.find("metrics");
    const perf::JsonValue* g = m ? m->find("gauges") : nullptr;
    return g ? g->int_at("serve.connections") : std::int64_t{0};
  }();
  std::printf("volcal_serve  up %.1f s  |  %.0f qps  |  queue %lld  in-flight %lld"
              "  conns %lld\n",
              d.number_at("uptime_seconds"), qps,
              static_cast<long long>(d.int_at("queue_depth")),
              static_cast<long long>(d.int_at("in_flight")),
              static_cast<long long>(std::max<std::int64_t>(0, raw_conns - 1)));
  std::printf("requests      accepted %lld  completed %lld  shed %lld  invalid %lld"
              "  slow %lld\n",
              static_cast<long long>(d.int_at("accepted")),
              static_cast<long long>(completed),
              static_cast<long long>(d.int_at("shed")),
              static_cast<long long>(d.int_at("invalid")),
              static_cast<long long>(d.int_at("slow_queries")));
  if (const perf::JsonValue* lat = d.find("latency")) {
    std::printf("latency       p50 %.0f ns  p95 %.0f ns  p99 %.0f ns  (%lld samples"
                " since start)\n",
                lat->number_at("p50_ns"), lat->number_at("p95_ns"),
                lat->number_at("p99_ns"),
                static_cast<long long>(lat->int_at("count")));
  }
  if (const perf::JsonValue* win = d.find("window")) {
    if (const perf::JsonValue* lat = win->find("latency")) {
      std::printf("window %.0fs    p50 %.0f ns  p95 %.0f ns  p99 %.0f ns  (%lld"
                  " samples)\n",
                  win->number_at("seconds"), lat->number_at("p50_ns"),
                  lat->number_at("p95_ns"), lat->number_at("p99_ns"),
                  static_cast<long long>(lat->int_at("count")));
    }
  }
  if (const perf::JsonValue* cache = d.find("cache")) {
    const std::int64_t hits = cache->int_at("hits");
    const std::int64_t misses = cache->int_at("misses");
    const std::int64_t lookups = hits + misses;
    std::printf("cache         hits %lld  misses %lld  (%.1f%% hit)  evictions %lld"
                "  %.1f MiB inserted\n",
                static_cast<long long>(hits), static_cast<long long>(misses),
                lookups > 0 ? 100.0 * static_cast<double>(hits) /
                                  static_cast<double>(lookups)
                            : 0.0,
                static_cast<long long>(cache->int_at("evictions")),
                static_cast<double>(cache->int_at("inserted_bytes")) /
                    (1024.0 * 1024.0));
  }
  if (const perf::JsonValue* batch = d.find("batch")) {
    const std::int64_t waves = batch->int_at("waves");
    std::printf("waves         %lld  (%.1f requests per wave, at most %lld)\n",
                static_cast<long long>(waves),
                waves > 0 ? static_cast<double>(completed) / static_cast<double>(waves) : 0.0,
                static_cast<long long>(batch->int_at("batch_max")));
  }
  std::fflush(stdout);
}

constexpr const char* kTool = "volcal_top";

int run(int argc, char** argv) {
  std::string socket_path;
  double interval_s = 1.0;
  std::int64_t count = -1;  // -1 = until interrupted
  bool raw = false;
  for (int i = 1; i < argc; ++i) {
    auto value_of = [&](const char* name) { return env::flag_value(argc, argv, &i, name); };
    if (const char* v = value_of("--socket")) {
      socket_path = v;
    } else if (const char* v = value_of("--interval")) {
      // The bounds of volcal_serve --stats-window.
      interval_s = env::number_flag(kTool, "--interval", v, 1e-9, 1e9);
    } else if (const char* v = value_of("--count")) {
      count = env::int_flag(kTool, "--count", v, 1, std::numeric_limits<std::int64_t>::max());
    } else if (std::strcmp(argv[i], "--once") == 0) {
      count = 1;
    } else if (std::strcmp(argv[i], "--raw") == 0) {
      raw = true;
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::printf(
          "volcal_top — live dashboard over a volcal_serve Stats socket\n\n"
          "  --socket <p>    serve socket to poll (required)\n"
          "  --interval <s>  seconds between polls, 1e-9-1e9 [1]\n"
          "  --count <n>     exit after n polls, >= 1 [until ^C]\n"
          "  --once          single poll (same as --count 1)\n"
          "  --raw           print the raw stats JSON line(s) instead\n");
      return 0;
    } else {
      std::fprintf(stderr, "volcal_top: unknown argument '%s' (try --help)\n", argv[i]);
      return 2;
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "volcal_top: --socket is required (try --help)\n");
    return 2;
  }

  const bool tty = ::isatty(STDOUT_FILENO) != 0;
  Snapshot prev;
  bool have_prev = false;
  for (std::int64_t polls = 0; count < 0 || polls < count; ++polls) {
    if (polls > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(interval_s));
    }
    Snapshot snap;
    if (!poll_stats(socket_path, &snap)) {
      std::fprintf(stderr, "volcal_top: cannot poll %s (server gone?)\n",
                   socket_path.c_str());
      return 1;
    }
    if (raw) {
      std::printf("%s\n", snap.raw.c_str());
      std::fflush(stdout);
    } else {
      render(snap, have_prev ? &prev : nullptr, tty && count != 1);
    }
    prev = std::move(snap);
    have_prev = true;
  }
  return 0;
}

}  // namespace
}  // namespace volcal

int main(int argc, char** argv) { return volcal::run(argc, argv); }
