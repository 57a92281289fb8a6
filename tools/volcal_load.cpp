// volcal_load — load generator for volcal_serve.
//
// Drives a serve socket with Zipfian per-node queries (hot nodes repeat —
// the regime the per-node answer memo exists for), measures client-side
// latency and sustained throughput, and optionally verifies every response
// against the offline engine.
//
// Each connection is one thread running one ppoll loop over its socket.
// Query i of a connection is due at t0 + i * connections / --rate and
// carries request id i; it is sent once it is due and fewer than kWindow
// queries of the connection are unanswered, and its latency runs from its
// due time, so a stall of the server or of the generator itself is charged
// to every query it delays.  How late each send was goes into the send-lag
// histogram.  At --rate 0 every query is due at once: the loop is closed,
// kWindow in flight per connection, and latency runs from the send (from
// the due time it would measure queue position).  Shed round-trips get
// their own histogram (shed_* artifact fields), so the query percentiles
// measure served work only.  Every series (query, shed, lag, update round-trip,
// apply) is an obs::Histogram: nearest-rank percentiles within 1/32 of
// exact, in fixed memory per connection.
//
// --verify FILE loads the same snapshot the server is serving, labels every
// node offline with the per-start engine (run_at_all_nodes), and fails
// unless every served label is bit-identical to the offline output for that
// node — the end-to-end check that the serving path (solver + answer memo
// + admission + hot swap) never changes an answer.
//
// --update-rate F mixes mutations into the workload: F * --requests
// MutationBatches (deterministic draws from propose_mutation) are applied
// synchronously on a dedicated connection, spread across the load window,
// while the query connections keep firing.  Requires --verify — the local
// snapshot is what batches are proposed against and mutated in lockstep
// with every server acknowledgment.  Per-response label verification is
// suspended during churn (a query racing an update may legitimately see
// either graph); instead, after the window drains, every node is re-queried
// synchronously and must match the offline labels of the locally-mutated
// instance bit for bit — the end-to-end differential that server-side
// mutate-then-query equals client-side mutate-then-solve.
//
// Usage: volcal_load --socket PATH [--requests N] [--connections C]
//                    [--rate QPS] [--zipf THETA] [--seed S] [--nodes N]
//                    [--update-rate F] [--verify FILE] [--artifact FILE]
// A numeric flag that is junk or out of range (see --help) exits 2.
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.hpp"
#include "perf/artifact.hpp"
#include "util/env.hpp"
#include "util/hash.hpp"
#include "volcal/io.hpp"
#include "volcal/problems.hpp"
#include "volcal/runtime.hpp"
#include "volcal/serve.hpp"

namespace volcal {
namespace {

// Zipfian(theta) sampler over [0, n): inverse-CDF by binary search on the
// precomputed cumulative weights 1/(i+1)^theta.  theta == 0 is uniform.
class ZipfSampler {
 public:
  ZipfSampler(std::int64_t n, double theta) : cdf_(static_cast<std::size_t>(n)) {
    double total = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[static_cast<std::size_t>(i)] = total;
    }
    total_ = total;
  }

  std::int64_t sample(std::uint64_t* state) const {
    *state = splitmix64(*state + 0x9e3779b97f4a7c15ull);
    const double u =
        static_cast<double>(*state >> 11) * (1.0 / 9007199254740992.0) * total_;
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const auto idx = static_cast<std::int64_t>(it - cdf_.begin());
    return std::min<std::int64_t>(idx, static_cast<std::int64_t>(cdf_.size()) - 1);
  }

 private:
  std::vector<double> cdf_;
  double total_ = 0.0;
};

// At most this many queries of one connection are unanswered at a time;
// volbench's closed-loop phase uses the same window.
constexpr std::int64_t kWindow = 256;

struct ConnectionTally {
  std::int64_t sent = 0;
  std::int64_t results = 0;
  std::int64_t shed = 0;
  std::int64_t invalid = 0;
  std::int64_t mismatches = 0;
  obs::Histogram latency;       // served results only, ns
  obs::Histogram shed_latency;  // shed round-trips, separately
  obs::Histogram lag;           // send time - due time, ns (--rate > 0)

  void merge(const ConnectionTally& t) {
    sent += t.sent;
    results += t.results;
    shed += t.shed;
    invalid += t.invalid;
    mismatches += t.mismatches;
    latency.merge(t.latency);
    shed_latency.merge(t.shed_latency);
    lag.merge(t.lag);
  }
};

struct LoadPlan {
  std::string socket_path;
  std::int64_t requests = 2000;
  int connections = 1;
  double rate = 0.0;  // total target QPS across connections; 0 = all due at once
  double zipf = 0.99;
  std::uint64_t seed = 7;
  std::int64_t nodes = 0;
  double update_rate = 0.0;   // fraction of --requests sent as MutationBatches
  std::int64_t updates = 0;   // derived: llround(requests * update_rate)
  const std::vector<int>* expected = nullptr;  // offline labels, when verifying
};

// The updater connection's ledger: one entry per Update round-trip, plus the
// eviction/retention totals the server reported for its region invalidations.
struct UpdateTally {
  std::int64_t updates = 0;
  std::int64_t applied = 0;
  std::int64_t rejected = 0;
  std::int64_t cache_evicted = 0;
  std::int64_t cache_retained = 0;
  std::int64_t flushes = 0;
  obs::Histogram round_trip;  // client round-trip, ns
  obs::Histogram apply;       // server-side apply time, ns
};

std::int64_t ns_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// One connection's ppoll loop (see the top of the file).  Every query is
// answered by exactly one Result or Shed; a response whose id was never sent,
// or was already answered, fails the connection.
bool run_connection(const LoadPlan& plan, int conn_index, ConnectionTally* tally) {
  serve::ServeClient client;
  if (!client.connect(plan.socket_path)) {
    std::fprintf(stderr, "volcal_load: cannot connect to %s\n",
                 plan.socket_path.c_str());
    return false;
  }
  const std::int64_t count =
      plan.requests / plan.connections + (conn_index < plan.requests % plan.connections);

  // The schedule, filled before the loop: query i's node, and once it is
  // sent, the ns since t0 its latency runs from (-1 once answered).
  ZipfSampler sampler(plan.nodes, plan.zipf);
  std::uint64_t rng = splitmix64(plan.seed + static_cast<std::uint64_t>(conn_index));
  std::vector<std::int32_t> node(static_cast<std::size_t>(count));  // nodes < 2^31
  for (std::int32_t& v : node) v = static_cast<std::int32_t>(sampler.sample(&rng));
  std::vector<std::int64_t> origin(static_cast<std::size_t>(count), 0);

  constexpr double kNever = 0x1p62;  // ns; due times saturate here, whatever the --rate
  const double period_ns =
      plan.rate > 0.0 ? std::min(1e9 * static_cast<double>(plan.connections) / plan.rate, kNever)
                      : 0.0;
  const auto due = [&](std::int64_t i) {
    return static_cast<std::int64_t>(std::min(static_cast<double>(i) * period_ns, kNever));
  };
  const auto t0 = std::chrono::steady_clock::now();
  std::int64_t next = 0;
  std::int64_t answered = 0;
  while (answered < count) {
    std::int64_t now = ns_since(t0);
    while (next < count && next - answered < kWindow && due(next) <= now) {
      if (period_ns > 0.0) tally->lag.add(now - due(next));
      origin[static_cast<std::size_t>(next)] = period_ns > 0.0 ? due(next) : now;
      if (!client.post_query(static_cast<std::uint64_t>(next),
                             node[static_cast<std::size_t>(next)])) {
        std::fprintf(stderr, "volcal_load: send failed on connection %d\n", conn_index);
        return false;
      }
      ++tally->sent;
      ++next;
      now = ns_since(t0);
    }

    // Sleep until a response arrives or, if the window has room, the next
    // query falls due.
    const bool can_send = next < count && next - answered < kWindow;
    const std::int64_t wait = can_send ? std::max<std::int64_t>(due(next) - now, 0) : 0;
    const timespec timeout{static_cast<time_t>(wait / 1'000'000'000),
                           static_cast<long>(wait % 1'000'000'000)};
    pollfd pfd{client.fd(), POLLIN, 0};
    const int ready = ::ppoll(&pfd, 1, can_send ? &timeout : nullptr, nullptr);
    if (ready < 0 && errno != EINTR) {
      std::perror("volcal_load: ppoll");
      return false;
    }
    if (ready <= 0) continue;

    const bool open = client.read_some();
    const std::int64_t received = ns_since(t0);
    serve::Frame frame;
    while (client.next(&frame)) {
      const bool shed = frame.type == serve::FrameType::Shed;
      if (!shed && frame.type != serve::FrameType::Result) continue;  // Bye
      const std::uint64_t id = shed ? frame.shed.request_id : frame.result.request_id;
      if (id >= static_cast<std::uint64_t>(next) || origin[id] < 0) {
        std::fprintf(stderr, "volcal_load: connection %d: request %llu is not in flight\n",
                     conn_index, static_cast<unsigned long long>(id));
        return false;
      }
      const std::int64_t latency = received - origin[id];
      origin[id] = -1;
      ++answered;
      if (shed) {
        // Shed round-trips are timed into their own series, never into the
        // query latency histogram.
        ++tally->shed;
        tally->shed_latency.add(latency);
        continue;
      }
      ++tally->results;
      tally->latency.add(latency);
      if (frame.result.status != serve::QueryStatus::Ok) {
        ++tally->invalid;
      } else if (plan.expected != nullptr &&
                 frame.result.label != (*plan.expected)[static_cast<std::size_t>(node[id])]) {
        ++tally->mismatches;
      }
    }
    if (!open && answered < count) {
      std::fprintf(stderr, "volcal_load: connection %d lost with %lld queries unanswered\n",
                   conn_index, static_cast<long long>(count - answered));
      return false;
    }
  }
  return true;
}

// The updater connection (--update-rate): `plan.updates` MutationBatches,
// each a deterministic propose_mutation draw against `local`, applied
// synchronously (one Update in flight) and mirrored onto `local` only after
// the server acknowledges Ok — so client and server graphs stay in lockstep
// batch-for-batch.  With a target --rate the updates are spread evenly
// across the expected load window; at --rate 0 the synchronous round-trips
// pace themselves.
bool run_updater(const LoadPlan& plan, ErasedInstance* local, UpdateTally* tally) {
  serve::ServeClient client;
  if (!client.connect(plan.socket_path)) {
    std::fprintf(stderr, "volcal_load: updater cannot connect to %s\n",
                 plan.socket_path.c_str());
    return false;
  }
  const double window_seconds =
      plan.rate > 0.0 ? static_cast<double>(plan.requests) / plan.rate : 0.0;
  const auto begin = std::chrono::steady_clock::now();
  for (std::int64_t u = 0; u < plan.updates; ++u) {
    if (window_seconds > 0.0) {
      const double at = window_seconds * (static_cast<double>(u) + 0.5) /
                        static_cast<double>(plan.updates);
      std::this_thread::sleep_until(
          begin + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(at)));
    }
    const MutationBatch batch = local->propose_mutation(
        splitmix64(plan.seed + 0x75706474ull /* "updt" */ + static_cast<std::uint64_t>(u)),
        /*rewires=*/2, /*label_updates=*/2);
    const auto sent_at = std::chrono::steady_clock::now();
    const serve::ServeClient::UpdateReply reply = client.update(batch);
    if (!reply.ok) {
      std::fprintf(stderr, "volcal_load: update %lld lost its connection\n",
                   static_cast<long long>(u));
      return false;
    }
    ++tally->updates;
    tally->round_trip.add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - sent_at)
                              .count());
    if (reply.result.status != serve::UpdateStatus::Ok) {
      // Batches are proposed against the acknowledged graph, so a rejection
      // means the two sides disagree about the current structure — fatal.
      ++tally->rejected;
      std::fprintf(stderr, "volcal_load: server rejected update %lld\n",
                   static_cast<long long>(u));
      return false;
    }
    ++tally->applied;
    tally->cache_evicted += static_cast<std::int64_t>(reply.result.cache_evicted);
    tally->cache_retained += static_cast<std::int64_t>(reply.result.cache_retained);
    if (reply.result.flushed != 0) ++tally->flushes;
    tally->apply.add(reply.result.apply_ns);
    *local = local->mutated(batch);
  }
  client.bye();
  return true;
}

// Post-churn differential: every node queried synchronously against the
// offline labels of the final locally-mutated instance.  Sheds are retried
// after the advertised backoff (the load window has drained; the server
// should be idle).
bool final_verify(const LoadPlan& plan, const std::vector<int>& expected,
                  std::int64_t* mismatches) {
  serve::ServeClient client;
  if (!client.connect(plan.socket_path)) {
    std::fprintf(stderr, "volcal_load: verifier cannot connect to %s\n",
                 plan.socket_path.c_str());
    return false;
  }
  for (std::int64_t node = 0; node < static_cast<std::int64_t>(expected.size()); ++node) {
    serve::ServeClient::QueryReply reply;
    for (int attempt = 0; attempt < 100; ++attempt) {
      reply = client.query(node);
      if (!reply.ok || !reply.shed) break;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::max<std::uint32_t>(reply.retry_after_ms, 1)));
    }
    if (!reply.ok || reply.shed) {
      std::fprintf(stderr, "volcal_load: verify query for node %lld got no answer\n",
                   static_cast<long long>(node));
      return false;
    }
    if (reply.result.status != serve::QueryStatus::Ok ||
        reply.result.label != expected[static_cast<std::size_t>(node)]) {
      ++*mismatches;
    }
  }
  client.bye();
  return true;
}

bool write_artifact(const std::string& path, const ConnectionTally& total,
                    const UpdateTally& updates, double wall_seconds) {
  perf::BenchArtifact artifact;
  artifact.kind = "bench-report";
  artifact.tool = "volcal_load";
  artifact.stamp_probes(1);
  artifact.total_wall_seconds = wall_seconds;
  artifact.phases.push_back({"load", wall_seconds});

  perf::ServeStatsBlock serve_block;
  serve_block.accepted = total.sent;
  serve_block.completed = total.results;
  serve_block.shed = total.shed;
  serve_block.invalid = total.invalid;
  serve_block.set_latency(total.latency);
  serve_block.wall_seconds = wall_seconds;
  serve_block.qps =
      wall_seconds > 0.0 ? static_cast<double>(total.results) / wall_seconds : 0.0;
  serve_block.shed_latency_samples = total.shed_latency.count;
  serve_block.shed_p50_ns = static_cast<double>(total.shed_latency.quantile(0.50));
  serve_block.shed_p95_ns = static_cast<double>(total.shed_latency.quantile(0.95));
  serve_block.shed_p99_ns = static_cast<double>(total.shed_latency.quantile(0.99));
  artifact.serve = serve_block;

  artifact.curves.push_back(serve_block.latency_curve());

  if (updates.updates > 0) {
    perf::MutateStatsBlock mutate;
    mutate.updates = updates.updates;
    mutate.applied = updates.applied;
    mutate.rejected = updates.rejected;
    mutate.cache_evicted = updates.cache_evicted;
    mutate.cache_retained = updates.cache_retained;
    mutate.flushes = updates.flushes;
    mutate.update_p50_ns = static_cast<double>(updates.round_trip.quantile(0.50));
    mutate.update_p95_ns = static_cast<double>(updates.round_trip.quantile(0.95));
    mutate.update_p99_ns = static_cast<double>(updates.round_trip.quantile(0.99));
    mutate.apply_p50_ns = static_cast<double>(updates.apply.quantile(0.50));
    artifact.mutate = mutate;
  }
  return artifact.write_file(path);
}

constexpr const char* kTool = "volcal_load";
constexpr std::int64_t kMaxInt = std::numeric_limits<std::int64_t>::max();
constexpr double kMaxDouble = std::numeric_limits<double>::max();

int run(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);  // a dying server surfaces as a send error
  // ppoll wakes within 1 us of a due time instead of the kernel's default
  // 50 us slack, which would read as latency.  Every thread inherits it.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  LoadPlan plan;
  std::string verify_path;
  std::string artifact_path;
  for (int i = 1; i < argc; ++i) {
    auto value_of = [&](const char* name) { return env::flag_value(argc, argv, &i, name); };
    if (const char* v = value_of("--socket")) {
      plan.socket_path = v;
    } else if (const char* v = value_of("--requests")) {
      plan.requests = env::int_flag(kTool, "--requests", v, 1, kMaxInt);
    } else if (const char* v = value_of("--connections")) {
      // One thread per connection: the cap bounds what a typo can start.
      plan.connections = static_cast<int>(env::int_flag(kTool, "--connections", v, 1, 256));
    } else if (const char* v = value_of("--rate")) {
      plan.rate = env::number_flag(kTool, "--rate", v, 0.0, kMaxDouble);
    } else if (const char* v = value_of("--zipf")) {
      plan.zipf = env::number_flag(kTool, "--zipf", v, 0.0, kMaxDouble);
    } else if (const char* v = value_of("--seed")) {
      plan.seed = static_cast<std::uint64_t>(env::int_flag(kTool, "--seed", v, 0, kMaxInt));
    } else if (const char* v = value_of("--nodes")) {
      // A snapshot holds at most 2^31 - 1 nodes.
      plan.nodes =
          env::int_flag(kTool, "--nodes", v, 1, std::numeric_limits<std::int32_t>::max());
    } else if (const char* v = value_of("--update-rate")) {
      plan.update_rate = env::number_flag(kTool, "--update-rate", v, 0.0, 1.0);
    } else if (const char* v = value_of("--verify")) {
      verify_path = v;
    } else if (const char* v = value_of("--artifact")) {
      artifact_path = v;
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::printf(
          "volcal_load — Zipfian load generator for volcal_serve\n\n"
          "  --socket <p>       serve socket to drive (required)\n"
          "  --requests <n>     total queries across connections, >= 1 [2000]\n"
          "  --connections <c>  parallel connections, 1-256 [1]\n"
          "  --rate <qps>       open-loop send rate, >= 0; 0 = closed loop, 256 in\n"
          "                     flight per connection [0]\n"
          "  --zipf <theta>     Zipf exponent, >= 0; 0 = uniform [0.99]\n"
          "  --seed <s>         traffic seed, 0 to 2^63-1 [7]\n"
          "  --nodes <n>        node universe, 1 to 2^31-1 (required unless --verify)\n"
          "  --update-rate <f>  in [0, 1): mix in f * requests mutation batches on a\n"
          "                     dedicated connection (requires --verify)\n"
          "  --verify <f>       offline-label this snapshot and compare every\n"
          "                     response bit-for-bit (with --update-rate: the\n"
          "                     comparison runs post-churn on the mutated graph)\n"
          "  --artifact <f>     write the client-side perf artifact\n");
      return 0;
    } else {
      std::fprintf(stderr, "volcal_load: unknown argument '%s' (try --help)\n", argv[i]);
      return 2;
    }
  }
  if (plan.socket_path.empty()) {
    std::fprintf(stderr, "volcal_load: --socket is required (try --help)\n");
    return 2;
  }
  if (plan.update_rate >= 1.0) {
    std::fprintf(stderr, "volcal_load: --update-rate must be in [0, 1)\n");
    return 2;
  }
  if (plan.update_rate > 0.0 && verify_path.empty()) {
    std::fprintf(stderr,
                 "volcal_load: --update-rate needs --verify (mutation batches are "
                 "proposed against the local snapshot)\n");
    return 2;
  }
  if (plan.update_rate > 0.0) {
    plan.updates = std::max<std::int64_t>(
        1, std::llround(static_cast<double>(plan.requests) * plan.update_rate));
  }

  // Offline ground truth: label every node with the per-start engine (the
  // serving path must match it bit for bit, memo hit or not).
  // Under churn (--update-rate) the per-response comparison is suspended —
  // an in-flight query may race an update and legitimately see either graph
  // — and the offline labels are computed AFTER the run, from the locally
  // mutated instance.
  std::vector<int> expected;
  std::optional<ErasedInstance> local;
  if (!verify_path.empty()) {
    try {
      local.emplace(io::load_instance(verify_path));
      plan.nodes = static_cast<std::int64_t>(local->node_count());
      if (plan.updates == 0) {
        const auto offline = run_at_all_nodes(
            local->graph(), local->ids(), [&](Execution& e) { return local->solve(e); });
        expected = offline.output;
        plan.expected = &expected;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "volcal_load: cannot verify against %s: %s\n",
                   verify_path.c_str(), e.what());
      return 1;
    }
  }
  if (plan.nodes < 1) {
    std::fprintf(stderr, "volcal_load: give --nodes (or --verify) to size the traffic\n");
    return 2;
  }

  std::vector<ConnectionTally> tallies(static_cast<std::size_t>(plan.connections));
  std::vector<std::thread> threads;
  std::vector<char> ok(static_cast<std::size_t>(plan.connections), 1);
  UpdateTally updates;
  bool updater_ok = true;
  const auto begin = std::chrono::steady_clock::now();
  for (int c = 0; c < plan.connections; ++c) {
    threads.emplace_back([&, c] {
      ok[static_cast<std::size_t>(c)] =
          run_connection(plan, c, &tallies[static_cast<std::size_t>(c)]) ? 1 : 0;
    });
  }
  if (plan.updates > 0) {
    threads.emplace_back(
        [&] { updater_ok = run_updater(plan, &*local, &updates); });
  }
  for (std::thread& t : threads) t.join();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();

  ConnectionTally total;
  for (const ConnectionTally& t : tallies) total.merge(t);
  const obs::Histogram& latency = total.latency;

  std::printf(
      "volcal_load: sent %lld, results %lld, shed %lld, invalid %lld in %.3f s "
      "(%.0f qps)\n",
      static_cast<long long>(total.sent), static_cast<long long>(total.results),
      static_cast<long long>(total.shed), static_cast<long long>(total.invalid),
      wall_seconds,
      wall_seconds > 0 ? static_cast<double>(total.results) / wall_seconds : 0.0);
  std::printf("volcal_load: latency p50 %" PRId64 " ns, p95 %" PRId64 " ns, p99 %" PRId64
              " ns (%" PRId64 " samples)\n",
              latency.quantile(0.50), latency.quantile(0.95), latency.quantile(0.99),
              latency.count);
  if (total.lag.count > 0) {
    std::printf("volcal_load: send lag p50 %" PRId64 " ns, p99 %" PRId64 " ns\n",
                total.lag.quantile(0.50), total.lag.quantile(0.99));
  }
  if (const obs::Histogram& shed = total.shed_latency; shed.count > 0) {
    std::printf("volcal_load: shed round-trips p50 %" PRId64 " ns, p99 %" PRId64
                " ns (%" PRId64 " samples)\n",
                shed.quantile(0.50), shed.quantile(0.99), shed.count);
  }
  if (plan.expected != nullptr) {
    std::printf("volcal_load: verify %s — %lld mismatch(es) across %lld result(s)\n",
                total.mismatches == 0 ? "OK" : "FAILED",
                static_cast<long long>(total.mismatches),
                static_cast<long long>(total.results));
  }

  // Post-churn differential: offline-label the locally-mutated instance and
  // re-query every node synchronously against the post-update server.
  std::int64_t churn_mismatches = 0;
  bool churn_verify_ok = true;
  if (plan.updates > 0) {
    std::printf(
        "volcal_load: updates %lld applied (%lld rejected), cache evicted %lld / "
        "retained %lld, %lld full flushes\n",
        static_cast<long long>(updates.applied),
        static_cast<long long>(updates.rejected),
        static_cast<long long>(updates.cache_evicted),
        static_cast<long long>(updates.cache_retained),
        static_cast<long long>(updates.flushes));
    if (updater_ok) {
      const auto offline = run_at_all_nodes(
          local->graph(), local->ids(), [&](Execution& e) { return local->solve(e); });
      churn_verify_ok = final_verify(plan, offline.output, &churn_mismatches);
      std::printf(
          "volcal_load: post-churn verify %s — %lld mismatch(es) across %lld node(s)\n",
          churn_verify_ok && churn_mismatches == 0 ? "OK" : "FAILED",
          static_cast<long long>(churn_mismatches),
          static_cast<long long>(plan.nodes));
    }
  }

  if (!artifact_path.empty() &&
      !write_artifact(artifact_path, total, updates, wall_seconds)) {
    return 1;
  }
  const bool passed = std::count(ok.begin(), ok.end(), 0) == 0 && total.mismatches == 0 &&
                      updater_ok && churn_verify_ok && churn_mismatches == 0;
  return passed ? 0 : 1;
}

}  // namespace
}  // namespace volcal

int main(int argc, char** argv) { return volcal::run(argc, argv); }
