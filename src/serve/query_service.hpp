// QueryService — the long-running concurrent query core behind volcal_serve.
//
// The offline engine (ParallelRunner) answers "label every node" sweeps; the
// service answers the online form of the same question: per-node label
// queries arriving one at a time, from many clients, against a loaded
// instance (typically a .vsnap mapping).  Three properties carry over from
// the sweep engine, by construction:
//
//   * Bit-identical answers.  With the answer memo on (ServeConfig::cache
//     Shared), a wave first serves every request whose node has a memoized
//     answer (runtime/answer_memo.hpp); every other request runs the
//     family's solve() on the worker's ExecutionScratch
//     (ErasedInstance::answer_at), and every computed answer is stored back.
//     Either way a served label equals the offline run_at_all_nodes output
//     for that node — volcal_load --verify asserts this end to end.
//
//   * Exact cost meters.  Each result carries the volume / distance /
//     query-count the paper's Definitions 2.1-2.2 assign to that start; a
//     memo hit replays the stored meters.
//
//   * Safe hot swap and live mutation.  swap_target() atomically replaces
//     the served instance and resets the memo; apply_mutations() swaps in
//     the mutated instance and evicts only the answers the batch can reach.
//     In-flight waves finish against the target they snapshotted (the
//     shared_ptr keeps the old mapping alive until the last wave drops it),
//     and the memo's generations keep them from serving or storing an
//     answer for any other target (the race rule in answer_memo.hpp).
//
// Admission control: a bounded FIFO queue.  submit() returns Shed when the
// queue is full (the caller answers with retry_after_ms) and Stopped once
// draining — accepted requests are never dropped.  drain_and_stop() stops
// admission, waits for the queue and all in-flight waves to finish (every
// accepted callback has run by return), then joins the workers.
//
// Threading: `threads` workers pop a wave of up to `batch_max` requests at a
// time and answer them one after another; completion callbacks run on
// worker threads and must be fast and thread-safe (the socket layer
// serializes per-connection writes).  Latency
// is measured enqueue -> callback-dispatch per request and recorded once,
// into an obs::WindowedHistogram (obs/histogram.hpp): since-start and
// windowed nearest-rank percentiles within 1/32 of the exact ones, in
// constant memory however long the service runs.
//
// Observability: every counter lives in the service's obs::MetricsRegistry
// (per-thread sharded atomics — the query path bumps them without taking a
// lock), readable at any moment via metrics() or as one JSON snapshot via
// stats_json(): uptime, queue depth, in-flight, admission counters, the
// since-start latency histogram and the one over the last
// stats_window_seconds (percentiles plus buckets), memo counters, the wave
// count, and the per-family volume histograms ("serve.volume.<family>").
// A poll reads fixed-size histograms, so its cost does not grow with uptime
// or traffic.  The transport answers the protocol's Stats frame with exactly
// this snapshot.  Optional per-request spans (ServeConfig::tracer) and a
// bounded slow-query log (slow_threshold_ns) attribute tail latency to
// specific requests.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "lcl/registry.hpp"
#include "obs/registry.hpp"
#include "runtime/answer_memo.hpp"
#include "serve/protocol.hpp"
#include "serve/trace.hpp"

namespace volcal::serve {

// What the service answers queries against: a loaded instance.  The
// shared_ptr is the hot-swap unit: workers snapshot it per wave, so an old
// target's mapping stays alive exactly until the last wave against it
// completes.
struct ServeTarget {
  std::shared_ptr<const ErasedInstance> instance;
};

// Wraps a loaded instance as a ServeTarget.
ServeTarget make_serve_target(std::shared_ptr<const ErasedInstance> instance);

struct ServeConfig {
  // Worker threads; 0 resolves like the sweep engine (VOLCAL_THREADS, else 1).
  int threads = 0;
  // Bounded admission queue; submits beyond this are shed.
  std::size_t queue_capacity = 1024;
  // Requests a worker pops per wave; values below 1 count as 1.
  int batch_max = 64;
  // Advisory retry hint attached to shed responses.
  std::uint32_t retry_after_ms = 50;
  // Per-node answer memo (policy Shared to enable; Off recomputes every
  // answer).
  CacheConfig cache;
  // Sliding window for the windowed latency in stats_json(), resolved to a
  // tenth of its length.  Must be finite and > 0 (the constructor throws
  // std::invalid_argument otherwise).
  double stats_window_seconds = 10.0;
  // Slow-query log: completed requests with latency_ns >= slow_threshold_ns
  // are kept (newest slow_log_capacity of them); < 0 disables the log.
  std::int64_t slow_threshold_ns = -1;
  std::size_t slow_log_capacity = 1024;
  // Optional per-request span collection (caller-owned, must outlive the
  // service); see serve/trace.hpp.
  ServeTracer* tracer = nullptr;
};

// Outcome of one applied MutationBatch (apply_mutations).  On success the
// service is serving the mutated instance and the counters say how many
// memoized answers the batch evicted and how many stayed warm; on failure
// (`ok == false`) the batch was rejected before any state changed and
// `error` carries the reason.
struct MutationOutcome {
  bool ok = false;
  std::string error;
  std::size_t cache_evicted = 0;
  std::size_t cache_retained = 0;
  std::int64_t apply_ns = 0;
};

// One answered query; `status == InvalidNode` leaves label/meters zero.
struct QueryResult {
  std::uint64_t request_id = 0;
  std::int64_t node = 0;
  int label = 0;
  std::int64_t volume = 0;
  std::int64_t distance = 0;
  std::int64_t queries = 0;
  std::int64_t latency_ns = 0;
  QueryStatus status = QueryStatus::Ok;
};

enum class Admission {
  Accepted,  // callback will run exactly once
  Shed,      // queue full — retry after ServeConfig::retry_after_ms
  Stopped,   // draining/stopped — no retry
};

// Monotonic counter snapshot (swaps counts completed swap_target calls).
// The live values are registry counters ("serve.accepted", ...); this struct
// is the point-in-time read counters() returns.
struct ServeCounters {
  std::int64_t accepted = 0;
  std::int64_t completed = 0;
  std::int64_t shed = 0;
  std::int64_t invalid = 0;
  std::int64_t swaps = 0;
};

class QueryService {
 public:
  QueryService(ServeTarget target, ServeConfig config);
  ~QueryService();  // drains if the caller has not

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Enqueues one query.  On Accepted, `done` runs exactly once, on a worker
  // thread, before drain_and_stop() returns.  On Shed/Stopped, `done` never
  // runs (the transport answers with a Shed frame).
  Admission submit(std::uint64_t request_id, std::int64_t node,
                   std::function<void(const QueryResult&)> done);

  // Atomically replaces the served target and drops every memoized answer.
  // In-flight waves complete against the old target; the old mapping is
  // released when its last holder drops it.  Safe under full load.
  void swap_target(ServeTarget next);

  // Applies `batch` to the served instance copy-on-write and swaps the
  // mutated instance in, evicting only the memoized answers the batch can
  // reach: those at nodes v with a structurally touched or relabelled node
  // within old-graph distance distance(v) (AnswerMemo::evict_region).
  // In-flight waves finish against the old target exactly as under
  // swap_target.  An invalid batch (bad rewire, unsupported label channel)
  // is rejected whole: `ok == false`, the served target and the memo are
  // untouched.  Safe under full load and from any thread; calls serialize
  // with each other and with swap_target.  The copy-on-write rebuild runs
  // before the target lock is taken, so waves keep starting against the old
  // target meanwhile; only the memo eviction and the install hold it.
  MutationOutcome apply_mutations(const MutationBatch& batch);

  // Stops admission, completes every accepted request, joins the workers.
  // Idempotent; submit() returns Stopped from the moment this starts.
  void drain_and_stop();

  int threads() const { return threads_; }
  const ServeConfig& config() const { return config_; }
  NodeIndex node_count() const;

  ServeCounters counters() const;
  // Memo counters (zeros when the memo is off).
  CacheStats cache_stats() const;

  // Enqueue->completion latency (ns) of every completed request, and of the
  // completions of the last config().stats_window_seconds, read together so
  // the window never holds a sample since_start lacks.  Callable at any time.
  obs::WindowedHistogram::Views latency() const;

  // The service's metric namespace.  The transport registers its own
  // gauges/counters here (serve.connections, serve.accept_retries) so one
  // Stats snapshot covers the whole serving stack.
  obs::MetricsRegistry& metrics() { return metrics_; }

  std::size_t queue_depth() const;
  std::size_t in_flight() const;
  double uptime_seconds() const;

  // The slow-query log, oldest first (empty unless slow_threshold_ns >= 0).
  std::vector<SlowQuery> slow_queries() const;

  // One JSON object: the live metrics snapshot served as the Stats frame
  // payload and written per --stats-interval tick.  Layout documented in
  // DESIGN.md "Live observability".
  std::string stats_json() const;

 private:
  struct Request {
    std::uint64_t id = 0;
    std::int64_t node = 0;
    std::function<void(const QueryResult&)> done;
    std::chrono::steady_clock::time_point enqueued;
    std::uint64_t seq = 0;  // admission sequence — the tracing request ID
  };

  // Per-request completion context the worker threads hand to finish():
  // which wave the request rode, its timeline so far, and its cache outcome.
  struct FinishContext {
    int worker = -1;
    std::uint64_t wave = 0;
    std::chrono::steady_clock::time_point dequeued;
    std::chrono::steady_clock::time_point exec_begin;
    std::chrono::steady_clock::time_point exec_end;
    bool cache_hit = false;
    obs::ShardedHistogram* volume_hist = nullptr;
  };

  std::shared_ptr<const ServeTarget> current_target() const;
  // Snapshots the target together with the memo generation it is served at,
  // in one critical section on target_mu_ — the section swap_target and
  // apply_mutations move both in.  A wave uses this pair for all its memo
  // lookups and stores.
  std::shared_ptr<const ServeTarget> snapshot_target(AnswerMemo::Generation* generation) const;
  void worker_loop(int worker);
  void finish(Request& req, QueryResult result, const FinishContext& ctx);
  std::int64_t since_start_ns(std::chrono::steady_clock::time_point tp) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(tp - start_).count();
  }

  ServeConfig config_;
  int threads_ = 1;
  int batch_max_ = 64;
  std::chrono::steady_clock::time_point start_;

  // Serializes apply_mutations and swap_target, so the target a mutation was
  // built from is still the served one when the mutated target is installed.
  std::mutex update_mu_;
  mutable std::mutex target_mu_;
  std::shared_ptr<const ServeTarget> target_;

  AnswerMemo memo_;
  const bool memo_on_;

  mutable std::mutex mu_;
  std::condition_variable not_empty_;  // workers wait for requests / stop
  std::condition_variable idle_;       // drain waits for queue+in-flight == 0
  std::deque<Request> queue_;
  std::size_t in_flight_ = 0;
  bool draining_ = false;
  bool stop_ = false;

  // Metric namespace of this service instance (per-instance so tests and
  // multi-service processes keep exact per-service counts); handles cached
  // at construction, bumped lock-free on the query path.
  obs::MetricsRegistry metrics_;
  obs::Counter* c_accepted_ = nullptr;
  obs::Counter* c_completed_ = nullptr;
  obs::Counter* c_shed_ = nullptr;
  obs::Counter* c_invalid_ = nullptr;
  obs::Counter* c_swaps_ = nullptr;
  obs::Counter* c_waves_ = nullptr;
  obs::Counter* c_slow_ = nullptr;
  obs::Counter* c_mutations_ = nullptr;
  obs::Counter* c_mut_evicted_ = nullptr;
  obs::Counter* c_mut_retained_ = nullptr;

  std::atomic<std::uint64_t> seq_{0};   // admission sequence
  std::atomic<std::uint64_t> wave_{0};  // wave sequence

  obs::WindowedHistogram latency_;

  mutable std::mutex slow_mu_;
  std::deque<SlowQuery> slow_;

  std::vector<std::thread> workers_;
};

}  // namespace volcal::serve
