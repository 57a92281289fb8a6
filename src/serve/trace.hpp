// Per-request tracing for the query service.
//
// The service mints a monotone sequence number for every accepted request at
// admission and, when a ServeTracer is attached (ServeConfig::tracer —
// volcal_serve --trace-serve), records one RequestSpan per completed
// request: the admission → queue → wave → execute → write timeline, the
// request's volume, and its cache outcome.  Spans export to the Chrome
// trace_event format (chrome://tracing / Perfetto), one lane per worker,
// four consecutive "X" slices per request:
//
//   queue    admit -> dequeue           time spent in the admission queue
//   wave     dequeue -> exec begin      waiting behind the earlier requests
//                                       of the same wave
//   execute  exec begin -> exec end     this request's own triage and
//                                       execution (a memo hit collapses to
//                                       its lookup)
//   write    exec end -> done           completion callback (response write)
//
// Args carry {seq, id, node, wave, volume, cache_hit} so a slow span can be
// attributed to a hot ball or a cold cache directly in the viewer.
//
// The slow-query log is the always-cheap sibling: requests whose latency
// meets ServeConfig::slow_threshold_ns are recorded in a bounded ring
// (newest kept) with the same attribution fields, written as JSONL by
// volcal_serve --slow-log.  Both collectors are bounded — a long-running
// server cannot grow them without limit (the tracer counts what it drops).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace volcal::serve {

// One request's life through the service; timestamps are nanoseconds since
// the tracer's epoch (its construction).
struct RequestSpan {
  std::uint64_t seq = 0;        // service-minted admission sequence number
  std::uint64_t client_id = 0;  // client-chosen request_id
  std::int64_t node = 0;
  int worker = -1;
  std::uint64_t wave = 0;  // service-wide wave (batch) sequence number
  std::int64_t admit_ns = 0;
  std::int64_t dequeue_ns = 0;
  std::int64_t exec_begin_ns = 0;
  std::int64_t exec_end_ns = 0;
  std::int64_t done_ns = 0;
  std::int64_t volume = 0;
  std::int64_t latency_ns = 0;
  bool cache_hit = false;
  bool invalid = false;
};

// Thread-safe bounded span collector.  record() past capacity drops the
// span and counts it — tracing must never become the service's memory leak.
class ServeTracer {
 public:
  explicit ServeTracer(std::size_t capacity = std::size_t{1} << 20)
      : epoch_(std::chrono::steady_clock::now()), capacity_(capacity) {}

  ServeTracer(const ServeTracer&) = delete;
  ServeTracer& operator=(const ServeTracer&) = delete;

  std::int64_t to_ns(std::chrono::steady_clock::time_point tp) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(tp - epoch_).count();
  }
  std::int64_t now_ns() const { return to_ns(std::chrono::steady_clock::now()); }

  void record(const RequestSpan& span) {
    std::lock_guard lock(mu_);
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    spans_.push_back(span);
  }

  std::vector<RequestSpan> spans() const {
    std::lock_guard lock(mu_);
    return spans_;
  }

  std::int64_t dropped() const {
    std::lock_guard lock(mu_);
    return dropped_;
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<RequestSpan> spans_;
  std::int64_t dropped_ = 0;
};

// One slow-query record (latency >= ServeConfig::slow_threshold_ns).
struct SlowQuery {
  std::uint64_t seq = 0;
  std::uint64_t client_id = 0;
  std::int64_t node = 0;
  std::uint64_t wave = 0;
  std::int64_t latency_ns = 0;
  std::int64_t volume = 0;
  bool cache_hit = false;
  bool invalid = false;
};

// Chrome trace_event export of collected spans (queue/wave/execute/write
// slices per request, tid = worker).
bool write_serve_chrome_trace(const std::string& path,
                              std::span<const RequestSpan> spans);

// JSONL export of the slow-query log, one record per line.
bool write_slow_query_log(const std::string& path, std::span<const SlowQuery> slow);

}  // namespace volcal::serve
