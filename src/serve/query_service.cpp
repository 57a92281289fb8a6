#include "serve/query_service.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <optional>

#include "runtime/execution.hpp"
#include "runtime/parallel_runner.hpp"

namespace volcal::serve {

namespace {

QueryResult to_result(const Answer& a) {
  QueryResult r;
  r.label = a.label;
  r.volume = a.volume;
  r.distance = a.distance;
  r.queries = a.queries;
  return r;
}

}  // namespace

ServeTarget make_serve_target(std::shared_ptr<const ErasedInstance> instance) {
  return ServeTarget{std::move(instance)};
}

QueryService::QueryService(ServeTarget target, ServeConfig config)
    : config_(config),
      threads_(detail::resolve_thread_count(config.threads)),
      batch_max_(std::max(1, config.batch_max)),
      start_(std::chrono::steady_clock::now()),
      target_(std::make_shared<const ServeTarget>(std::move(target))),
      memo_(config.cache.policy == CachePolicy::Shared ? target_->instance->node_count() : 0),
      memo_on_(config.cache.policy == CachePolicy::Shared),
      latency_(config.stats_window_seconds) {
  c_accepted_ = metrics_.counter("serve.accepted");
  c_completed_ = metrics_.counter("serve.completed");
  c_shed_ = metrics_.counter("serve.shed");
  c_invalid_ = metrics_.counter("serve.invalid");
  c_swaps_ = metrics_.counter("serve.swaps");
  c_waves_ = metrics_.counter("serve.waves");
  c_slow_ = metrics_.counter("serve.slow_queries");
  c_mutations_ = metrics_.counter("serve.mutations");
  c_mut_evicted_ = metrics_.counter("serve.mutate.cache_evicted");
  c_mut_retained_ = metrics_.counter("serve.mutate.cache_retained");
  workers_.reserve(static_cast<std::size_t>(threads_));
  for (int w = 0; w < threads_; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

QueryService::~QueryService() { drain_and_stop(); }

std::shared_ptr<const ServeTarget> QueryService::current_target() const {
  std::lock_guard lock(target_mu_);
  return target_;
}

std::shared_ptr<const ServeTarget> QueryService::snapshot_target(
    AnswerMemo::Generation* generation) const {
  std::lock_guard lock(target_mu_);
  *generation = memo_.generation();
  return target_;
}

CacheStats QueryService::cache_stats() const {
  if (!memo_on_) return {};
  return memo_.stats();
}

NodeIndex QueryService::node_count() const {
  return current_target()->instance->node_count();
}

Admission QueryService::submit(std::uint64_t request_id, std::int64_t node,
                               std::function<void(const QueryResult&)> done) {
  {
    std::lock_guard lock(mu_);
    if (draining_ || stop_) {
      c_shed_->inc();
      return Admission::Stopped;
    }
    if (queue_.size() >= config_.queue_capacity) {
      c_shed_->inc();
      return Admission::Shed;
    }
    Request req;
    req.id = request_id;
    req.node = node;
    req.done = std::move(done);
    req.enqueued = std::chrono::steady_clock::now();
    req.seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    // Bump accepted before the request becomes poppable: once the lock drops
    // a worker may run the whole request, and a completion must never be
    // observable before its admission (stats readers check completed <=
    // accepted).
    c_accepted_->inc();
    queue_.push_back(std::move(req));
  }
  not_empty_.notify_one();
  return Admission::Accepted;
}

void QueryService::swap_target(ServeTarget next) {
  auto holder = std::make_shared<const ServeTarget>(std::move(next));
  {
    std::lock_guard update(update_mu_);
    std::lock_guard lock(target_mu_);
    if (memo_on_) memo_.reset(holder->instance->node_count());
    target_ = std::move(holder);
  }
  c_swaps_->inc();
}

MutationOutcome QueryService::apply_mutations(const MutationBatch& batch) {
  MutationOutcome out;
  const auto t0 = std::chrono::steady_clock::now();
  // update_mu_ keeps `old` the served target until the install below (no
  // other mutation or swap runs in between).  The copy-on-write rebuild runs
  // outside target_mu_, so waves keep snapshotting the old target meanwhile.
  std::lock_guard update(update_mu_);
  const std::shared_ptr<const ServeTarget> old = current_target();
  std::vector<NodeIndex> touched;
  std::shared_ptr<const ServeTarget> next;
  try {
    next = std::make_shared<const ServeTarget>(ServeTarget{
        std::make_shared<const ErasedInstance>(old->instance->mutated(batch, &touched))});
  } catch (const std::invalid_argument& e) {
    out.error = e.what();
    return out;
  }
  {
    // Evict + install in one critical section: workers snapshot the target
    // and its memo generation under the same mutex (snapshot_target), so no
    // wave can take the new generation before the eviction pass is done and
    // the mutated target is in place.
    std::lock_guard lock(target_mu_);
    if (memo_on_) {
      const AnswerMemo::Eviction ev =
          memo_.evict_region(old->instance->graph(), changed_nodes(batch, touched));
      out.cache_evicted = ev.evicted;
      out.cache_retained = ev.retained;
    }
    target_ = std::move(next);
  }
  c_swaps_->inc();
  c_mutations_->inc();
  c_mut_evicted_->inc(static_cast<std::int64_t>(out.cache_evicted));
  c_mut_retained_->inc(static_cast<std::int64_t>(out.cache_retained));
  out.apply_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  out.ok = true;
  return out;
}

void QueryService::drain_and_stop() {
  {
    std::unique_lock lock(mu_);
    draining_ = true;
    idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
    stop_ = true;
  }
  not_empty_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

ServeCounters QueryService::counters() const {
  ServeCounters out;
  // Read completed before accepted: the reads race with live traffic, and a
  // request finishing between them then skews accepted high — the harmless
  // direction, since every completion was an admission first.  The reverse
  // order could snapshot completed > accepted, which readers rightly treat
  // as impossible.
  out.completed = c_completed_->value();
  out.invalid = c_invalid_->value();
  out.shed = c_shed_->value();
  out.swaps = c_swaps_->value();
  out.accepted = c_accepted_->value();
  return out;
}

obs::WindowedHistogram::Views QueryService::latency() const {
  return latency_.read(since_start_ns(std::chrono::steady_clock::now()));
}

std::size_t QueryService::queue_depth() const {
  std::lock_guard lock(mu_);
  return queue_.size();
}

std::size_t QueryService::in_flight() const {
  std::lock_guard lock(mu_);
  return in_flight_;
}

double QueryService::uptime_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
      .count();
}

std::vector<SlowQuery> QueryService::slow_queries() const {
  std::lock_guard lock(slow_mu_);
  return {slow_.begin(), slow_.end()};
}

namespace {

// A latency block: the percentile fields every consumer reads, then the
// histogram itself (count, min, max, sum, buckets).
void append_latency(std::string& out, const char* key, const obs::Histogram& h) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "\"p50_ns\": %" PRId64 ", \"p95_ns\": %" PRId64 ", \"p99_ns\": %" PRId64
                ", \"mean_ns\": %.1f, \"max_ns\": %" PRId64 ", ",
                h.quantile(0.50), h.quantile(0.95), h.quantile(0.99), h.mean(), h.max);
  out += '"';
  out += key;
  out += "\": ";
  h.append_json(out, buf);
}

}  // namespace

std::string QueryService::stats_json() const {
  const double uptime = uptime_seconds();
  const std::size_t depth = queue_depth();
  const std::size_t inflight = in_flight();
  const ServeCounters c = counters();
  const obs::WindowedHistogram::Views lat = latency();
  const CacheStats cache = cache_stats();
  const std::int64_t waves = c_waves_->value();

  std::string out;
  out.reserve(16384);
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"kind\": \"serve-stats\", \"schema_version\": 1"
                ", \"uptime_seconds\": %.6f, \"queue_depth\": %zu"
                ", \"in_flight\": %zu, \"accepted\": %" PRId64
                ", \"completed\": %" PRId64 ", \"shed\": %" PRId64
                ", \"invalid\": %" PRId64 ", \"swaps\": %" PRId64
                ", \"slow_queries\": %" PRId64 ", ",
                uptime, depth, inflight, c.accepted, c.completed, c.shed,
                c.invalid, c.swaps, c_slow_->value());
  out += buf;
  append_latency(out, "latency", lat.since_start);
  out += ", \"window\": {";
  std::snprintf(buf, sizeof buf, "\"seconds\": %.3f, ",
                config_.stats_window_seconds);
  out += buf;
  append_latency(out, "latency", lat.window);
  out += "}, ";
  std::snprintf(buf, sizeof buf,
                "\"cache\": {\"hits\": %" PRId64 ", \"misses\": %" PRId64
                ", \"evictions\": %" PRId64 ", \"served_nodes\": %" PRId64
                ", \"inserted_bytes\": %" PRId64 "}, ",
                cache.hits, cache.misses, cache.evictions, cache.served_nodes,
                cache.inserted_bytes);
  out += buf;
  std::snprintf(buf, sizeof buf,
                "\"batch\": {\"waves\": %" PRId64 ", \"batch_max\": %d}, \"metrics\": ",
                waves, batch_max_);
  out += buf;
  metrics_.snapshot().append_json(out);
  out += '}';
  return out;
}

void QueryService::finish(Request& req, QueryResult result,
                          const FinishContext& ctx) {
  result.request_id = req.id;
  result.node = req.node;
  const auto now = std::chrono::steady_clock::now();
  result.latency_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          now - req.enqueued)
                          .count();
  latency_.add(since_start_ns(now), result.latency_ns);
  const bool invalid = result.status == QueryStatus::InvalidNode;
  c_completed_->inc();
  if (invalid) c_invalid_->inc();
  if (ctx.volume_hist != nullptr && !invalid) {
    ctx.volume_hist->add(result.volume);
  }
  if (config_.slow_threshold_ns >= 0 &&
      result.latency_ns >= config_.slow_threshold_ns) {
    c_slow_->inc();
    SlowQuery q;
    q.seq = req.seq;
    q.client_id = req.id;
    q.node = req.node;
    q.wave = ctx.wave;
    q.latency_ns = result.latency_ns;
    q.volume = result.volume;
    q.cache_hit = ctx.cache_hit;
    q.invalid = invalid;
    std::lock_guard lock(slow_mu_);
    slow_.push_back(q);
    while (slow_.size() > config_.slow_log_capacity) slow_.pop_front();
  }
  if (req.done) req.done(result);
  if (config_.tracer != nullptr) {
    // done_ns stamps *after* the callback so the "write" slice covers the
    // response write; latency_ns keeps the repo-wide enqueue->dispatch
    // definition.
    RequestSpan span;
    span.seq = req.seq;
    span.client_id = req.id;
    span.node = req.node;
    span.worker = ctx.worker;
    span.wave = ctx.wave;
    span.admit_ns = config_.tracer->to_ns(req.enqueued);
    span.dequeue_ns = config_.tracer->to_ns(ctx.dequeued);
    span.exec_begin_ns = config_.tracer->to_ns(ctx.exec_begin);
    span.exec_end_ns = config_.tracer->to_ns(ctx.exec_end);
    span.done_ns = config_.tracer->now_ns();
    span.volume = result.volume;
    span.latency_ns = result.latency_ns;
    span.cache_hit = ctx.cache_hit;
    span.invalid = invalid;
    config_.tracer->record(span);
  }
}

void QueryService::worker_loop(int worker) {
  ExecutionScratch scratch;
  std::vector<Request> wave;
  // Per-family volume histogram handle, re-resolved only when the served
  // family changes (i.e. across a hot swap) — lookups take the registry
  // mutex, so keep them off the per-wave path.
  std::string volume_family;
  obs::ShardedHistogram* volume_hist = nullptr;

  while (true) {
    wave.clear();
    {
      std::unique_lock lock(mu_);
      not_empty_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      const std::size_t take =
          std::min(queue_.size(), static_cast<std::size_t>(batch_max_));
      for (std::size_t i = 0; i < take; ++i) {
        wave.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      in_flight_ += take;
    }
    c_waves_->inc();

    // Snapshot the target and its memo generation for this whole wave: a
    // concurrent swap cannot pull the mapping out from under us, every
    // request is answered against one consistent instance, and the memo
    // only serves and keeps answers of that instance.
    AnswerMemo::Generation generation = 0;
    const std::shared_ptr<const ServeTarget> target = snapshot_target(&generation);
    const ErasedInstance& inst = *target->instance;
    const auto n = static_cast<std::int64_t>(inst.node_count());

    if (inst.family() != volume_family) {
      volume_family = inst.family();
      volume_hist = metrics_.histogram("serve.volume." + volume_family);
    }

    FinishContext ctx;
    ctx.worker = worker;
    ctx.wave = wave_.fetch_add(1, std::memory_order_relaxed) + 1;
    ctx.dequeued = std::chrono::steady_clock::now();
    ctx.volume_hist = volume_hist;

    // Invalid nodes and memo hits are answered at once; every other request
    // runs the family's own solve() — by definition the offline per-start
    // loop's answer.
    for (Request& req : wave) {
      QueryResult result;
      ctx.exec_begin = std::chrono::steady_clock::now();
      ctx.cache_hit = false;
      if (req.node < 0 || req.node >= n) {
        result.status = QueryStatus::InvalidNode;
      } else if (const auto hit = memo_on_ ? memo_.lookup(req.node, generation)
                                           : std::optional<Answer>{}) {
        result = to_result(*hit);
        ctx.cache_hit = true;
      } else {
        const Answer a = inst.answer_at(static_cast<NodeIndex>(req.node), scratch);
        if (memo_on_) memo_.store(req.node, generation, a);
        result = to_result(a);
      }
      ctx.exec_end = std::chrono::steady_clock::now();
      finish(req, result, ctx);
    }

    {
      std::lock_guard lock(mu_);
      in_flight_ -= wave.size();
      if (queue_.empty() && in_flight_ == 0) idle_.notify_all();
    }
  }
}

}  // namespace volcal::serve
