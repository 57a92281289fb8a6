// Query-service layer (src/serve/): wire protocol, admission control, drain
// ordering, latency accounting, and end-to-end hot-swap exactness (a swap
// resets the answer memo, so nothing keys on a recyclable address).
//
// The load-bearing contract: a label served by QueryService equals the
// offline engine's output for that node, bit for bit — computed by the
// family's solver, replayed from answer-memo hits, across snapshot swaps and
// across live mutations (tests/answer_memo_test.cpp pins the memo's race
// rule and its region eviction at the unit level).
#include <gtest/gtest.h>

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "perf/json.hpp"
#include "volcal/io.hpp"
#include "volcal/problems.hpp"
#include "volcal/runtime.hpp"
#include "volcal/serve.hpp"

namespace volcal::serve {
namespace {

namespace fs = std::filesystem;

TEST(ServeProtocol, FramesRoundTripThroughAChunkedStream) {
  QueryFrame q;
  q.request_id = 0x1122334455667788ull;
  q.node = -7;
  ResultFrame r;
  r.request_id = 42;
  r.status = QueryStatus::InvalidNode;
  r.node = 1;
  r.label = -3;
  r.volume = 1LL << 40;
  r.distance = 4;
  r.queries = 99;
  r.latency_ns = 123456789;
  ShedFrame s;
  s.request_id = 7;
  s.retry_after_ms = 50;
  ByeFrame b;
  b.reason = 0;

  std::vector<std::uint8_t> stream;
  for (const auto& bytes :
       {encode_query(q), encode_result(r), encode_shed(s), encode_bye(b)}) {
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }

  // Feed one byte at a time: the reader must buffer partials across reads.
  FrameReader reader;
  std::vector<Frame> frames;
  for (const std::uint8_t byte : stream) {
    reader.feed(&byte, 1);
    Frame f;
    while (reader.next(&f)) frames.push_back(f);
  }
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_FALSE(reader.corrupt());

  EXPECT_EQ(frames[0].type, FrameType::Query);
  EXPECT_EQ(frames[0].query.request_id, q.request_id);
  EXPECT_EQ(frames[0].query.node, q.node);

  EXPECT_EQ(frames[1].type, FrameType::Result);
  EXPECT_EQ(frames[1].result.request_id, r.request_id);
  EXPECT_EQ(frames[1].result.status, QueryStatus::InvalidNode);
  EXPECT_EQ(frames[1].result.label, r.label);
  EXPECT_EQ(frames[1].result.volume, r.volume);
  EXPECT_EQ(frames[1].result.distance, r.distance);
  EXPECT_EQ(frames[1].result.queries, r.queries);
  EXPECT_EQ(frames[1].result.latency_ns, r.latency_ns);

  EXPECT_EQ(frames[2].type, FrameType::Shed);
  EXPECT_EQ(frames[2].shed.request_id, s.request_id);
  EXPECT_EQ(frames[2].shed.retry_after_ms, s.retry_after_ms);

  EXPECT_EQ(frames[3].type, FrameType::Bye);
  EXPECT_EQ(frames[3].bye.reason, 0);
}

TEST(ServeProtocol, UpdateFramesRoundTripThroughAChunkedStream) {
  UpdateFrame u;
  u.request_id = 0xabcdef0123456789ull;
  u.batch.rewires.push_back({3, 9});
  u.batch.rewires.push_back({17, 2});
  u.batch.label_updates.push_back({4, LabelChannel::InColor, 1});
  u.batch.label_updates.push_back({-2, LabelChannel::Level, -5});
  UpdateResultFrame ur;
  ur.request_id = 77;
  ur.status = UpdateStatus::Invalid;
  ur.cache_evicted = 1ull << 33;
  ur.cache_retained = 12345;
  ur.flushed = 1;
  ur.apply_ns = -9;  // sign must survive the wire

  std::vector<std::uint8_t> stream = encode_update(u);
  const std::vector<std::uint8_t> result_bytes = encode_update_result(ur);
  stream.insert(stream.end(), result_bytes.begin(), result_bytes.end());

  FrameReader reader;
  std::vector<Frame> frames;
  for (const std::uint8_t byte : stream) {  // byte-at-a-time: partial buffering
    reader.feed(&byte, 1);
    Frame f;
    while (reader.next(&f)) frames.push_back(f);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_FALSE(reader.corrupt());

  EXPECT_EQ(frames[0].type, FrameType::Update);
  EXPECT_EQ(frames[0].update.request_id, u.request_id);
  ASSERT_EQ(frames[0].update.batch.rewires.size(), 2u);
  EXPECT_EQ(frames[0].update.batch.rewires[0].leaf, 3);
  EXPECT_EQ(frames[0].update.batch.rewires[0].new_parent, 9);
  EXPECT_EQ(frames[0].update.batch.rewires[1].leaf, 17);
  ASSERT_EQ(frames[0].update.batch.label_updates.size(), 2u);
  EXPECT_EQ(frames[0].update.batch.label_updates[0].node, 4);
  EXPECT_EQ(frames[0].update.batch.label_updates[0].channel, LabelChannel::InColor);
  EXPECT_EQ(frames[0].update.batch.label_updates[0].value, 1);
  EXPECT_EQ(frames[0].update.batch.label_updates[1].node, -2);
  EXPECT_EQ(frames[0].update.batch.label_updates[1].value, -5);

  EXPECT_EQ(frames[1].type, FrameType::UpdateResult);
  EXPECT_EQ(frames[1].update_result.request_id, ur.request_id);
  EXPECT_EQ(frames[1].update_result.status, UpdateStatus::Invalid);
  EXPECT_EQ(frames[1].update_result.cache_evicted, ur.cache_evicted);
  EXPECT_EQ(frames[1].update_result.cache_retained, ur.cache_retained);
  EXPECT_EQ(frames[1].update_result.flushed, 1);
  EXPECT_EQ(frames[1].update_result.apply_ns, -9);
}

TEST(ServeProtocol, UpdateFrameBoundsAreEnforcedBothWays) {
  // Encoder side: a batch whose wire size exceeds kMaxUpdateFrameBytes must
  // throw, not emit a frame the peer will condemn.
  UpdateFrame huge;
  huge.batch.rewires.resize(70000);  // 70000 * 16 bytes > 1 MiB
  EXPECT_THROW(encode_update(huge), std::length_error);

  // Reader side: an Update type byte admits lengths beyond kMaxFrameBytes
  // (like Stats) but only up to the update bound.
  {
    FrameReader reader;
    std::vector<std::uint8_t> bytes;
    wire::put_u32(bytes, static_cast<std::uint32_t>(kMaxUpdateFrameBytes + 1));
    wire::put_u8(bytes, static_cast<std::uint8_t>(FrameType::Update));
    reader.feed(bytes.data(), bytes.size());
    Frame f;
    EXPECT_FALSE(reader.next(&f));
    EXPECT_TRUE(reader.corrupt());
  }
  {
    // Declared counts that do not match the payload length: corrupt, never a
    // partial decode.
    FrameReader reader;
    std::vector<std::uint8_t> bytes;
    wire::put_u32(bytes, 17);  // type + id + counts, but counts claim content
    wire::put_u8(bytes, static_cast<std::uint8_t>(FrameType::Update));
    wire::put_u64(bytes, 1);
    wire::put_u32(bytes, 5);  // 5 rewires that are not present
    wire::put_u32(bytes, 0);
    reader.feed(bytes.data(), bytes.size());
    Frame f;
    EXPECT_FALSE(reader.next(&f));
    EXPECT_TRUE(reader.corrupt());
  }
}

TEST(ServeProtocol, OversizedOrMalformedFramesMarkTheStreamCorrupt) {
  {
    // Declared length beyond kMaxFrameBytes: corruption for every type but
    // Stats.  The reader withholds judgement until the type byte arrives
    // (a lone oversized prefix could still become a legal Stats frame), then
    // condemns the stream.
    FrameReader reader;
    std::vector<std::uint8_t> bytes;
    wire::put_u32(bytes, static_cast<std::uint32_t>(kMaxFrameBytes + 1));
    reader.feed(bytes.data(), bytes.size());
    Frame f;
    EXPECT_FALSE(reader.next(&f));
    EXPECT_FALSE(reader.corrupt());  // prefix alone: undecided, not corrupt
    const auto type = static_cast<std::uint8_t>(FrameType::Result);
    reader.feed(&type, 1);
    EXPECT_FALSE(reader.next(&f));
    EXPECT_TRUE(reader.corrupt());
  }
  {
    // Even a Stats type byte cannot legitimize a length beyond the Stats
    // bound.
    FrameReader reader;
    std::vector<std::uint8_t> bytes;
    wire::put_u32(bytes, static_cast<std::uint32_t>(kMaxStatsFrameBytes + 1));
    wire::put_u8(bytes, static_cast<std::uint8_t>(FrameType::Stats));
    reader.feed(bytes.data(), bytes.size());
    Frame f;
    EXPECT_FALSE(reader.next(&f));
    EXPECT_TRUE(reader.corrupt());
  }
  {
    // Right length prefix, wrong payload size for the type.
    FrameReader reader;
    std::vector<std::uint8_t> bytes;
    wire::put_u32(bytes, 3);
    wire::put_u8(bytes, static_cast<std::uint8_t>(FrameType::Query));
    wire::put_u8(bytes, 0);
    wire::put_u8(bytes, 0);
    reader.feed(bytes.data(), bytes.size());
    Frame f;
    EXPECT_FALSE(reader.next(&f));
    EXPECT_TRUE(reader.corrupt());
  }
}

TEST(ServeProtocol, StatsFramesRoundTripAndMayExceedTheQueryFrameBound) {
  // A stats payload bigger than kMaxFrameBytes (but under the stats bound)
  // must pass: the reader admits oversized frames for the Stats type only.
  const std::string big(kMaxFrameBytes + 100, 'x');
  std::vector<std::uint8_t> stream = encode_stats_request(9);
  const std::vector<std::uint8_t> stats =
      encode_stats(9, "{\"payload\": \"" + big + "\"}");
  stream.insert(stream.end(), stats.begin(), stats.end());

  FrameReader reader;
  reader.feed(stream.data(), stream.size());
  Frame f;
  ASSERT_TRUE(reader.next(&f));
  EXPECT_EQ(f.type, FrameType::StatsRequest);
  EXPECT_EQ(f.stats_request.request_id, 9u);
  ASSERT_TRUE(reader.next(&f));
  EXPECT_EQ(f.type, FrameType::Stats);
  EXPECT_EQ(f.stats.request_id, 9u);
  EXPECT_NE(f.stats.json.find(big), std::string::npos);
  EXPECT_FALSE(reader.corrupt());

  // The same oversized length under a Query type byte stays corruption.
  FrameReader strict;
  std::vector<std::uint8_t> bytes;
  wire::put_u32(bytes, static_cast<std::uint32_t>(kMaxFrameBytes + 1));
  wire::put_u8(bytes, static_cast<std::uint8_t>(FrameType::Query));
  strict.feed(bytes.data(), bytes.size());
  EXPECT_FALSE(strict.next(&f));
  EXPECT_TRUE(strict.corrupt());
}

// Collects completion callbacks so tests can wait for a specific number of
// responses while the service is still running.
class ResultCollector {
 public:
  std::function<void(const QueryResult&)> sink() {
    return [this](const QueryResult& r) {
      std::lock_guard lock(mu_);
      results_[r.request_id] = r;
      cv_.notify_all();
    };
  }

  void wait_for(std::size_t count) {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return results_.size() >= count; });
  }

  std::map<std::uint64_t, QueryResult> take() {
    std::lock_guard lock(mu_);
    return results_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, QueryResult> results_;
};

std::vector<int> offline_labels(const ErasedInstance& inst) {
  const auto sweep = run_at_all_nodes(inst.graph(), inst.ids(),
                                      [&](Execution& e) { return inst.solve(e); });
  return sweep.output;
}

ServeTarget target_for(const std::string& family, NodeIndex n, std::uint64_t seed) {
  const RegistryEntry* entry = ProblemRegistry::global().find(family);
  EXPECT_NE(entry, nullptr) << family;
  return make_serve_target(
      std::make_shared<const ErasedInstance>(entry->make(n, seed)));
}

// Served labels == offline sweep labels for every registry family: the first
// round runs each family's solve() per request, the second is served from
// the answer memo.
TEST(QueryService, ServedLabelsMatchTheOfflineSweep) {
  for (const RegistryEntry& entry : ProblemRegistry::global().entries()) {
    SCOPED_TRACE(entry.name);
    ServeTarget target = target_for(entry.name, 600, 7);
    const std::vector<int> expected = offline_labels(*target.instance);
    const auto n = static_cast<std::int64_t>(expected.size());

    ServeConfig config;
    config.threads = 4;
    config.queue_capacity = static_cast<std::size_t>(2 * n);
    config.cache.policy = CachePolicy::Shared;
    QueryService service(std::move(target), config);

    ResultCollector collector;
    for (std::int64_t round = 0; round < 2; ++round) {
      for (std::int64_t v = 0; v < n; ++v) {
        const auto id = static_cast<std::uint64_t>(round * n + v);
        ASSERT_EQ(service.submit(id, v, collector.sink()), Admission::Accepted);
      }
      // Round two starts once round one is answered and memoized.
      collector.wait_for(static_cast<std::size_t>((round + 1) * n));
    }
    service.drain_and_stop();

    const auto results = collector.take();
    ASSERT_EQ(results.size(), static_cast<std::size_t>(2 * n));
    std::vector<QueryResult> first_round(static_cast<std::size_t>(n));
    for (const auto& [id, r] : results) {
      const auto v = static_cast<std::int64_t>(id) % n;
      EXPECT_EQ(r.status, QueryStatus::Ok);
      EXPECT_EQ(r.label, expected[static_cast<std::size_t>(v)])
          << "node " << v << " id " << id;
      EXPECT_GE(r.volume, 1);
      EXPECT_GE(r.latency_ns, 0);
      if (static_cast<std::int64_t>(id) < n) {
        first_round[static_cast<std::size_t>(v)] = r;
      } else {
        // A memo hit replays the computed costs exactly.
        const QueryResult& computed = first_round[static_cast<std::size_t>(v)];
        EXPECT_EQ(r.volume, computed.volume) << "node " << v;
        EXPECT_EQ(r.distance, computed.distance) << "node " << v;
        EXPECT_EQ(r.queries, computed.queries) << "node " << v;
      }
    }
    const ServeCounters counters = service.counters();
    EXPECT_EQ(counters.accepted, 2 * n);
    EXPECT_EQ(counters.completed, 2 * n);
    EXPECT_EQ(counters.shed, 0);
    EXPECT_EQ(counters.invalid, 0);
    EXPECT_EQ(service.cache_stats().hits, n);
    EXPECT_EQ(service.cache_stats().misses, n);
    const obs::Histogram latency = service.latency().since_start;
    EXPECT_EQ(latency.count, 2 * n);
    EXPECT_LE(latency.quantile(0.50), latency.quantile(0.95));
    EXPECT_LE(latency.quantile(0.95), latency.quantile(0.99));
  }
}

TEST(QueryService, InvalidNodesAreFlaggedNotExecuted) {
  ServeTarget target = target_for("ball-4", 200, 7);
  const auto n = static_cast<std::int64_t>(target.instance->node_count());
  ServeConfig config;
  config.threads = 1;
  QueryService service(std::move(target), config);

  ResultCollector collector;
  ASSERT_EQ(service.submit(1, -1, collector.sink()), Admission::Accepted);
  ASSERT_EQ(service.submit(2, n, collector.sink()), Admission::Accepted);
  ASSERT_EQ(service.submit(3, 0, collector.sink()), Admission::Accepted);
  service.drain_and_stop();

  const auto results = collector.take();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results.at(1).status, QueryStatus::InvalidNode);
  EXPECT_EQ(results.at(2).status, QueryStatus::InvalidNode);
  EXPECT_EQ(results.at(1).label, 0);
  EXPECT_EQ(results.at(3).status, QueryStatus::Ok);
  EXPECT_EQ(service.counters().invalid, 2);
}

// Deterministic shed: block the single worker inside a completion callback,
// fill the queue to capacity, and the next submit must shed.
TEST(QueryService, ShedsWhenTheQueueIsFullAndRecovers) {
  ServeTarget target = target_for("ball-4", 200, 7);
  ServeConfig config;
  config.threads = 1;
  config.batch_max = 1;  // the worker holds exactly one request at a time
  config.queue_capacity = 2;
  QueryService service(std::move(target), config);

  std::promise<void> worker_entered;
  std::promise<void> release_worker;
  std::shared_future<void> release = release_worker.get_future().share();
  ASSERT_EQ(service.submit(0, 0,
                           [&](const QueryResult&) {
                             worker_entered.set_value();
                             release.wait();
                           }),
            Admission::Accepted);
  worker_entered.get_future().wait();  // the worker is now parked off-queue

  ResultCollector collector;
  EXPECT_EQ(service.submit(1, 1, collector.sink()), Admission::Accepted);
  EXPECT_EQ(service.submit(2, 2, collector.sink()), Admission::Accepted);
  // Queue holds 2/2: admission control must shed, not grow the backlog.
  EXPECT_EQ(service.submit(3, 3, collector.sink()), Admission::Shed);
  EXPECT_EQ(service.counters().shed, 1);

  release_worker.set_value();
  service.drain_and_stop();
  // The shed request never ran; both accepted ones did.
  const auto results = collector.take();
  EXPECT_EQ(results.size(), 2u);
  EXPECT_TRUE(results.count(1) == 1 && results.count(2) == 1);
  const ServeCounters counters = service.counters();
  EXPECT_EQ(counters.accepted, 3);
  EXPECT_EQ(counters.completed, 3);
}

// Drain ordering: every accepted callback has run by the time
// drain_and_stop() returns, and later submits are Stopped (not Shed — the
// client must not retry).
TEST(QueryService, DrainCompletesEveryAcceptedRequestThenRefuses) {
  ServeTarget target = target_for("ball-4", 400, 7);
  const auto n = static_cast<std::int64_t>(target.instance->node_count());
  ServeConfig config;
  config.threads = 2;
  config.queue_capacity = static_cast<std::size_t>(n);
  QueryService service(std::move(target), config);

  std::atomic<int> completions{0};
  for (std::int64_t v = 0; v < n; ++v) {
    ASSERT_EQ(service.submit(static_cast<std::uint64_t>(v), v,
                             [&](const QueryResult&) {
                               completions.fetch_add(1, std::memory_order_relaxed);
                             }),
              Admission::Accepted);
  }
  service.drain_and_stop();
  EXPECT_EQ(completions.load(), n);
  EXPECT_EQ(service.submit(999999, 0, nullptr), Admission::Stopped);
  // Idempotent: a second drain is a no-op.
  service.drain_and_stop();
}

// The end-to-end pointer-ABA scenario: serve snapshot A with a warm answer
// memo, hot-swap to snapshot B of the same shape (old mapping unmapped, new
// one plausibly at the recycled address), and every post-swap answer must
// match B's offline labels — never A's memoized answers.
TEST(QueryService, HotSwapUnderWarmCacheServesTheNewSnapshotExactly) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("volcal-serve-test-" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  fs::create_directories(dir);
  const std::string path_a = (dir / "a.vsnap").string();
  const std::string path_b = (dir / "b.vsnap").string();

  // ball-4 labels are pure ball volumes, and the default instance shape is a
  // complete binary tree whose structure ignores the seed — so use variant 1
  // (random full binary tree), where seeds 7 and 11 shape different trees.
  const RegistryEntry* entry = ProblemRegistry::global().find("ball-4");
  ASSERT_NE(entry, nullptr);
  entry->make_variant(600, 7, 1).save_snapshot(path_a);
  entry->make_variant(600, 11, 1).save_snapshot(path_b);

  ServeConfig config;
  config.threads = 4;
  config.queue_capacity = 4096;
  config.cache.policy = CachePolicy::Shared;

  std::vector<int> expected_a, expected_b;
  {
    const ErasedInstance a = io::load_instance(path_a);
    expected_a = offline_labels(a);
    const ErasedInstance b = io::load_instance(path_b);
    expected_b = offline_labels(b);
  }
  const auto n = static_cast<std::int64_t>(expected_a.size());
  ASSERT_EQ(expected_b.size(), static_cast<std::size_t>(n));
  // Seeds 7 and 11 must disagree somewhere, or the swap check is vacuous.
  ASSERT_NE(expected_a, expected_b);

  QueryService service(
      make_serve_target(
          std::make_shared<const ErasedInstance>(io::load_instance(path_a))),
      config);

  // Warm the cache on A across every node.
  ResultCollector before;
  for (std::int64_t v = 0; v < n; ++v) {
    ASSERT_EQ(service.submit(static_cast<std::uint64_t>(v), v, before.sink()),
              Admission::Accepted);
  }
  before.wait_for(static_cast<std::size_t>(n));
  for (const auto& [id, r] : before.take()) {
    ASSERT_EQ(r.label, expected_a[static_cast<std::size_t>(id)]) << "node " << id;
  }

  // Swap to B while the service is live.  The old target's mapping is
  // released here (no other holder), so B's mmap may land on A's address —
  // pointer-ABA recycling that must not let anything of A's be served.
  service.swap_target(make_serve_target(
      std::make_shared<const ErasedInstance>(io::load_instance(path_b))));

  ResultCollector after;
  for (std::int64_t v = 0; v < n; ++v) {
    const auto id = static_cast<std::uint64_t>(n + v);
    ASSERT_EQ(service.submit(id, v, after.sink()), Admission::Accepted);
  }
  service.drain_and_stop();
  const auto results = after.take();
  ASSERT_EQ(results.size(), static_cast<std::size_t>(n));
  for (const auto& [id, r] : results) {
    const auto v = static_cast<std::int64_t>(id) - n;
    ASSERT_EQ(r.label, expected_b[static_cast<std::size_t>(v)])
        << "post-swap node " << v << " served a stale answer";
  }
  EXPECT_EQ(service.counters().swaps, 1);

  std::error_code ec;
  fs::remove_all(dir, ec);
}

// Live mutation apply: for every registry family, after apply_mutations the
// service serves the mutated instance bit-for-bit, memoized answers the batch
// cannot reach keep serving (no full flush on a localized delta) — for a
// structural batch and for a label-only one — and an invalid batch is
// rejected whole with the served target untouched.
TEST(QueryService, AppliedMutationsServeTheMutatedGraphExactly) {
  for (const RegistryEntry& entry : ProblemRegistry::global().entries()) {
    SCOPED_TRACE(entry.name);
    ServeTarget target = target_for(entry.name, 600, 7);
    std::shared_ptr<const ErasedInstance> inst = target.instance;
    const auto n = static_cast<std::int64_t>(inst->node_count());

    ServeConfig config;
    config.threads = 4;
    config.queue_capacity = static_cast<std::size_t>(2 * n);
    config.cache.policy = CachePolicy::Shared;
    QueryService service(std::move(target), config);

    std::uint64_t next_id = 0;
    // Queries every node and checks the labels against `expected`.
    auto query_all = [&](const std::vector<int>& expected, const char* when) {
      ResultCollector collector;
      const std::uint64_t base = next_id;
      for (std::int64_t v = 0; v < n; ++v) {
        ASSERT_EQ(service.submit(next_id++, v, collector.sink()), Admission::Accepted);
      }
      collector.wait_for(static_cast<std::size_t>(n));
      for (const auto& [id, r] : collector.take()) {
        const auto v = static_cast<std::int64_t>(id - base);
        ASSERT_EQ(r.status, QueryStatus::Ok);
        ASSERT_EQ(r.label, expected[static_cast<std::size_t>(v)])
            << when << ": node " << v << " served a stale answer";
      }
    };
    query_all(offline_labels(*inst), "warm-up");  // memoizes every node

    std::int64_t evicted = 0;
    std::int64_t retained = 0;
    // One leaf rewire + two label writes, then a label-only batch: the
    // mutated oracle is the instance's own mutate path, the same one
    // check_mutation_case pins against the naive rebuild.
    for (const int rewires : {1, 0}) {
      SCOPED_TRACE(rewires == 0 ? "label-only batch" : "structural batch");
      const MutationBatch batch = inst->propose_mutation(/*seed=*/123 + rewires, rewires,
                                                         /*label_updates=*/2);
      ASSERT_FALSE(batch.empty());
      auto mutated = std::make_shared<const ErasedInstance>(inst->mutated(batch));
      const std::vector<int> expected_mut = offline_labels(*mutated);

      const MutationOutcome mo = service.apply_mutations(batch);
      ASSERT_TRUE(mo.ok) << mo.error;
      EXPECT_GE(mo.apply_ns, 0);
      // Every node was memoized: each answer is either evicted or kept, and
      // the changed nodes' own answers are always evicted.
      EXPECT_EQ(static_cast<std::int64_t>(mo.cache_evicted + mo.cache_retained), n);
      EXPECT_GE(mo.cache_evicted, 1u);
      if (entry.name == "ball-4") {
        // A radius-4 plan touches a small region of a 600-node tree.
        EXPECT_GT(mo.cache_retained, mo.cache_evicted);
      }
      evicted += static_cast<std::int64_t>(mo.cache_evicted);
      retained += static_cast<std::int64_t>(mo.cache_retained);

      const std::int64_t hits_before_requery = service.cache_stats().hits;
      query_all(expected_mut, "post-mutation");  // re-memoizes every node
      if (mo.cache_retained > 0) {
        EXPECT_GT(service.cache_stats().hits, hits_before_requery);
      }
      inst = mutated;
    }

    // An invalid batch (a self-rewire) is rejected whole; served answers are
    // unchanged by it.
    MutationBatch bad;
    bad.rewires.push_back({0, 0});
    const MutationOutcome rejected = service.apply_mutations(bad);
    EXPECT_FALSE(rejected.ok);
    EXPECT_FALSE(rejected.error.empty());
    query_all(offline_labels(*inst), "after a rejected batch");
    service.drain_and_stop();

    // The mutation counters made it into the registry snapshot.
    const obs::MetricsSnapshot snap = service.metrics().snapshot();
    EXPECT_EQ(snap.counter("serve.mutations"), 2);
    EXPECT_EQ(snap.counter("serve.mutate.cache_evicted"), evicted);
    EXPECT_EQ(snap.counter("serve.mutate.cache_retained"), retained);
  }
}

// --- Observability ---------------------------------------------------------

// stats_json() is the payload every consumer parses (Stats frame, volcal_top,
// --stats-log); its counters must agree with the typed accessors and its
// percentiles must be ordered.
TEST(QueryService, StatsJsonReconcilesWithTypedCountersAfterDrain) {
  ServeTarget target = target_for("ball-4", 400, 7);
  const auto n = static_cast<std::int64_t>(target.instance->node_count());
  ServeConfig config;
  config.threads = 4;
  config.queue_capacity = static_cast<std::size_t>(n);
  config.cache.policy = CachePolicy::Shared;
  QueryService service(std::move(target), config);

  ResultCollector collector;
  for (std::int64_t v = 0; v < n; ++v) {
    ASSERT_EQ(service.submit(static_cast<std::uint64_t>(v), v, collector.sink()),
              Admission::Accepted);
  }
  service.drain_and_stop();

  std::string err;
  const perf::JsonValue doc = perf::parse_json(service.stats_json(), &err);
  ASSERT_FALSE(doc.is_null()) << err;
  EXPECT_EQ(doc.string_at("kind"), "serve-stats");

  const ServeCounters counters = service.counters();
  EXPECT_EQ(doc.int_at("accepted"), counters.accepted);
  EXPECT_EQ(doc.int_at("completed"), counters.completed);
  EXPECT_EQ(doc.int_at("shed"), counters.shed);
  EXPECT_EQ(doc.int_at("invalid"), counters.invalid);
  EXPECT_EQ(doc.int_at("queue_depth"), 0);
  EXPECT_EQ(doc.int_at("in_flight"), 0);
  EXPECT_GT(doc.number_at("uptime_seconds"), 0.0);

  // The keys volbench and volcal_top read.  perf::JsonValue::int_at reads a
  // missing key as 0, so a renamed field would zero their metrics silently;
  // pin presence and value here.
  ASSERT_NE(doc.find("completed"), nullptr);
  EXPECT_GE(doc.int_at("completed"), 1);
  const perf::JsonValue* batch = doc.find("batch");
  ASSERT_NE(batch, nullptr);
  ASSERT_NE(batch->find("waves"), nullptr);
  EXPECT_GE(batch->int_at("waves"), 1);
  ASSERT_NE(batch->find("batch_max"), nullptr);
  EXPECT_EQ(batch->int_at("batch_max"), config.batch_max);
  const perf::JsonValue* cache = doc.find("cache");
  ASSERT_NE(cache, nullptr);
  const CacheStats memo = service.cache_stats();
  for (const char* key : {"hits", "misses", "evictions"}) {
    ASSERT_NE(cache->find(key), nullptr) << key;
  }
  EXPECT_EQ(cache->int_at("hits"), memo.hits);
  EXPECT_EQ(cache->int_at("misses"), memo.misses);
  EXPECT_EQ(cache->int_at("evictions"), memo.evictions);
  EXPECT_EQ(memo.hits + memo.misses, n);

  const perf::JsonValue* lat = doc.find("latency");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->int_at("count"), n);
  EXPECT_LE(lat->number_at("p50_ns"), lat->number_at("p95_ns"));
  EXPECT_LE(lat->number_at("p95_ns"), lat->number_at("p99_ns"));

  // Registry sub-object: per-family volume histogram with one entry per
  // completed request, and the admission counters under their metric names.
  const perf::JsonValue* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  const perf::JsonValue* hists = metrics->find("histograms");
  ASSERT_NE(hists, nullptr);
  const perf::JsonValue* volume = hists->find("serve.volume.ball-4");
  ASSERT_NE(volume, nullptr) << "per-family volume histogram missing";
  EXPECT_EQ(volume->int_at("count"), n);
  EXPECT_GE(volume->int_at("min"), 1);
  const perf::JsonValue* counters_obj = metrics->find("counters");
  ASSERT_NE(counters_obj, nullptr);
  EXPECT_EQ(counters_obj->int_at("serve.accepted"), counters.accepted);
  EXPECT_EQ(counters_obj->int_at("serve.completed"), counters.completed);
  // Queue depth, in-flight and the memo counters are top-level fields only,
  // never repeated as gauges: the service registers no gauge of its own (the
  // transport adds serve.connections, see ConnectionMetricsAppear...).
  const perf::JsonValue* gauges = metrics->find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_TRUE(gauges->members().empty());

  // The window covers the run we just finished (it all happened well inside
  // the default 10 s window).
  const obs::Histogram window = service.latency().window;
  EXPECT_EQ(window.count, n);
  EXPECT_LE(window.quantile(0.50), window.quantile(0.95));

  // Bounded memory: the service's distributions are its registry's sharded
  // histograms plus the latency window ring, all fixed-size.
  EXPECT_LE(service.metrics().snapshot().histograms.size() *
                    obs::ShardedHistogram::footprint_bytes() +
                sizeof(obs::WindowedHistogram),
            std::size_t{512} * 1024);
}

// Slow-query log threshold edges: 0 records everything (bounded by
// capacity), a huge threshold records nothing, negative disables the log.
TEST(QueryService, SlowQueryLogThresholdEdges) {
  struct Case {
    std::int64_t threshold_ns;
    std::size_t capacity;
  };
  const Case cases[] = {
      {0, 1024},          // everything is slow
      {0, 16},            // everything is slow, capacity-bounded
      {INT64_MAX, 1024},  // nothing is slow
      {-1, 1024},         // log disabled
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.threshold_ns);
    ServeTarget target = target_for("ball-4", 200, 7);
    const auto n = static_cast<std::int64_t>(target.instance->node_count());
    ServeConfig config;
    config.threads = 2;
    config.queue_capacity = static_cast<std::size_t>(n);
    config.slow_threshold_ns = c.threshold_ns;
    config.slow_log_capacity = c.capacity;
    QueryService service(std::move(target), config);

    ResultCollector collector;
    for (std::int64_t v = 0; v < n; ++v) {
      ASSERT_EQ(service.submit(static_cast<std::uint64_t>(v), v, collector.sink()),
                Admission::Accepted);
    }
    service.drain_and_stop();

    const std::vector<SlowQuery> slow = service.slow_queries();
    if (c.threshold_ns == 0) {
      // Latency >= 0 always holds, so every completion is recorded — newest
      // kept once the capacity bound kicks in.
      EXPECT_EQ(slow.size(), std::min(c.capacity, static_cast<std::size_t>(n)));
      for (const SlowQuery& q : slow) {
        EXPECT_GE(q.latency_ns, 0);
        EXPECT_GE(q.node, 0);
        EXPECT_LT(q.node, n);
      }
      // A full disk fails the export, whether the first write or the final
      // flush hits it (1024 records overflow the stdio buffer, 16 do not).
      EXPECT_FALSE(write_slow_query_log("/dev/full", slow));
    } else {
      EXPECT_TRUE(slow.empty());
    }
    // The slow counter tracks threshold matches, not log retention: with
    // threshold 0 every completion counts even after eviction.
    std::string err;
    const perf::JsonValue doc = perf::parse_json(service.stats_json(), &err);
    ASSERT_FALSE(doc.is_null()) << err;
    EXPECT_EQ(doc.int_at("slow_queries"), c.threshold_ns == 0 ? n : 0);
  }
}

// An attached tracer collects one span per completed request with a
// monotone admit <= dequeue <= exec_begin <= exec_end <= done timeline.
TEST(QueryService, TracerRecordsOneOrderedSpanPerRequest) {
  ServeTarget target = target_for("ball-4", 200, 7);
  const auto n = static_cast<std::int64_t>(target.instance->node_count());
  ServeTracer tracer;
  ServeConfig config;
  config.threads = 2;
  config.queue_capacity = static_cast<std::size_t>(2 * n);
  config.cache.policy = CachePolicy::Shared;
  config.tracer = &tracer;
  QueryService service(std::move(target), config);

  ResultCollector collector;
  for (std::int64_t round = 0; round < 2; ++round) {
    for (std::int64_t v = 0; v < n; ++v) {
      const auto id = static_cast<std::uint64_t>(round * n + v);
      ASSERT_EQ(service.submit(id, v, collector.sink()), Admission::Accepted);
    }
  }
  service.drain_and_stop();

  const std::vector<RequestSpan> spans = tracer.spans();
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(2 * n));
  EXPECT_EQ(tracer.dropped(), 0);
  std::uint64_t seq_seen = 0;
  bool any_cache_hit = false;
  for (const RequestSpan& span : spans) {
    EXPECT_GE(span.seq, 1u);
    seq_seen = std::max(seq_seen, span.seq);
    EXPECT_LE(span.admit_ns, span.dequeue_ns);
    EXPECT_LE(span.dequeue_ns, span.exec_begin_ns);
    EXPECT_LE(span.exec_begin_ns, span.exec_end_ns);
    EXPECT_LE(span.exec_end_ns, span.done_ns);
    EXPECT_GE(span.worker, 0);
    EXPECT_GE(span.volume, 1);
    EXPECT_FALSE(span.invalid);
    any_cache_hit |= span.cache_hit;
  }
  // Admission sequence numbers are dense 1..2n.
  EXPECT_EQ(seq_seen, static_cast<std::uint64_t>(2 * n));
  // Round two re-queries warm centers: some spans must be cache hits.
  EXPECT_TRUE(any_cache_hit);

  // The Chrome export accepts the collected spans.
  const fs::path trace_path =
      fs::temp_directory_path() /
      ("volcal-trace-test-" + std::to_string(::getpid()) + ".json");
  EXPECT_TRUE(write_serve_chrome_trace(trace_path.string(), spans));
  std::error_code ec;
  EXPECT_GT(fs::file_size(trace_path, ec), 0u);
  fs::remove(trace_path, ec);
  EXPECT_FALSE(write_serve_chrome_trace("/dev/full", spans));  // a full disk fails it
}

// A worker answers the requests of a wave one after another, so a request's
// execute slice must start only once the previous request of its wave is
// done (response written) — not at the wave's dequeue.  The single worker is
// parked in the first request's callback, as in ShedsWhenTheQueueIsFull...,
// while five more requests queue up; they then ride one wave together, each
// with a slow response write.
TEST(QueryService, EachExecuteSpanCoversOnlyItsOwnRequest) {
  ServeTarget target = target_for("ball-4", 200, 7);
  ServeTracer tracer;
  ServeConfig config;
  config.threads = 1;
  config.batch_max = 8;
  config.tracer = &tracer;
  QueryService service(std::move(target), config);

  std::promise<void> worker_entered;
  std::promise<void> release_worker;
  std::shared_future<void> release = release_worker.get_future().share();
  ASSERT_EQ(service.submit(0, 0,
                           [&](const QueryResult&) {
                             worker_entered.set_value();
                             release.wait();
                           }),
            Admission::Accepted);
  worker_entered.get_future().wait();  // the worker is now parked off-queue
  constexpr int kWave = 5;
  for (int i = 1; i <= kWave; ++i) {
    ASSERT_EQ(service.submit(static_cast<std::uint64_t>(i), i,
                             [](const QueryResult&) {
                               std::this_thread::sleep_for(std::chrono::microseconds(50));
                             }),
              Admission::Accepted);
  }
  release_worker.set_value();
  service.drain_and_stop();

  std::vector<RequestSpan> spans = tracer.spans();
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(kWave + 1));
  std::sort(spans.begin(), spans.end(),
            [](const RequestSpan& a, const RequestSpan& b) { return a.seq < b.seq; });
  for (int i = 1; i <= kWave; ++i) {
    EXPECT_EQ(spans[i].wave, spans[1].wave) << "request " << i << " left the wave";
  }
  EXPECT_NE(spans[1].wave, spans[0].wave);
  for (int i = 2; i <= kWave; ++i) {
    EXPECT_GE(spans[i].exec_begin_ns, spans[i - 1].done_ns) << "request " << i;
  }

  // The exported trace shows the same: per request, queue, wave, execute and
  // write tile admit -> done, and each execute slice starts at or after the
  // previous request's write slice ends.
  const fs::path trace_path =
      fs::temp_directory_path() /
      ("volcal-wave-trace-test-" + std::to_string(::getpid()) + ".json");
  ASSERT_TRUE(write_serve_chrome_trace(trace_path.string(), spans));
  std::ifstream in(trace_path);
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::error_code ec;
  fs::remove(trace_path, ec);
  std::string err;
  const perf::JsonValue doc = perf::parse_json(text, &err);
  ASSERT_FALSE(doc.is_null()) << err;
  const perf::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  // seq -> slice name -> {begin, end} in µs.
  std::map<std::int64_t, std::map<std::string, std::pair<double, double>>> slices;
  for (const perf::JsonValue& e : events->items()) {
    const double ts = e.number_at("ts");
    slices[e.find("args")->int_at("seq")][e.string_at("name")] = {ts, ts + e.number_at("dur")};
  }
  ASSERT_EQ(slices.size(), static_cast<std::size_t>(kWave + 1));
  constexpr double kUs = 0.002;  // two rounding steps of the %.3f export
  for (std::int64_t seq = 1; seq <= kWave + 1; ++seq) {
    auto& s = slices[seq];
    ASSERT_EQ(s.size(), 4u) << "seq " << seq;
    EXPECT_NEAR(s["queue"].second, s["wave"].first, kUs);
    EXPECT_NEAR(s["wave"].second, s["execute"].first, kUs);
    EXPECT_NEAR(s["execute"].second, s["write"].first, kUs);
    if (seq >= 3) {
      EXPECT_GE(s["execute"].first, slices[seq - 1]["write"].second - kUs) << "seq " << seq;
    }
  }
}

// --- Socket transport ------------------------------------------------------

std::string unique_socket_path(const char* tag) {
  return (fs::temp_directory_path() /
          (std::string("volcal-") + tag + "-" +
           std::to_string(::getpid()) + "-" +
           std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
           ".sock"))
      .string();
}

// Disconnected clients must be reaped as they leave, not accumulated until
// stop(): a long-running server otherwise leaks one fd + thread object per
// connection ever accepted and eventually hits EMFILE.
TEST(SocketServer, ReapsDisconnectedClientsWhileRunning) {
  ServeTarget target = target_for("ball-4", 200, 7);
  ServeConfig config;
  config.threads = 1;
  QueryService service(std::move(target), config);
  SocketServer server;
  const std::string path = unique_socket_path("reap");
  ASSERT_TRUE(server.start(service, path));

  for (std::uint64_t i = 0; i < 8; ++i) {
    ServeClient client;
    ASSERT_TRUE(client.connect(path));
    const ServeClient::QueryReply reply = client.query(0);
    ASSERT_TRUE(reply.ok);
    EXPECT_FALSE(reply.shed);
    client.bye();
  }
  // The reader threads notice the EOFs asynchronously; give them a moment.
  for (int spin = 0; spin < 500 && server.connection_count() > 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.connection_count(), 0u)
      << "disconnected connections held until stop()";

  // The acceptor is still alive after the churn: a fresh client round-trips.
  ServeClient again;
  ASSERT_TRUE(again.connect(path));
  const ServeClient::QueryReply reply = again.query(1);
  ASSERT_TRUE(reply.ok);
  EXPECT_FALSE(reply.shed);
  EXPECT_EQ(reply.result.node, 1);
  again.bye();

  service.drain_and_stop();
  server.stop();
}

// A client that submits queries but never reads responses fills its socket
// buffer.  The send timeout must convert that into a dropped connection —
// workers may block inside a completion callback for at most one timeout,
// and graceful drain still completes every accepted request.
TEST(SocketServer, SlowClientTimesOutInsteadOfWedgingDrain) {
  ServeTarget target = target_for("ball-4", 400, 7);
  const auto n = static_cast<std::int64_t>(target.instance->node_count());
  ServeConfig config;
  config.threads = 2;
  config.queue_capacity = 1 << 15;
  config.cache.policy = CachePolicy::Shared;
  QueryService service(std::move(target), config);
  SocketServer server;
  const std::string path = unique_socket_path("slow");
  ASSERT_TRUE(server.start(service, path, /*write_timeout_ms=*/100));

  ServeClient client;
  ASSERT_TRUE(client.connect(path));
  // Far more responses than a Unix-socket buffer holds, and we never read
  // them: posting without draining is exactly the misbehaving-client shape
  // this test needs.
  constexpr std::uint64_t kQueries = 20000;
  for (std::uint64_t i = 0; i < kQueries; ++i) {
    if (!client.post_query(i, static_cast<std::int64_t>(i) % n)) break;
  }

  // The load-bearing assertion is that this returns at all: before the send
  // timeout, a worker wedged forever inside write() and in_flight_ never
  // drained.  Every accepted request still completes (its callback runs;
  // the write is simply dropped on the closed connection).
  service.drain_and_stop();
  const ServeCounters counters = service.counters();
  EXPECT_EQ(counters.completed, counters.accepted);
  EXPECT_GT(counters.accepted, 0);

  client.close();
  server.stop();
}

// The pipelined mode volcal_load runs on: queries posted ahead of their
// answers, the socket waited on through fd() and drained with read_some()
// and next().  Every id is answered exactly once, each node twice (the
// second time from the answer memo), with the offline sweep's label; a
// synchronous call on the same client still finds its own reply afterwards.
TEST(SocketServer, PipelinedQueriesAreAnsweredOnceWithTheOfflineLabels) {
  ServeTarget target = target_for("ball-4", 400, 7);
  const std::vector<int> expected = offline_labels(*target.instance);
  const auto n = static_cast<std::uint64_t>(expected.size());
  ServeConfig config;
  config.threads = 2;
  config.queue_capacity = 1 << 12;  // above 2n: nothing is shed
  config.cache.policy = CachePolicy::Shared;
  QueryService service(std::move(target), config);
  SocketServer server;
  const std::string path = unique_socket_path("pipelined");
  ASSERT_TRUE(server.start(service, path));

  ServeClient client;
  ASSERT_TRUE(client.connect(path));
  const std::uint64_t queries = 2 * n;
  std::vector<int> answers(queries, 0);
  std::uint64_t answered = 0;
  const auto drain = [&] {
    Frame frame;
    while (client.next(&frame)) {
      ASSERT_EQ(frame.type, FrameType::Result);
      const std::uint64_t id = frame.result.request_id;
      ASSERT_LT(id, queries);
      ++answers[id];
      ++answered;
      EXPECT_EQ(frame.result.status, QueryStatus::Ok) << "id " << id;
      EXPECT_EQ(frame.result.node, static_cast<std::int64_t>(id % n)) << "id " << id;
      EXPECT_EQ(frame.result.label, expected[id % n]) << "id " << id;
    }
  };
  for (std::uint64_t id = 0; id < queries; ++id) {
    ASSERT_TRUE(client.post_query(id, static_cast<std::int64_t>(id % n)));
    if (id % 64 == 63) {  // take whatever has arrived, without waiting
      ASSERT_TRUE(client.read_some());
      drain();
    }
  }
  while (answered < queries && !::testing::Test::HasFatalFailure()) {
    pollfd pfd{client.fd(), POLLIN, 0};
    ASSERT_EQ(::poll(&pfd, 1, 10'000), 1) << answered << " of " << queries << " answered";
    ASSERT_TRUE(client.read_some());
    drain();
  }
  ASSERT_EQ(answered, queries);
  for (std::uint64_t id = 0; id < queries; ++id) EXPECT_EQ(answers[id], 1) << "id " << id;

  const ServeClient::QueryReply reply = client.query(3);
  ASSERT_TRUE(reply.ok);
  EXPECT_FALSE(reply.shed);
  EXPECT_EQ(reply.result.label, expected[3]);
  client.bye();

  service.drain_and_stop();
  server.stop();
  EXPECT_EQ(service.counters().shed, 0);
}

void expect_buckets_sum_to_count(const perf::JsonValue& h, const std::string& where) {
  const perf::JsonValue* buckets = h.find("buckets");
  ASSERT_NE(buckets, nullptr) << where;
  std::int64_t total = 0;
  for (const auto& [range, count] : buckets->members()) total += count.as_int();
  EXPECT_EQ(total, h.int_at("count")) << where;
}

// The Stats frame answers live, mid-load, on the reader thread — polls must
// round-trip while query traffic is in flight, return monotone counters
// across polls, and reconcile with the service's final numbers.
TEST(SocketServer, StatsFrameRoundTripsUnderConcurrentLoad) {
  ServeTarget target = target_for("ball-4", 400, 7);
  const auto n = static_cast<std::int64_t>(target.instance->node_count());
  ServeConfig config;
  config.threads = 2;
  config.queue_capacity = 1 << 14;
  config.cache.policy = CachePolicy::Shared;
  QueryService service(std::move(target), config);
  SocketServer server;
  const std::string path = unique_socket_path("stats");
  ASSERT_TRUE(server.start(service, path));

  // Query clients: each drives its own connection synchronously.
  std::atomic<bool> load_ok{true};
  std::vector<std::thread> loaders;
  const int kLoaders = 3;
  const std::uint64_t kPerLoader = 400;
  for (int t = 0; t < kLoaders; ++t) {
    loaders.emplace_back([&, t] {
      ServeClient client;
      if (!client.connect(path)) {
        load_ok = false;
        return;
      }
      for (std::uint64_t i = 0; i < kPerLoader; ++i) {
        const std::int64_t node = static_cast<std::int64_t>(i) % n;
        const ServeClient::QueryReply reply = client.query(node);
        if (!reply.ok || reply.shed || reply.result.node != node) {
          load_ok = false;
          return;
        }
      }
      (void)t;
      client.bye();
    });
  }

  // Stats poller: interleaves Stats frames with the load, one fresh
  // connection per poll exactly like volcal_top.
  std::int64_t prev_completed = -1;
  std::int64_t polls_answered = 0;
  for (std::uint64_t poll = 1; poll <= 20; ++poll) {
    ServeClient probe;
    ASSERT_TRUE(probe.connect(path));
    std::string json;
    ASSERT_TRUE(probe.stats(&json));
    std::string err;
    const perf::JsonValue doc = perf::parse_json(json, &err);
    ASSERT_FALSE(doc.is_null()) << err;
    // Monotone counters across polls, consistent ordering within one.
    const std::int64_t completed = doc.int_at("completed");
    EXPECT_GE(completed, prev_completed);
    prev_completed = completed;
    EXPECT_GE(doc.int_at("accepted"), completed);
    const perf::JsonValue* lat = doc.find("latency");
    const perf::JsonValue* window = doc.find("window");
    ASSERT_NE(lat, nullptr);
    ASSERT_NE(window, nullptr);
    ASSERT_NE(window->find("latency"), nullptr);
    EXPECT_LE(lat->number_at("p50_ns"), lat->number_at("p99_ns"));
    // The window is part of since-start, and every histogram in the frame —
    // both latency blocks and the registry's — has buckets summing to count.
    EXPECT_LE(window->find("latency")->int_at("count"), lat->int_at("count"));
    expect_buckets_sum_to_count(*lat, "latency");
    expect_buckets_sum_to_count(*window->find("latency"), "window.latency");
    const perf::JsonValue* metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    ASSERT_NE(metrics->find("histograms"), nullptr);
    for (const auto& [name, h] : metrics->find("histograms")->members()) {
      expect_buckets_sum_to_count(h, name);
    }
    ++polls_answered;
    probe.close();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  for (auto& th : loaders) th.join();
  EXPECT_TRUE(load_ok.load());
  EXPECT_EQ(polls_answered, 20);

  service.drain_and_stop();
  // Final reconciliation: one last poll equals the service's own counters.
  const ServeCounters counters = service.counters();
  EXPECT_EQ(counters.completed, kLoaders * static_cast<std::int64_t>(kPerLoader));
  std::string err;
  const perf::JsonValue final_doc = perf::parse_json(service.stats_json(), &err);
  ASSERT_FALSE(final_doc.is_null()) << err;
  EXPECT_EQ(final_doc.int_at("completed"), counters.completed);
  EXPECT_EQ(final_doc.int_at("accepted"), counters.accepted);
  server.stop();
}

// Update frames over the wire: ServeClient::update applies a MutationBatch
// through a live server and every subsequent query serves the mutated graph;
// a rejected batch comes back Invalid without disturbing the stream.
TEST(SocketServer, UpdateFramesApplyMutationsOverTheWire) {
  ServeTarget target = target_for("ball-4", 300, 7);
  const std::shared_ptr<const ErasedInstance> inst = target.instance;
  const auto n = static_cast<std::int64_t>(inst->node_count());
  ServeConfig config;
  config.threads = 2;
  config.queue_capacity = static_cast<std::size_t>(n);
  config.cache.policy = CachePolicy::Shared;
  QueryService service(std::move(target), config);
  SocketServer server;
  const std::string path = unique_socket_path("update");
  ASSERT_TRUE(server.start(service, path));

  const MutationBatch batch = inst->propose_mutation(/*seed=*/99, /*rewires=*/2,
                                                     /*label_updates=*/1);
  ASSERT_FALSE(batch.empty());
  const std::vector<int> expected = offline_labels(*inst);
  const std::vector<int> expected_mut = offline_labels(inst->mutated(batch));

  ServeClient client;
  ASSERT_TRUE(client.connect(path));
  // Warm round on the pre-mutation graph: memoizes every answer, so the
  // update below has warm answers to evict or keep.
  for (std::int64_t v = 0; v < n; ++v) {
    const ServeClient::QueryReply reply = client.query(v);
    ASSERT_TRUE(reply.ok);
    ASSERT_FALSE(reply.shed);
    ASSERT_EQ(reply.result.label, expected[static_cast<std::size_t>(v)])
        << "pre-update node " << v;
  }

  const ServeClient::UpdateReply applied = client.update(batch);
  ASSERT_TRUE(applied.ok);
  EXPECT_EQ(applied.result.status, UpdateStatus::Ok);
  EXPECT_EQ(applied.result.flushed, 0);
  EXPECT_GE(applied.result.apply_ns, 0);

  // The same connection keeps working: every node now answers from the
  // mutated graph.
  for (std::int64_t v = 0; v < n; ++v) {
    const ServeClient::QueryReply reply = client.query(v);
    ASSERT_TRUE(reply.ok);
    ASSERT_FALSE(reply.shed);
    ASSERT_EQ(reply.result.label, expected_mut[static_cast<std::size_t>(v)])
        << "post-update node " << v;
  }

  // A bad rewire (root is not a leaf) is rejected server-side; the reply is
  // typed Invalid and the connection stays usable.
  MutationBatch bad;
  bad.rewires.push_back({0, 1});
  const ServeClient::UpdateReply rejected = client.update(bad);
  ASSERT_TRUE(rejected.ok);
  EXPECT_EQ(rejected.result.status, UpdateStatus::Invalid);
  const ServeClient::QueryReply still = client.query(0);
  ASSERT_TRUE(still.ok);
  EXPECT_EQ(still.result.label, expected_mut[0]);

  client.bye();
  service.drain_and_stop();
  server.stop();
}

// The transport registers its connection metrics in the service's registry:
// the connection-count gauge (the registry's only gauge) tracks live clients
// and the total counter every accept since start.
TEST(SocketServer, ConnectionMetricsAppearInTheServiceRegistry) {
  ServeTarget target = target_for("ball-4", 200, 7);
  ServeConfig config;
  config.threads = 1;
  QueryService service(std::move(target), config);
  SocketServer server;
  const std::string path = unique_socket_path("connmetrics");
  ASSERT_TRUE(server.start(service, path));

  ServeClient a, b;
  ASSERT_TRUE(a.connect(path));
  ASSERT_TRUE(b.connect(path));
  // One round-trip each so the accepts are definitely processed.
  ASSERT_TRUE(a.query(0).ok);
  ASSERT_TRUE(b.query(1).ok);

  obs::MetricsSnapshot snap = service.metrics().snapshot();
  EXPECT_EQ(snap.counter("serve.connections_total"), 2);
  EXPECT_EQ(snap.gauge("serve.connections"), 2);
  // The connection count is the stack's only gauge.
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].first, "serve.connections");

  a.close();
  b.close();
  for (int spin = 0; spin < 500 && server.connection_count() > 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  snap = service.metrics().snapshot();
  EXPECT_EQ(snap.gauge("serve.connections"), 0);
  EXPECT_EQ(snap.counter("serve.connections_total"), 2);

  service.drain_and_stop();
  server.stop();
  // After stop the gauge callback is re-pointed at a constant 0 — snapshots
  // of the outliving registry must not dereference the dead server.
  EXPECT_EQ(service.metrics().snapshot().gauge("serve.connections"), 0);
}

}  // namespace
}  // namespace volcal::serve
