// The answer memo (runtime/answer_memo.hpp) and answer reuse in sweeps.
//
//   * Region eviction is exact at its boundary: an answer is evicted when a
//     changed node lies at distance distance(v) and kept at distance(v) + 1,
//     for structural batches with one or several endpoints and for
//     label-only batches — and every kept answer equals a cold recomputation
//     on the mutated graph.
//   * The race rule: a store computed against an older generation is
//     dropped, a lookup never returns an answer stored for a newer target,
//     and a swap to a snapshot mapped at a recycled address serves nothing
//     stale — including with concurrent waves racing live mutations.
//   * Sweeps under CachePolicy::Shared run each distinct start once and are
//     bit-identical to executing every start, for every registry family at
//     1 and 8 threads; recording sweeps never reuse.
//   * Moved here with the behaviour they pin: the ExecutionScratch epoch
//     wrap-around regression, its node-count limit and the graph storage
//     copy semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "labels/generators.hpp"
#include "lcl/registry.hpp"
#include "obs/trace.hpp"
#include "volcal/runtime.hpp"
#include "volcal/serve.hpp"

namespace volcal {
namespace {

// --- helpers ----------------------------------------------------------------

Graph path_graph(NodeIndex nodes) {
  Graph::Builder builder(nodes);
  for (NodeIndex v = 0; v + 1 < nodes; ++v) builder.add_edge(v, v + 1);
  return std::move(builder).build();
}

// The radius-r ball answer at v: label = ball size, plus the three meters.
Answer ball_answer(GraphView g, const IdAssignment& ids, NodeIndex v, std::int64_t radius) {
  Execution exec(g, ids, v);
  const auto ball = explore_ball(exec, radius);
  return {static_cast<int>(ball.size()), exec.volume(), exec.distance(), exec.query_count()};
}

// Memoizes the radius-r ball answer of every node of g.
void warm_balls(AnswerMemo& memo, GraphView g, const IdAssignment& ids, std::int64_t radius) {
  const AnswerMemo::Generation gen = memo.generation();
  for (NodeIndex v = 0; v < g.node_count(); ++v) {
    memo.store(v, gen, ball_answer(g, ids, v, radius));
  }
}

// Every kept answer equals the cold answer on `after`; returns the nodes
// whose answers were kept.
std::vector<NodeIndex> kept_nodes(AnswerMemo& memo, GraphView after, const IdAssignment& ids,
                                  std::int64_t radius) {
  std::vector<NodeIndex> kept;
  const AnswerMemo::Generation gen = memo.generation();
  for (NodeIndex v = 0; v < after.node_count(); ++v) {
    if (const auto hit = memo.lookup(v, gen)) {
      EXPECT_EQ(*hit, ball_answer(after, ids, v, radius)) << "stale answer kept at node " << v;
      kept.push_back(v);
    }
  }
  return kept;
}

CacheConfig policy_config(CachePolicy policy) {
  CacheConfig c;
  c.policy = policy;
  return c;
}

// --- region eviction --------------------------------------------------------

// A path gives exact control over old-graph distances: re-hanging the far
// leaf on node 0 touches {0, N-2, N-1}, so an interior node c lies at
// distance min(c, N-2-c) from the touched set, and its radius-R ball answer
// has distance(c) == R.  Distance == R evicts, distance == R + 1 keeps.
TEST(AnswerMemoRegion, EvictsAtItsDistanceKeepsOneBeyond) {
  constexpr NodeIndex kNodes = 24;
  constexpr std::int64_t kRadius = 3;
  const Graph path = path_graph(kNodes);
  const IdAssignment ids = IdAssignment::sequential(kNodes);
  MutationBatch batch;
  batch.rewires.push_back({kNodes - 1, 0});
  const AppliedMutation applied = apply_mutation(path.view(), batch);
  ASSERT_EQ(applied.touched, (std::vector<NodeIndex>{0, kNodes - 2, kNodes - 1}));

  AnswerMemo memo(kNodes);
  warm_balls(memo, path, ids, kRadius);
  ASSERT_EQ(memo.size(), static_cast<std::size_t>(kNodes));
  ASSERT_EQ(memo.lookup(3, memo.generation())->distance, kRadius);

  const AnswerMemo::Eviction ev =
      memo.evict_region(path.view(), changed_nodes(batch, applied.touched));
  // Evicted: 0..3 (within R of node 0) and 19..23 (within R of node 22).
  EXPECT_EQ(ev.evicted, 9u);
  EXPECT_EQ(ev.retained, static_cast<std::size_t>(kNodes) - 9u);
  const std::vector<NodeIndex> kept = kept_nodes(memo, applied.graph, ids, kRadius);
  std::vector<NodeIndex> expect;
  for (NodeIndex v = 4; v <= 18; ++v) expect.push_back(v);
  EXPECT_EQ(kept, expect);
}

// The BFS is multi-source: a node loses its answer when ANY changed node is
// within its distance.
TEST(AnswerMemoRegion, MultiTouchBatchEvictsAroundEveryEndpoint) {
  constexpr NodeIndex kNodes = 30;
  constexpr std::int64_t kRadius = 2;
  const Graph path = path_graph(kNodes);
  const IdAssignment ids = IdAssignment::sequential(kNodes);
  MutationBatch batch;
  batch.rewires.push_back({0, 14});
  batch.rewires.push_back({kNodes - 1, 15});
  const AppliedMutation applied = apply_mutation(path.view(), batch);
  ASSERT_EQ(applied.touched, (std::vector<NodeIndex>{0, 1, 14, 15, kNodes - 2, kNodes - 1}));

  AnswerMemo memo(kNodes);
  warm_balls(memo, path, ids, kRadius);
  const AnswerMemo::Eviction ev =
      memo.evict_region(path.view(), changed_nodes(batch, applied.touched));
  const std::vector<NodeIndex> kept = kept_nodes(memo, applied.graph, ids, kRadius);
  // Evicted: 0..3 (around 0 and 1), 12..17 (around 14 and 15), 26..29.
  std::vector<NodeIndex> expect;
  for (NodeIndex v = 4; v <= 11; ++v) expect.push_back(v);
  for (NodeIndex v = 18; v <= 25; ++v) expect.push_back(v);
  EXPECT_EQ(kept, expect);
  EXPECT_EQ(ev.retained, expect.size());
  EXPECT_EQ(ev.evicted + ev.retained, static_cast<std::size_t>(kNodes));
}

// A label-only batch has no structural endpoints, but a relabelled node is
// read by every execution that visits it: exactly the answers whose
// distance reaches it are evicted.
TEST(AnswerMemoRegion, LabelOnlyBatchEvictsAnswersThatReachARelabelledNode) {
  constexpr NodeIndex kNodes = 20;
  constexpr std::int64_t kRadius = 2;
  const Graph path = path_graph(kNodes);
  const IdAssignment ids = IdAssignment::sequential(kNodes);
  MutationBatch batch;
  batch.label_updates.push_back({10, LabelChannel::InColor, 1});
  const AppliedMutation applied = apply_mutation(path.view(), batch);
  ASSERT_TRUE(applied.touched.empty());
  ASSERT_EQ(changed_nodes(batch, applied.touched), (std::vector<NodeIndex>{10}));

  AnswerMemo memo(kNodes);
  warm_balls(memo, path, ids, kRadius);
  const AnswerMemo::Eviction ev =
      memo.evict_region(path.view(), changed_nodes(batch, applied.touched));
  EXPECT_EQ(ev.evicted, 5u);  // 8..12
  const std::vector<NodeIndex> kept = kept_nodes(memo, applied.graph, ids, kRadius);
  for (NodeIndex v = 8; v <= 12; ++v) {
    EXPECT_FALSE(std::binary_search(kept.begin(), kept.end(), v)) << "node " << v;
  }
  EXPECT_EQ(kept.size(), static_cast<std::size_t>(kNodes) - 5u);

  // A registry family whose solver reads labels: after a label-only batch on
  // leaf-coloring, every answer the memo keeps equals a cold run.
  const RegistryEntry* leaf = ProblemRegistry::global().find("leaf-coloring");
  ASSERT_NE(leaf, nullptr);
  const ErasedInstance inst = leaf->make(300, 5);
  const MutationBatch relabel = inst.propose_mutation(9, /*rewires=*/0, /*label_updates=*/3);
  ASSERT_TRUE(relabel.rewires.empty());
  ASSERT_FALSE(relabel.label_updates.empty());
  std::vector<NodeIndex> touched;
  const ErasedInstance mut = inst.mutated(relabel, &touched);
  ExecutionScratch scratch;
  AnswerMemo leaf_memo(inst.node_count());
  const AnswerMemo::Generation gen = leaf_memo.generation();
  for (NodeIndex v = 0; v < inst.node_count(); ++v) {
    leaf_memo.store(v, gen, inst.answer_at(v, scratch));
  }
  const AnswerMemo::Eviction lev =
      leaf_memo.evict_region(inst.graph(), changed_nodes(relabel, touched));
  EXPECT_GE(lev.evicted, changed_nodes(relabel, touched).size());
  for (NodeIndex v = 0; v < inst.node_count(); ++v) {
    if (const auto hit = leaf_memo.lookup(v, leaf_memo.generation())) {
      EXPECT_EQ(*hit, mut.answer_at(v, scratch)) << "stale leaf-coloring answer at " << v;
    }
  }
}

// --- the race rule ------------------------------------------------------------

// A wave takes generation g with its target.  Once a mutation has moved the
// memo on, the wave's stores are dropped (its answers never become visible),
// and it never reads an answer stored for the newer target.  A reset shuts
// every older generation out.
TEST(AnswerMemoRace, StaleStoresAreDroppedAndNewerAnswersAreNotServed) {
  constexpr NodeIndex kNodes = 16;
  const Graph path = path_graph(kNodes);
  const IdAssignment ids = IdAssignment::sequential(kNodes);
  AnswerMemo memo(kNodes);
  const AnswerMemo::Generation old_gen = memo.generation();
  const Answer a = ball_answer(path, ids, 5, 2);

  // The mutation lands between the wave's snapshot and its store.
  memo.evict_region(path.view(), std::vector<NodeIndex>{0});
  const AnswerMemo::Generation new_gen = memo.generation();
  ASSERT_GT(new_gen, old_gen);
  memo.store(5, old_gen, a);
  EXPECT_EQ(memo.size(), 0u) << "an old-target answer became visible after the mutation";
  EXPECT_FALSE(memo.lookup(5, new_gen).has_value());

  // A store at the current generation is accepted — for readers at that
  // generation only, never for the older wave.
  memo.store(5, new_gen, a);
  ASSERT_EQ(memo.size(), 1u);
  EXPECT_EQ(memo.lookup(5, new_gen), a);
  EXPECT_FALSE(memo.lookup(5, old_gen).has_value())
      << "a wave read an answer stored for a newer target";

  // An answer stored before a mutation that certifies it stays readable by
  // both generations (it is exact for both).
  memo.store(12, new_gen, ball_answer(path, ids, 12, 2));
  memo.evict_region(path.view(), std::vector<NodeIndex>{0});
  const AnswerMemo::Generation third = memo.generation();
  EXPECT_TRUE(memo.lookup(12, new_gen).has_value());
  EXPECT_TRUE(memo.lookup(12, third).has_value());

  // reset() drops everything: neither old generation reads anything, and
  // their stores are dropped.
  const AnswerMemo::Generation fresh = memo.reset(kNodes);
  EXPECT_EQ(memo.size(), 0u);
  memo.store(12, third, a);
  EXPECT_EQ(memo.size(), 0u);
  memo.store(12, fresh, a);
  EXPECT_FALSE(memo.lookup(12, third).has_value());
  EXPECT_EQ(memo.lookup(12, fresh), a);
  // Out-of-range nodes and answers too wide for an entry are never kept.
  memo.store(kNodes, fresh, a);
  memo.store(-1, fresh, a);
  memo.store(3, fresh, Answer{1, std::int64_t{1} << 40, 1, 1});
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_FALSE(memo.lookup(kNodes, fresh).has_value());
  EXPECT_FALSE(memo.lookup(-1, fresh).has_value());
}

// Simulates munmap/mmap address reuse across a snapshot swap: two different
// graphs occupy the *same* CSR storage in turn behind a live QueryService
// with a warm memo.  Every post-swap answer must be the new graph's.
TEST(AnswerMemoRace, SwapToARecycledAddressServesNothingStale) {
  constexpr NodeIndex kNodes = 12;
  // Same degree sequence (so the offsets are byte-identical), different
  // order: node 1 sits 1 hop from an end on A and 4 hops from both on B.
  auto build_path = [](const std::vector<NodeIndex>& order) {
    Graph::Builder b(static_cast<NodeIndex>(order.size()));
    for (std::size_t i = 0; i + 1 < order.size(); ++i) b.add_edge(order[i], order[i + 1]);
    return std::move(b).build();
  };
  const Graph a = build_path({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  const Graph b = build_path({0, 5, 6, 7, 8, 9, 10, 1, 2, 3, 4, 11});
  ASSERT_EQ(a.edge_count(), b.edge_count());
  std::vector<CsrIndex> off(a.view().offsets_data(), a.view().offsets_data() + kNodes + 1);
  std::vector<CsrIndex> adj(a.view().adjacency_data(),
                            a.view().adjacency_data() + 2 * a.edge_count());
  ASSERT_TRUE(std::equal(off.begin(), off.end(), b.view().offsets_data()));

  auto serve_target = [&](int max_degree) {
    LeafColoringInstance inst{
        Graph::adopt(GraphView(off.data(), adj.data(), kNodes, max_degree)),
        IdAssignment::sequential(kNodes), ColoredTreeLabeling(kNodes)};
    return serve::make_serve_target(
        std::make_shared<const ErasedInstance>(erase_instance("ball-4", std::move(inst))));
  };
  auto labels_of = [&](const Graph& g) {
    std::vector<int> out;
    for (NodeIndex v = 0; v < kNodes; ++v) {
      out.push_back(ball_answer(g, IdAssignment::sequential(kNodes), v, 4).label);
    }
    return out;
  };
  const std::vector<int> expect_a = labels_of(a);
  const std::vector<int> expect_b = labels_of(b);
  ASSERT_NE(expect_a, expect_b);

  serve::ServeConfig config;
  config.threads = 2;
  config.cache.policy = CachePolicy::Shared;
  serve::QueryService service(serve_target(a.max_degree()), config);
  auto query_all = [&](std::uint64_t base) {
    std::mutex mu;
    std::map<std::uint64_t, int> labels;
    std::atomic<int> done{0};
    for (NodeIndex v = 0; v < kNodes; ++v) {
      EXPECT_EQ(service.submit(base + static_cast<std::uint64_t>(v), v,
                               [&](const serve::QueryResult& r) {
                                 {
                                   std::lock_guard lock(mu);
                                   labels[r.request_id - base] = r.label;
                                 }
                                 // Counted only once `mu` is released:
                                 // query_all may return (and its stack
                                 // go) as soon as the count is complete.
                                 done.fetch_add(1);
                               }),
                serve::Admission::Accepted);
    }
    while (done.load() < kNodes) std::this_thread::yield();
    std::vector<int> out;
    for (const auto& [v, label] : labels) out.push_back(label);
    return out;
  };
  EXPECT_EQ(query_all(0), expect_a);
  EXPECT_EQ(query_all(100), expect_a);  // served from the memo
  EXPECT_GT(service.cache_stats().hits, 0);

  // The swap: B's bytes land at A's addresses.
  std::copy(b.view().adjacency_data(), b.view().adjacency_data() + adj.size(), adj.begin());
  service.swap_target(serve_target(b.max_degree()));
  EXPECT_EQ(query_all(200), expect_b) << "the memo served an answer of the swapped-out graph";
  service.drain_and_stop();
}

// Waves race live mutations on ball-4 and on leaf-coloring: whatever was in
// flight during an apply, every query submitted after apply_mutations
// returns is answered for the mutated graph.
TEST(AnswerMemoRace, ConcurrentWavesNeverServeAnAnswerPastItsMutation) {
  for (const char* family : {"ball-4", "leaf-coloring"}) {
    SCOPED_TRACE(family);
    const RegistryEntry* entry = ProblemRegistry::global().find(family);
    ASSERT_NE(entry, nullptr);
    auto inst = std::make_shared<const ErasedInstance>(entry->make_variant(400, 3, 1));
    const NodeIndex n = inst->node_count();
    serve::ServeConfig config;
    config.threads = 4;
    config.batch_max = 8;
    config.queue_capacity = 4096;
    config.cache.policy = CachePolicy::Shared;
    serve::QueryService service(serve::make_serve_target(inst), config);

    // Background load: keeps up to 256 queries in flight across every apply.
    std::atomic<bool> stop{false};
    std::atomic<int> outstanding{0};
    std::thread load([&] {
      std::uint64_t x = 1;
      for (std::uint64_t id = 1u << 30; !stop.load(); ++id) {
        if (outstanding.load() >= 256) {
          std::this_thread::yield();
          continue;
        }
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        outstanding.fetch_add(1);
        if (service.submit(id, static_cast<NodeIndex>((x >> 33) % n),
                           [&](const serve::QueryResult&) { outstanding.fetch_sub(1); }) !=
            serve::Admission::Accepted) {
          outstanding.fetch_sub(1);
        }
      }
    });

    std::shared_ptr<const ErasedInstance> cur = inst;
    for (int k = 0; k < 4; ++k) {
      const MutationBatch batch = cur->propose_mutation(100 + k, 1, 2);
      auto next = std::make_shared<const ErasedInstance>(cur->mutated(batch));
      ExecutionScratch scratch;
      std::vector<int> expected;
      for (NodeIndex v = 0; v < n; ++v) expected.push_back(next->answer_at(v, scratch).label);
      ASSERT_TRUE(service.apply_mutations(batch).ok);
      cur = next;

      std::mutex mu;
      std::vector<int> got(static_cast<std::size_t>(n), -1);
      std::atomic<NodeIndex> done{0};
      for (NodeIndex v = 0; v < n; ++v) {
        ASSERT_EQ(service.submit(static_cast<std::uint64_t>(v), v,
                                 [&, v](const serve::QueryResult& r) {
                                   std::lock_guard lock(mu);
                                   got[static_cast<std::size_t>(v)] = r.label;
                                   done.fetch_add(1);
                                 }),
                  serve::Admission::Accepted);
      }
      while (done.load() < n) std::this_thread::yield();
      std::lock_guard lock(mu);
      ASSERT_EQ(got, expected) << "a stale answer was served after mutation " << k;
    }
    stop.store(true);
    load.join();
    service.drain_and_stop();
    EXPECT_GT(service.cache_stats().hits, 0);
  }
}

// --- answer reuse in sweeps ---------------------------------------------------

TEST(AnswerReuse, EveryRegistryFamilyIsPolicyAndThreadInvariant) {
  for (const RegistryEntry& entry : ProblemRegistry::global().entries()) {
    SCOPED_TRACE(entry.name);
    const ErasedInstance inst = entry.make(300, /*seed=*/21);
    std::vector<NodeIndex> starts;
    for (NodeIndex v = 0; v < inst.node_count(); ++v) starts.push_back(v);
    for (NodeIndex v = inst.node_count() - 1; v >= 0; v -= 3) starts.push_back(v);
    auto solver = [&](Execution& exec) { return inst.solve(exec); };
    const auto baseline = ParallelRunner(1, policy_config(CachePolicy::Off))
                              .run_at(inst.graph(), inst.ids(), starts, solver);
    for (const int threads : {1, 8}) {
      const auto run = ParallelRunner(threads, policy_config(CachePolicy::Shared))
                           .run_at(inst.graph(), inst.ids(), starts, solver);
      EXPECT_EQ(baseline.output, run.output) << threads << " threads";
      EXPECT_EQ(baseline.volume, run.volume);
      EXPECT_EQ(baseline.distance, run.distance);
      EXPECT_EQ(baseline.queries, run.queries);
      EXPECT_TRUE(same_costs(baseline.stats, run.stats));
      EXPECT_EQ(run.stats.cache.policy, CachePolicy::Shared);
      EXPECT_EQ(run.stats.cache.misses, inst.node_count());
      EXPECT_EQ(run.stats.cache.hits,
                static_cast<std::int64_t>(starts.size()) - inst.node_count());
    }
  }
}

TEST(AnswerReuse, RepeatedStartsRunOnceAndCopyTruncation) {
  const auto inst = make_complete_binary_tree(8, Color::Red, Color::Blue);
  const std::vector<NodeIndex> starts{0, 0, 0, 5, 5, 9, 0, 5, 9, 9};
  auto solver = [](Execution& exec) {
    return static_cast<int>(explore_ball(exec, 4).size());
  };
  for (const std::int64_t budget : {std::int64_t{0}, std::int64_t{12}}) {
    SCOPED_TRACE(budget);
    const auto off = ParallelRunner(1, policy_config(CachePolicy::Off))
                         .run_at(inst.graph, inst.ids, starts, solver, budget);
    for (const int threads : {1, 8}) {
      const auto shared = ParallelRunner(threads, policy_config(CachePolicy::Shared))
                              .run_at(inst.graph, inst.ids, starts, solver, budget);
      EXPECT_EQ(off.output, shared.output);
      EXPECT_EQ(off.volume, shared.volume);
      EXPECT_TRUE(same_costs(off.stats, shared.stats));  // truncation included
      EXPECT_EQ(shared.stats.cache.misses, 3);
      EXPECT_EQ(shared.stats.cache.hits, 7);
      EXPECT_GT(shared.stats.cache.served_nodes, 0);
    }
    if (budget > 0) {
      EXPECT_EQ(off.stats.truncated, static_cast<std::int64_t>(starts.size()));
    }
  }
}

// Recording sinks execute every start: a trace must contain every query.
TEST(AnswerReuse, TracedSweepsNeverReuse) {
  const auto inst = make_complete_binary_tree(6, Color::Red, Color::Blue);
  const std::vector<NodeIndex> starts{0, 0, 3, 3, 11, 11};
  auto solver = [](auto& exec) {
    return static_cast<int>(explore_ball(exec, 3).size());
  };
  const auto plain = ParallelRunner(1, policy_config(CachePolicy::Off))
                         .run_at(inst.graph, inst.ids, starts, solver);
  ParallelRunner shared_runner(2, policy_config(CachePolicy::Shared));
  obs::TraceRecorder recorder;
  const auto traced = obs::run_at_traced(shared_runner, inst.graph, inst.ids, starts,
                                         solver, recorder);
  EXPECT_EQ(plain.output, traced.output);
  EXPECT_TRUE(same_costs(plain.stats, traced.stats));
  EXPECT_EQ(traced.stats.cache.hits, 0);
  ASSERT_EQ(recorder.traces().size(), starts.size());
  for (std::size_t i = 0; i < starts.size(); ++i) {
    EXPECT_EQ(static_cast<std::int64_t>(recorder.traces()[i].events.size()),
              plain.queries[i]);
  }
}

// --- moved with the behaviour they pin --------------------------------------

TEST(ExecutionScratch, EpochWrapAroundDoesNotResurrectStamps) {
  using Epoch = ExecutionScratch::Epoch;
  auto inst = make_complete_binary_tree(4, Color::Red, Color::Blue);
  ExecutionScratch scratch(inst.node_count());
  // Place the counter so the next execution runs at the last epoch and
  // stamps nodes with it...
  scratch.set_epoch_for_testing(std::numeric_limits<Epoch>::max() - 1);
  {
    Execution exec(inst.graph, inst.ids, 0, 0, scratch);
    explore_ball(exec, 2);
    EXPECT_GT(exec.volume(), 1);
  }
  EXPECT_EQ(scratch.epoch_for_testing(), std::numeric_limits<Epoch>::max());
  // ...so this begin() must take the wrap guard.  Without it the epoch would
  // wrap to 0 — the "never visited" stamp value — and every untouched slot
  // in the scratch would read as visited by the new execution.
  Execution exec(inst.graph, inst.ids, 0, 0, scratch);
  EXPECT_EQ(scratch.epoch_for_testing(), 1u);
  EXPECT_EQ(exec.volume(), 1);
  for (NodeIndex v = 1; v < inst.node_count(); ++v) {
    EXPECT_FALSE(exec.visited(v)) << "stale stamp resurrected at node " << v;
  }
  const auto ball4 = explore_ball(exec, 4);
  EXPECT_EQ(static_cast<std::int64_t>(ball4.size()), exec.volume());
}

// A layer is stored as int32 and is < n, so reserve() refuses n > 2^31 - 1
// before it allocates: the scratch keeps the capacity it had.
TEST(ExecutionScratch, ReserveRefusesGraphsPastTheLayerRange) {
  ExecutionScratch scratch;
  EXPECT_THROW(scratch.reserve(NodeIndex{1} << 31), std::length_error);
  EXPECT_EQ(scratch.capacity(), 0);
  scratch.reserve(100);
  EXPECT_THROW(scratch.reserve(kMaxNodes + 1), std::length_error);
  EXPECT_EQ(scratch.capacity(), 100);
}

// Owned-storage copies get new arrays; an adopted Graph and its copies alias
// the arrays they borrowed.
TEST(GraphStorage, OwnedCopiesGetNewArraysAdoptedCopiesAlias) {
  auto inst = make_complete_binary_tree(4, Color::Red, Color::Blue);
  const GraphView v = inst.graph.view();
  auto same_arrays = [](const GraphView& a, const GraphView& b) {
    return a.offsets_data() == b.offsets_data() && a.adjacency_data() == b.adjacency_data();
  };
  EXPECT_TRUE(same_arrays(inst.graph.view(), v));
  const Graph owned_copy = inst.graph;  // copies the CSR arrays
  EXPECT_NE(owned_copy.view().offsets_data(), v.offsets_data());
  EXPECT_NE(owned_copy.view().adjacency_data(), v.adjacency_data());
  const Graph adopted = Graph::adopt(v);
  EXPECT_TRUE(same_arrays(adopted.view(), v));
  const Graph adopted_copy = adopted;  // aliases the same storage
  EXPECT_TRUE(same_arrays(adopted_copy.view(), v));
}

}  // namespace
}  // namespace volcal
