// Determinism contract of the parallel sweep engine: SweepResult (outputs,
// per-node volume/distance, sup-costs, total_queries, truncated) must be
// bit-identical to the serial runner at any thread count — asserted here at
// 1, 2 and 8 threads for every problem family in the suite, plus the budget
// truncation path (repeated starts included), RandomTape bit-usage merging,
// and the CacheConfig constructor that refuses every policy but Off.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "labels/generators.hpp"
#include "lcl/algorithms/balanced_tree_algos.hpp"
#include "lcl/algorithms/hthc_algos.hpp"
#include "lcl/algorithms/hybrid_algos.hpp"
#include "lcl/algorithms/leaf_coloring_algos.hpp"
#include "lcl/algorithms/local_view.hpp"
#include "lcl/problems/mis.hpp"
#include "lcl/problems/ring_coloring.hpp"
#include "runtime/parallel_runner.hpp"
#include "volcal/runtime.hpp"

namespace volcal {
namespace {

constexpr int kThreadCounts[] = {2, 8};

template <typename Label>
void expect_identical(const SweepResult<Label>& serial, const SweepResult<Label>& parallel,
                      int threads) {
  EXPECT_EQ(serial.output, parallel.output) << "outputs diverged at " << threads << " threads";
  EXPECT_EQ(serial.volume, parallel.volume) << "volumes diverged at " << threads << " threads";
  EXPECT_EQ(serial.distance, parallel.distance)
      << "distances diverged at " << threads << " threads";
  EXPECT_EQ(serial.stats.max_volume, parallel.stats.max_volume);
  EXPECT_EQ(serial.stats.max_distance, parallel.stats.max_distance);
  EXPECT_EQ(serial.stats.total_queries, parallel.stats.total_queries);
  EXPECT_EQ(serial.stats.truncated, parallel.stats.truncated);
}

// Runs the solver through ParallelRunner at 1, 2 and 8 threads and asserts
// all three SweepResults are bit-identical.
template <typename Solver>
void check_thread_invariance(const Graph& g, const IdAssignment& ids, Solver&& solver,
                             std::int64_t budget = 0, RandomTape* tape = nullptr) {
  auto serial = ParallelRunner(1).run_at_all_nodes(g, ids, solver, budget, tape);
  EXPECT_GT(serial.stats.max_volume, 0);
  for (const int threads : kThreadCounts) {
    auto parallel = ParallelRunner(threads).run_at_all_nodes(g, ids, solver, budget, tape);
    expect_identical(serial, parallel, threads);
  }
}

TEST(ParallelRunner, LeafColoringDeterministicSolver) {
  auto inst = make_complete_binary_tree(8, Color::Red, Color::Blue);
  check_thread_invariance(inst.graph, inst.ids, [&](Execution& exec) {
    InstanceSource<ColoredTreeLabeling> src(inst, exec);
    return leafcoloring_nearest_leaf(src);
  });
}

TEST(ParallelRunner, LeafColoringRandomizedSolver) {
  auto inst = make_random_full_binary_tree(401, 3);
  RandomTape tape(inst.ids, 7);
  check_thread_invariance(
      inst.graph, inst.ids,
      [&](Execution& exec) {
        InstanceSource<ColoredTreeLabeling> src(inst, exec);
        return rw_to_leaf(src, tape);
      },
      /*budget=*/0, &tape);
}

TEST(ParallelRunner, BalancedTreeSolver) {
  auto inst = make_balanced_instance(7);
  check_thread_invariance(inst.graph, inst.ids, [&](Execution& exec) {
    InstanceSource<BalancedTreeLabeling> src(inst, exec);
    return balancedtree_solve(src);
  });
}

TEST(ParallelRunner, HierarchicalThcSolver) {
  auto inst = make_hierarchical_instance(2, 24, 11);
  auto cfg = HthcConfig::make(2, inst.node_count(), false, nullptr);
  check_thread_invariance(inst.graph, inst.ids, [&](Execution& exec) {
    InstanceSource<ColoredTreeLabeling> src(inst, exec);
    HthcSolver<InstanceSource<ColoredTreeLabeling>> solver(src, cfg);
    return solver.solve();
  });
}

TEST(ParallelRunner, RingColoringSolver) {
  auto ring = make_ring(257, 5);
  check_thread_invariance(ring.graph, ring.ids, [&](Execution& exec) {
    return ring_color_cole_vishkin(ring, exec);
  });
}

// bool-returning solvers exercise the vector<bool> output path, which must
// not bit-pack concurrent writes.
TEST(ParallelRunner, BoolOutputSolver) {
  auto ring = make_ring(511, 9);
  RandomTape tape(ring.ids, 13);
  check_thread_invariance(
      ring.graph, ring.ids,
      [&](Execution& exec) { return mis_lca_query(exec, tape); },
      /*budget=*/0, &tape);
}

TEST(ParallelRunner, BudgetTruncationIsDeterministic) {
  auto inst = make_complete_binary_tree(7, Color::Red, Color::Blue);
  check_thread_invariance(
      inst.graph, inst.ids,
      [](Execution& exec) {
        explore_ball(exec, 10);  // wants the whole graph
        return 0;
      },
      /*budget=*/9);
  auto run = ParallelRunner(8).run_at_all_nodes(
      inst.graph, inst.ids,
      [](Execution& exec) {
        explore_ball(exec, 10);
        return 0;
      },
      /*budget=*/9);
  EXPECT_GT(run.stats.truncated, 0);
  for (const auto v : run.volume) EXPECT_LE(v, 9);
}

// Sweeps execute every start: a repeated start runs (and truncates) again,
// and the per-start slots and the truncation count agree at 1 and 8 threads.
TEST(ParallelRunner, RepeatedStartsRunEveryTimeAndCountEveryTruncation) {
  const auto inst = make_complete_binary_tree(8, Color::Red, Color::Blue);
  const std::vector<NodeIndex> starts{0, 0, 0, 5, 5, 9, 0, 5, 9, 9};
  auto solver = [](Execution& exec) {
    return static_cast<int>(explore_ball(exec, 4).size());
  };
  for (const std::int64_t budget : {std::int64_t{0}, std::int64_t{12}}) {
    SCOPED_TRACE(budget);
    const auto serial = ParallelRunner(1).run_at(inst.graph, inst.ids, starts, solver, budget);
    const auto parallel =
        ParallelRunner(8).run_at(inst.graph, inst.ids, starts, solver, budget);
    expect_identical(serial, parallel, 8);
    EXPECT_EQ(serial.queries, parallel.queries);
    EXPECT_TRUE(same_costs(serial.stats, parallel.stats));
    EXPECT_EQ(serial.stats.starts, static_cast<std::int64_t>(starts.size()));
    EXPECT_EQ(serial.stats.truncated, budget > 0 ? static_cast<std::int64_t>(starts.size()) : 0);
    for (std::size_t i = 1; i < starts.size(); ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        if (starts[i] != starts[j]) continue;
        EXPECT_EQ(serial.output[i], serial.output[j]);
        EXPECT_EQ(serial.volume[i], serial.volume[j]);
        EXPECT_EQ(serial.queries[i], serial.queries[j]);
      }
    }
  }
}

// volbench builds its runner as ParallelRunner(1, CacheConfig{}); sweeps have
// no answer reuse, so that constructor accepts only CachePolicy::Off.
TEST(ParallelRunner, CacheConfigConstructorRefusesReuse) {
  EXPECT_EQ(ParallelRunner(3, CacheConfig{}).threads(), 3);
  CacheConfig shared;
  shared.policy = CachePolicy::Shared;
  EXPECT_THROW(ParallelRunner(1, shared), std::invalid_argument);
}

TEST(ParallelRunner, TapeBitAccountingMergesDeterministically) {
  auto inst = make_random_full_binary_tree(301, 17);
  auto sweep = [&](int threads) {
    RandomTape tape(inst.ids, 23);
    ParallelRunner(threads).run_at_all_nodes(
        inst.graph, inst.ids,
        [&](Execution& exec) {
          InstanceSource<ColoredTreeLabeling> src(inst, exec);
          return rw_to_leaf(src, tape);
        },
        0, &tape);
    std::vector<std::uint64_t> bits;
    bits.reserve(static_cast<std::size_t>(inst.node_count()));
    for (NodeIndex v = 0; v < inst.node_count(); ++v) bits.push_back(tape.bits_used(v));
    return bits;
  };
  const auto serial = sweep(1);
  EXPECT_EQ(serial, sweep(2));
  EXPECT_EQ(serial, sweep(8));
}

TEST(ParallelRunner, ScopedUsageDefersMergeUntilClose) {
  auto ids = IdAssignment::sequential(4);
  RandomTape tape(ids, 9);
  {
    RandomTape::ScopedUsage scope(tape);
    tape.bit(1, 1, 5);
    EXPECT_EQ(scope.local().bits(1), 6u);
    EXPECT_EQ(tape.bits_used(1), 0u);  // still worker-local
  }
  EXPECT_EQ(tape.bits_used(1), 6u);  // merged on scope close
}

TEST(ParallelRunner, SampledStartSweepMatchesSerial) {
  auto inst = make_complete_binary_tree(9, Color::Red, Color::Blue);
  std::vector<NodeIndex> starts{0, 5, 100, 300, inst.node_count() - 1};
  auto solver = [&](Execution& exec) {
    InstanceSource<ColoredTreeLabeling> src(inst, exec);
    return leafcoloring_nearest_leaf(src);
  };
  auto serial = ParallelRunner(1).run_at(inst.graph, inst.ids, starts, solver);
  ASSERT_EQ(serial.output.size(), starts.size());
  for (const int threads : kThreadCounts) {
    auto parallel = ParallelRunner(threads).run_at(inst.graph, inst.ids, starts, solver);
    expect_identical(serial, parallel, threads);
  }
}

TEST(ParallelRunner, MoreThreadsThanStartsIsClamped) {
  auto inst = make_complete_binary_tree(2, Color::Red, Color::Blue);  // 7 nodes
  auto run = ParallelRunner(64).run_at_all_nodes(inst.graph, inst.ids, [](Execution& exec) {
    explore_ball(exec, 1);
    return 0;
  });
  EXPECT_EQ(static_cast<NodeIndex>(run.output.size()), inst.node_count());
  EXPECT_TRUE(satisfies_lemma_2_5(inst.graph, run));
}

TEST(ParallelRunner, ThreadCountResolution) {
  EXPECT_EQ(ParallelRunner(4).threads(), 4);
  ASSERT_EQ(setenv("VOLCAL_THREADS", "3", 1), 0);
  EXPECT_EQ(ParallelRunner().threads(), 3);
  EXPECT_EQ(ParallelRunner(2).threads(), 2);  // explicit beats env
  ASSERT_EQ(unsetenv("VOLCAL_THREADS"), 0);
  EXPECT_EQ(ParallelRunner().threads(), 1);  // determinism-by-default
}

// Non-budget exceptions thrown by a solver propagate out of the sweep.
TEST(ParallelRunner, SolverExceptionsPropagate) {
  auto inst = make_complete_binary_tree(4, Color::Red, Color::Blue);
  for (const int threads : {1, 2, 8}) {
    EXPECT_THROW(ParallelRunner(threads).run_at_all_nodes(
                     inst.graph, inst.ids,
                     [](Execution& exec) {
                       if (exec.start() == 7) throw std::runtime_error("boom");
                       return 0;
                     }),
                 std::runtime_error);
  }
}

}  // namespace
}  // namespace volcal
