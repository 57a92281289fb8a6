// Engine throughput: whole-graph sweeps on the historical map-based
// Execution (serial) vs the flat epoch-stamped Execution, serial and
// parallel (runtime/parallel_runner.hpp).
//
// All engines compute identical results — asserted below per workload — so
// the only thing that varies is wall time.  Workloads:
//   * ball     — explore_ball(r) from every node of a complete binary tree:
//                the pure engine loop (query + stamp + layer), no solver
//                logic on top;
//   * nearleaf — Prop. 3.9 nearest-leaf from every node of a complete binary
//                tree: a real Table-1 solver with label reads through
//                InstanceSource;
//   * balanced — Prop. 4.8 BalancedTree from every node of an unbalanced
//                instance (depths 12 and 14 only, so the map engine's row
//                stays short): the other child-walk solver.
//
// Usage: bench_runner [bench::Args flags; see --help].  Thread counts for the parallel rows
// are fixed at 2/4/8 (on a single-core host they measure scheduling overhead,
// not speedup; the flat-vs-map row is the hardware-independent headline).
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "labels/generators.hpp"
#include "lcl/algorithms/balanced_tree_algos.hpp"
#include "lcl/algorithms/leaf_coloring_algos.hpp"
#include "lcl/algorithms/local_view.hpp"
#include "runtime/reference_execution.hpp"

namespace volcal::bench {
namespace {

std::vector<NodeIndex> every_node(NodeIndex n) {
  std::vector<NodeIndex> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), NodeIndex{0});
  return all;
}

struct SweepCost {
  std::int64_t max_volume = 0;
  std::int64_t max_distance = 0;
  std::int64_t total_volume = 0;   // visited nodes summed over starts
  std::int64_t total_queries = 0;  // query() calls summed over starts
  double seconds = 0.0;

  bool same_costs(const SweepCost& other) const {
    return max_volume == other.max_volume && max_distance == other.max_distance &&
           total_volume == other.total_volume && total_queries == other.total_queries;
  }
};

// Serial sweep on the historical unordered_map Execution: one map allocation
// and O(volume) rehashing per start node.
template <typename Fn>
SweepCost sweep_map(const Graph& g, const IdAssignment& ids,
                    const std::vector<NodeIndex>& starts, Fn&& solve) {
  WallTimer timer;
  SweepCost cost;
  for (const NodeIndex v : starts) {
    ReferenceMapExecution exec(g, ids, v);
    solve(exec);
    cost.max_volume = std::max(cost.max_volume, exec.volume());
    cost.max_distance = std::max(cost.max_distance, exec.distance());
    cost.total_volume += exec.volume();
    cost.total_queries += exec.query_count();
  }
  cost.seconds = timer.seconds();
  return cost;
}

template <typename Fn>
SweepCost sweep_flat(const Graph& g, const IdAssignment& ids,
                     const std::vector<NodeIndex>& starts, Fn&& solve, int threads) {
  WallTimer timer;
  auto run = ParallelRunner(threads).run_at(g, ids, std::span<const NodeIndex>(starts),
                                            [&](Execution& exec) {
                                              solve(exec);
                                              return 0;
                                            });
  SweepCost cost;
  cost.max_volume = run.stats.max_volume;
  cost.max_distance = run.stats.max_distance;
  cost.total_volume = run.stats.total_volume;
  cost.total_queries = run.stats.total_queries;
  cost.seconds = timer.seconds();
  return cost;
}

struct EngineRow {
  std::string engine;
  SweepCost cost;
};

// One plan-dispatched sweep on an explicit backend, keeping the aggregate
// stats (batch counters), the optional profile (per-worker batch occupancy)
// and the per-start outputs (for the divergence check).
template <typename Fn>
SweepCost sweep_backend(const Graph& g, const IdAssignment& ids,
                        const std::vector<NodeIndex>& starts, Fn&& solve, int threads,
                        ExecBackend backend, const ProbePlan& plan, SweepStats* stats_out,
                        SweepProfile* profile_out, std::vector<int>* output_out) {
  ParallelRunner runner(threads);
  runner.set_backend(backend);
  WallTimer timer;
  auto run = runner.run_planned(g, ids, std::span<const NodeIndex>(starts), plan,
                                [&](Execution& exec) { return solve(exec); },
                                /*budget=*/0, /*tape=*/nullptr, profile_out);
  SweepCost cost;
  cost.max_volume = run.stats.max_volume;
  cost.max_distance = run.stats.max_distance;
  cost.total_volume = run.stats.total_volume;
  cost.total_queries = run.stats.total_queries;
  cost.seconds = timer.seconds();
  if (stats_out != nullptr) *stats_out = run.stats;
  if (output_out != nullptr) *output_out = std::move(run.output);
  return cost;
}

struct AblationRow {
  ExecBackend backend;
  int threads;
  SweepCost cost;
  SweepStats stats;
  SweepProfile profile;
  std::vector<int> output;
};

std::string row_engine(const AblationRow& row) {
  return std::string(backend_name(row.backend)) + " x" + std::to_string(row.threads);
}

const AblationRow* find_row(const std::vector<AblationRow>& rows, ExecBackend backend,
                            int threads) {
  for (const AblationRow& row : rows) {
    if (row.backend == backend && row.threads == threads) return &row;
  }
  return nullptr;
}

// Per-worker batch occupancy of one batched row: starts per wave is the
// amortization factor — how many balls each union-frontier wave advanced.
void print_batch_occupancy(const AblationRow& row) {
  std::printf("  %s per-worker batch occupancy:", row_engine(row).c_str());
  for (std::size_t w = 0; w < row.profile.worker_batches.size(); ++w) {
    const double waves = static_cast<double>(row.profile.worker_waves[w]);
    const double occupancy =
        waves > 0.0 ? static_cast<double>(row.profile.worker_batched_starts[w]) / waves : 0.0;
    std::printf(" w%zu=%.1f", w, occupancy);
  }
  std::printf(" starts/wave (batches=%lld starts=%lld waves=%lld)\n",
              static_cast<long long>(row.stats.batch.batches),
              static_cast<long long>(row.stats.batch.batched_starts),
              static_cast<long long>(row.stats.batch.waves));
}

// Backend ablation on the whole-graph ball sweep: the batched backend's fused
// wave traversal against the per-start loop, at 1 and 8 threads.  Every row
// is verified bit-identical against basic x1 — the backend may only move wall
// time, which is also why CI diffs its batched perf-gate sweep against the
// same bench/baselines/ as the basic one.
void run_backend_ablation(const Args& args, stats::Table& table, JsonReport& report) {
  const auto inst = make_complete_binary_tree(15, Color::Red, Color::Blue);  // 2^16 - 1
  if (!args.keep_n(inst.node_count())) return;
  auto ph = report.phase("backend-ablation");
  constexpr int kRadius = 6;
  constexpr int kRepeats = 2;
  const char* const kWorkload = "ball(r=6)/all";
  const std::vector<NodeIndex> all = every_node(inst.node_count());
  auto solve = [](Execution& exec) { return static_cast<int>(explore_ball(exec, kRadius).size()); };
  const ProbePlan plan = ProbePlan::batched_ball(kRadius);

  std::vector<AblationRow> rows;
  for (const ExecBackend backend : {ExecBackend::Basic, ExecBackend::Batched}) {
    for (const int threads : {1, 8}) {
      AblationRow row{backend, threads, {}, {}, {}, {}};
      row.cost = sweep_backend(inst.graph, inst.ids, all, solve, threads, backend, plan,
                               &row.stats, &row.profile, &row.output);
      for (int r = 1; r < kRepeats; ++r) {
        const SweepCost again = sweep_backend(inst.graph, inst.ids, all, solve, threads,
                                              backend, plan, nullptr, nullptr, nullptr);
        row.cost.seconds += again.seconds;
        row.cost.total_volume += again.total_volume;
        row.cost.total_queries += again.total_queries;
      }
      rows.push_back(std::move(row));
    }
  }
  const AblationRow& base = rows.front();  // basic x1
  const double total_starts = static_cast<double>(all.size()) * kRepeats;
  for (const AblationRow& row : rows) {
    if (!row.cost.same_costs(base.cost) || row.output != base.output) {
      std::fprintf(stderr, "FATAL: '%s' diverged from the basic serial sweep on %s\n",
                   row_engine(row).c_str(), kWorkload);
      std::exit(1);
    }
    char starts_s[32], nodes_s[32], speedup[32];
    std::snprintf(starts_s, sizeof starts_s, "%.0f", total_starts / row.cost.seconds);
    std::snprintf(nodes_s, sizeof nodes_s, "%.3g",
                  static_cast<double>(row.cost.total_volume) / row.cost.seconds);
    std::snprintf(speedup, sizeof speedup, "%.2fx", base.cost.seconds / row.cost.seconds);
    table.add_row({kWorkload, fmt_int(static_cast<std::int64_t>(inst.node_count())),
                   row_engine(row), starts_s, nodes_s, speedup});
    Curve c;
    c.add(static_cast<double>(inst.node_count()),
          static_cast<double>(row.cost.total_volume) / row.cost.seconds, row.cost.seconds);
    report.add("backend-ablation / " + row_engine(row), c);
  }
  const AblationRow* batched8 = find_row(rows, ExecBackend::Batched, 8);
  std::printf(
      "\nbackend ablation (ball(r=%d), whole graph, n=%lld):\n"
      "  batched x1 vs basic x1: %.2fx\n"
      "  batched x8 vs basic x8: %.2fx\n",
      kRadius, static_cast<long long>(inst.node_count()),
      base.cost.seconds / find_row(rows, ExecBackend::Batched, 1)->cost.seconds,
      find_row(rows, ExecBackend::Basic, 8)->cost.seconds / batched8->cost.seconds);
  print_batch_occupancy(*batched8);
}

template <typename FlatFn, typename MapFn>
void run_workload(const std::string& workload, const Graph& g, const IdAssignment& ids,
                  const std::vector<NodeIndex>& starts, int repeats, FlatFn&& flat_solve,
                  MapFn&& map_solve, stats::Table& table, JsonReport& report) {
  auto ph = report.phase(workload);
  const double n = static_cast<double>(g.node_count());
  const double total_starts = static_cast<double>(starts.size()) * repeats;
  auto repeat = [&](auto&& sweep) {
    SweepCost cost = sweep();
    for (int r = 1; r < repeats; ++r) {
      const SweepCost again = sweep();
      cost.seconds += again.seconds;
      cost.total_volume += again.total_volume;
      cost.total_queries += again.total_queries;
    }
    return cost;
  };
  std::vector<EngineRow> rows;
  rows.push_back({"map x1", repeat([&] { return sweep_map(g, ids, starts, map_solve); })});
  for (const int threads : {1, 2, 4, 8}) {
    rows.push_back({"flat x" + std::to_string(threads),
                    repeat([&] { return sweep_flat(g, ids, starts, flat_solve, threads); })});
  }
  const SweepCost& base = rows.front().cost;
  for (const auto& row : rows) {
    if (!row.cost.same_costs(base)) {
      std::fprintf(stderr, "FATAL: engine '%s' diverged from the map reference on %s\n",
                   row.engine.c_str(), workload.c_str());
      std::exit(1);
    }
    char starts_s[32], nodes_s[32], speedup[32];
    std::snprintf(starts_s, sizeof starts_s, "%.0f", total_starts / row.cost.seconds);
    std::snprintf(nodes_s, sizeof nodes_s, "%.3g",
                  static_cast<double>(row.cost.total_volume) / row.cost.seconds);
    std::snprintf(speedup, sizeof speedup, "%.2fx", base.seconds / row.cost.seconds);
    table.add_row({workload, fmt_int(static_cast<std::int64_t>(n)), row.engine, starts_s,
                   nodes_s, speedup});
    Curve c;
    c.add(n, static_cast<double>(row.cost.total_volume) / row.cost.seconds,
          row.cost.seconds);
    report.add(workload + " / " + row.engine, c);
  }
}

void run(const Args& args) {
  print_header("Sweep-engine throughput: map-based vs flat-scratch vs parallel");
  stats::Table table({"workload", "n", "engine", "starts/s", "visited nodes/s", "speedup"});
  JsonReport report("bench_runner");
  for (const int depth : {12, 14, 15}) {
    auto inst = make_complete_binary_tree(depth, Color::Red, Color::Blue);
    if (!args.keep_n(inst.node_count())) continue;
    // All-nodes ball sweep: the pure engine loop.
    const std::vector<NodeIndex> all = every_node(inst.node_count());
    run_workload(
        "ball(r=6)", inst.graph, inst.ids, all, /*repeats=*/1,
        [](Execution& exec) { explore_ball(exec, 6); },
        [](ReferenceMapExecution& exec) { explore_ball(exec, 6); }, table, report);
    // Whole-graph nearest-leaf sweep: a real Table-1 solver from every node,
    // mostly small executions — the sweep regime the flat scratch targets.
    run_workload(
        "nearleaf/all", inst.graph, inst.ids, all, /*repeats=*/1,
        [&](Execution& exec) {
          InstanceSource<ColoredTreeLabeling> src(inst, exec);
          leafcoloring_nearest_leaf(src);
        },
        [&](ReferenceMapExecution& exec) {
          InstanceSource<ColoredTreeLabeling, ReferenceMapExecution> src(inst, exec);
          leafcoloring_nearest_leaf(src);
        },
        table, report);
    // The Table-1 row-1 sampled sweep: 24 starts including the root, whose
    // execution visits Θ(n) nodes — large resident visited sets, the regime
    // where per-query lookup cost (hash vs array) is the whole difference.
    run_workload(
        "nearleaf/t1", inst.graph, inst.ids, sampled_starts(inst.node_count(), 24),
        /*repeats=*/4,
        [&](Execution& exec) {
          InstanceSource<ColoredTreeLabeling> src(inst, exec);
          leafcoloring_nearest_leaf(src);
        },
        [&](ReferenceMapExecution& exec) {
          InstanceSource<ColoredTreeLabeling, ReferenceMapExecution> src(inst, exec);
          leafcoloring_nearest_leaf(src);
        },
        table, report);
  }
  // Whole-graph BalancedTree sweep (Prop. 4.8): the other child-walk solver.
  for (const int depth : {12, 14}) {
    const auto inst = make_unbalanced_instance(depth, depth - 2, 1);
    if (!args.keep_n(inst.node_count())) continue;
    const std::vector<NodeIndex> all = every_node(inst.node_count());
    run_workload(
        "balanced/all", inst.graph, inst.ids, all, /*repeats=*/1,
        [&](Execution& exec) {
          InstanceSource<BalancedTreeLabeling> src(inst, exec);
          balancedtree_solve(src);
        },
        [&](ReferenceMapExecution& exec) {
          InstanceSource<BalancedTreeLabeling, ReferenceMapExecution> src(inst, exec);
          balancedtree_solve(src);
        },
        table, report);
  }
  run_backend_ablation(args, table, report);
  table.print();
  std::printf(
      "\nAll engines produced identical sup-costs, total visited nodes and\n"
      "total queries (verified per row).  'speedup' is wall-time vs the serial\n"
      "map engine on the same workload; thread rows only help on multi-core\n"
      "hosts.  The flat scratch shines on sweeps of many small executions\n"
      "(ball, nearleaf/all, balanced/all — the run_at_all_nodes regime); on\n"
      "single Θ(n)-volume executions (nearleaf/t1 root start) both engines are\n"
      "memory-bound and the gap narrows to the per-lookup hash-vs-array\n"
      "difference.\n");
  report.write_file(args.json);
}

}  // namespace
}  // namespace volcal::bench

int main(int argc, char** argv) {
  auto args = volcal::bench::Args::parse(&argc, argv, "bench_runner");
  volcal::bench::Observer::install(args, "bench_runner");
  volcal::bench::run(args);
  return 0;
}
