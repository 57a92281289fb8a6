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
#include "util/hash.hpp"

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

// One plan-dispatched sweep under an explicit (cache policy, backend) pair,
// keeping the aggregate stats (hit/miss and batch counters), the optional
// profile (per-worker batch occupancy) and the per-start outputs (for the
// divergence check).
template <typename Fn>
SweepCost sweep_policy(const Graph& g, const IdAssignment& ids,
                       const std::vector<NodeIndex>& starts, Fn&& solve, int threads,
                       CachePolicy policy, ExecBackend backend, const ProbePlan& plan,
                       SweepStats* stats_out, SweepProfile* profile_out,
                       std::vector<int>* output_out) {
  CacheConfig cfg;
  cfg.policy = policy;
  ParallelRunner runner(threads, cfg);
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
  CachePolicy policy;
  int threads;
  SweepCost cost;
  SweepStats stats;
  SweepProfile profile;
  std::vector<int> output;
};

std::string row_engine(const AblationRow& row) {
  return std::string(cache_policy_name(row.policy)) + " x" + std::to_string(row.threads) +
         (row.backend == ExecBackend::Batched ? "/batched" : "");
}

// Runs the {backend} x {threads} x {policy} grid of one ball workload,
// verifying every row bit-identical against the first (basic / off / serial)
// and emitting one table row + one report curve per cell.
template <typename Fn>
std::vector<AblationRow> run_ablation_rows(
    const Graph& g, const IdAssignment& ids, const std::vector<NodeIndex>& starts,
    Fn&& solve, const ProbePlan& plan, std::initializer_list<CachePolicy> policies,
    int repeats, const char* workload, stats::Table& table, JsonReport& report,
    const char* report_prefix) {
  std::vector<AblationRow> rows;
  for (const ExecBackend backend : {ExecBackend::Basic, ExecBackend::Batched}) {
    for (const int threads : {1, 8}) {
      for (const CachePolicy policy : policies) {
        AblationRow row{backend, policy, threads, {}, {}, {}, {}};
        row.cost = sweep_policy(g, ids, starts, solve, threads, policy, backend, plan,
                                &row.stats, &row.profile, &row.output);
        for (int r = 1; r < repeats; ++r) {
          const SweepCost again = sweep_policy(g, ids, starts, solve, threads, policy,
                                               backend, plan, nullptr, nullptr, nullptr);
          row.cost.seconds += again.seconds;
          row.cost.total_volume += again.total_volume;
          row.cost.total_queries += again.total_queries;
        }
        rows.push_back(std::move(row));
      }
    }
  }
  const AblationRow& base = rows.front();  // basic / off / x1
  const double total_starts = static_cast<double>(starts.size()) * repeats;
  for (const AblationRow& row : rows) {
    if (!row.cost.same_costs(base.cost) || row.output != base.output) {
      std::fprintf(stderr, "FATAL: '%s' diverged from the basic uncached sweep on %s\n",
                   row_engine(row).c_str(), workload);
      std::exit(1);
    }
    char starts_s[32], nodes_s[32], speedup[32];
    std::snprintf(starts_s, sizeof starts_s, "%.0f", total_starts / row.cost.seconds);
    std::snprintf(nodes_s, sizeof nodes_s, "%.3g",
                  static_cast<double>(row.cost.total_volume) / row.cost.seconds);
    std::snprintf(speedup, sizeof speedup, "%.2fx", base.cost.seconds / row.cost.seconds);
    table.add_row({workload, fmt_int(static_cast<std::int64_t>(g.node_count())),
                   row_engine(row), starts_s, nodes_s, speedup});
    Curve c;
    c.add(static_cast<double>(g.node_count()),
          static_cast<double>(row.cost.total_volume) / row.cost.seconds, row.cost.seconds);
    report.add(std::string(report_prefix) + " / " + row_engine(row), c);
  }
  return rows;
}

const AblationRow* find_row(const std::vector<AblationRow>& rows, ExecBackend backend,
                            CachePolicy policy, int threads) {
  for (const AblationRow& row : rows) {
    if (row.backend == backend && row.policy == policy && row.threads == threads) {
      return &row;
    }
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

// Answer-reuse ablation on a hot-set workload: starts drawn from a small hot
// set of centers, so whole answers repeat across starts.  Off executes every
// start; Shared executes each distinct center once and copies its slots to
// every repeat.  Outputs and cost meters must be bit-identical across
// policies — only wall time may move.
void run_cache_ablation(const Args& args, stats::Table& table, JsonReport& report) {
  const auto inst = make_complete_binary_tree(15, Color::Red, Color::Blue);  // 2^16 - 1
  if (!args.keep_n(inst.node_count())) return;
  auto ph = report.phase("cache-ablation");
  constexpr std::size_t kHotCenters = 256;
  constexpr std::size_t kStarts = 32768;
  constexpr int kRadius = 6;
  constexpr int kRepeats = 2;
  std::vector<NodeIndex> hot(kHotCenters);
  for (std::size_t j = 0; j < kHotCenters; ++j) {
    hot[j] = static_cast<NodeIndex>(mix64(0x686f74ull /* "hot" */, j) %
                                    static_cast<std::uint64_t>(inst.node_count()));
  }
  std::vector<NodeIndex> starts(kStarts);
  for (std::size_t i = 0; i < kStarts; ++i) {
    starts[i] = hot[mix64(0x73727665ull /* "srve" */, i) % kHotCenters];
  }
  auto solve = [](Execution& exec) { return static_cast<int>(explore_ball(exec, kRadius).size()); };

  const std::vector<AblationRow> rows = run_ablation_rows(
      inst.graph, inst.ids, starts, solve, ProbePlan::batched_ball(kRadius),
      {CachePolicy::Off, CachePolicy::Shared}, kRepeats, "ball(r=6)/hot", table, report,
      "cache-ablation");
  const AblationRow* off8 = find_row(rows, ExecBackend::Basic, CachePolicy::Off, 8);
  const AblationRow* shared8 = find_row(rows, ExecBackend::Basic, CachePolicy::Shared, 8);
  const double gain = off8->cost.seconds / shared8->cost.seconds;
  std::printf(
      "\ncache ablation (ball(r=%d), %zu starts over %zu hot centers, n=%lld):\n"
      "  shared x8: hits=%lld misses=%lld served_nodes=%lld\n"
      "  shared x8 vs off x8: %.2fx (target >= 3x: %s)\n",
      kRadius, kStarts, kHotCenters, static_cast<long long>(inst.node_count()),
      static_cast<long long>(shared8->stats.cache.hits),
      static_cast<long long>(shared8->stats.cache.misses),
      static_cast<long long>(shared8->stats.cache.served_nodes), gain,
      gain >= 3.0 ? "MET" : "MISSED");
  // The hot-set workload is answer reuse's regime, not the batched
  // backend's: repeats are copied and only the distinct centers batch, so
  // occupancy here shows the copy/batch composition.
  print_batch_occupancy(*find_row(rows, ExecBackend::Batched, CachePolicy::Off, 8));
  print_batch_occupancy(*find_row(rows, ExecBackend::Batched, CachePolicy::Shared, 8));
}

// Backend ablation on the whole-graph ball sweep — every start distinct, so
// answer reuse has nothing to copy and the batched backend's fused wave
// traversal is the only lever.  This is the >= 2x headline the per-backend
// baselines (bench/baselines-batched/) pin in CI.
void run_backend_ablation(const Args& args, stats::Table& table, JsonReport& report) {
  const auto inst = make_complete_binary_tree(15, Color::Red, Color::Blue);  // 2^16 - 1
  if (!args.keep_n(inst.node_count())) return;
  auto ph = report.phase("backend-ablation");
  constexpr int kRadius = 6;
  constexpr int kRepeats = 2;
  const std::vector<NodeIndex> all = every_node(inst.node_count());
  auto solve = [](Execution& exec) { return static_cast<int>(explore_ball(exec, kRadius).size()); };

  const std::vector<AblationRow> rows = run_ablation_rows(
      inst.graph, inst.ids, all, solve, ProbePlan::batched_ball(kRadius),
      {CachePolicy::Off, CachePolicy::Shared}, kRepeats, "ball(r=6)/all", table, report,
      "backend-ablation");
  // Two comparisons: same-config (the backend's own instruction-count win,
  // thread-invariant) and vs the basic backend with answer reuse on at 8
  // threads, which cannot help a whole-graph sweep (every center distinct).
  const AblationRow* basic_off1 = find_row(rows, ExecBackend::Basic, CachePolicy::Off, 1);
  const AblationRow* batched_off1 = find_row(rows, ExecBackend::Batched, CachePolicy::Off, 1);
  const AblationRow* basic_off8 = find_row(rows, ExecBackend::Basic, CachePolicy::Off, 8);
  const AblationRow* basic_shared8 =
      find_row(rows, ExecBackend::Basic, CachePolicy::Shared, 8);
  const AblationRow* batched_off8 = find_row(rows, ExecBackend::Batched, CachePolicy::Off, 8);
  const double serial_gain = basic_off1->cost.seconds / batched_off1->cost.seconds;
  const double gain8 = basic_off8->cost.seconds / batched_off8->cost.seconds;
  const double vs_serving = basic_shared8->cost.seconds / batched_off8->cost.seconds;
  std::printf(
      "\nbackend ablation (ball(r=%d), whole graph, n=%lld):\n"
      "  batched off x1 vs basic off x1: %.2fx\n"
      "  batched off x8 vs basic off x8: %.2fx\n"
      "  batched off x8 vs basic shared x8: %.2fx "
      "(target >= 2x: %s)\n",
      kRadius, static_cast<long long>(inst.node_count()), serial_gain, gain8, vs_serving,
      vs_serving >= 2.0 ? "MET" : "MISSED");
  print_batch_occupancy(*batched_off8);
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
  run_cache_ablation(args, table, report);
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
