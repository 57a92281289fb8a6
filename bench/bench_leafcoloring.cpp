// Section 3 micro-benchmarks:
//   * walk-length distribution of RWtoLeaf vs the 16·log n bound claimed in
//     Prop. 3.10;
//   * success probability under truncation budgets (Remark 3.11);
//   * the Prop. 3.13 adversary duel — every deterministic candidate that
//     halts within an o(n) budget is defeated;
//   * google-benchmark timings of the solvers.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "labels/generators.hpp"
#include "obs/histogram.hpp"
#include "lcl/adversary/leafcoloring_adversary.hpp"
#include "lcl/algorithms/leaf_coloring_algos.hpp"
#include "lcl/algorithms/local_view.hpp"
#include "lcl/problems/leaf_coloring.hpp"
#include "volcal/runtime.hpp"

namespace volcal::bench {
namespace {

using Src = InstanceSource<ColoredTreeLabeling>;

void walk_length_table(JsonReport& report) {
  auto ph = report.phase("walk-length");
  print_header("§3 — RWtoLeaf walk lengths vs the 16·log2(n) bound (Prop. 3.10)");
  stats::Table table({"family", "n", "mean steps", "p95", "max", "16·log2(n)"});
  const auto families = std::vector<std::pair<std::string, LeafColoringInstance>>{
      {"complete d=12", make_complete_binary_tree(12, Color::Red, Color::Blue)},
      {"complete d=16", make_complete_binary_tree(16, Color::Red, Color::Blue)},
      {"random n=32k", make_random_full_binary_tree(32769, 7)},
      {"caterpillar", make_caterpillar(4000, 3)},
      {"cycle 64x8", make_cycle_pseudotree(64, 8, 9)},
  };
  Curve mean_c, max_c;  // over the complete-tree sub-family (monotone n)
  for (const auto& [name, inst] : families) {
    RandomTape tape(inst.ids, 17);
    obs::Histogram steps;
    for (NodeIndex v : sampled_starts(inst.node_count(), 400)) {
      Execution exec(inst.graph, inst.ids, v);
      Src src(inst, exec);
      steps.add(rw_to_leaf_stats(src, tape).steps);
    }
    const double bound = 16 * std::log2(static_cast<double>(inst.node_count()));
    char mean[32], p95[32], mx[32], bd[32];
    std::snprintf(mean, sizeof mean, "%.1f", steps.mean());
    std::snprintf(p95, sizeof p95, "%lld", static_cast<long long>(steps.quantile(0.95)));
    std::snprintf(mx, sizeof mx, "%lld", static_cast<long long>(steps.max));
    std::snprintf(bd, sizeof bd, "%.0f", bound);
    table.add_row({name, fmt_int(inst.node_count()), mean, p95, mx, bd});
    if (name.rfind("complete", 0) == 0) {
      mean_c.add(static_cast<double>(inst.node_count()), steps.mean());
      max_c.add(static_cast<double>(inst.node_count()), static_cast<double>(steps.max));
    }
  }
  table.print();
  report.add("RWtoLeaf / mean steps", mean_c, "O(log n) (Prop. 3.10)");
  report.add("RWtoLeaf / max steps", max_c, "16*log2(n) bound");
}

void truncation_table(JsonReport& report) {
  auto ph = report.phase("truncation");
  print_header("§3 — success probability under truncation budgets (Remark 3.11)");
  stats::Table table({"budget (x log2 n)", "valid runs / trials", "note"});
  auto inst = make_complete_binary_tree(13, Color::Red, Color::Blue);
  const double logn = std::log2(static_cast<double>(inst.node_count()));
  LeafColoringProblem problem;
  Curve valid_c;  // abscissa: budget multiplier, not n
  for (const double mult : {0.5, 1.0, 2.0, 4.0, 16.0}) {
    const auto budget = static_cast<std::int64_t>(mult * logn);
    int valid = 0;
    const int trials = 24;
    for (int t = 0; t < trials; ++t) {
      RandomTape tape(inst.ids, 100 + static_cast<std::uint64_t>(t));
      auto result = run_at_all_nodes(inst.graph, inst.ids, [&](Execution& exec) {
        Src src(inst, exec);
        return rw_to_leaf(src, tape, budget);
      });
      valid += verify_all(problem, inst, result.output).ok ? 1 : 0;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f", mult);
    table.add_row({buf, std::to_string(valid) + "/" + std::to_string(trials),
                   mult >= 16 ? "whp regime" : ""});
    valid_c.add(mult, static_cast<double>(valid));
  }
  table.print();
  report.add("RWtoLeaf / valid runs vs budget", valid_c, "whp at 16*log2(n) (Rmk. 3.11)");
}

void adversary_table(JsonReport& report) {
  auto ph = report.phase("adversary");
  print_header("§3 — Prop. 3.13 adversary: deterministic candidates vs volume budgets");
  stats::Table table({"candidate", "declared n", "budget", "outcome", "|G_A|"});
  struct Candidate {
    const char* name;
    Color (*fn)(LeafColoringAdversarySource&);
  };
  const Candidate candidates[] = {
      {"nearest-leaf BFS", +[](LeafColoringAdversarySource& s) {
         return leafcoloring_nearest_leaf(s);
       }},
      {"leftmost descent", +[](LeafColoringAdversarySource& s) {
         return leafcoloring_leftmost_descent(s);
       }},
      {"input echo", +[](LeafColoringAdversarySource& s) { return s.color(s.start()); }},
  };
  for (const auto& cand : candidates) {
    for (const std::int64_t n : {std::int64_t{3000}, std::int64_t{30000}}) {
      auto result = duel_leafcoloring_adversary(cand.fn, n, n / 3);
      std::string outcome = result.algorithm_exceeded_budget
                                ? "needs > n/3 volume (consistent with Ω(n))"
                                : (result.algorithm_failed ? "DEFEATED (invalid output)"
                                                           : "survived (!)");
      table.add_row({cand.name, fmt_int(n), fmt_int(n / 3), outcome,
                     result.algorithm_exceeded_budget ? "-" : fmt_int(result.instance_size)});
    }
  }
  table.print();
  std::printf(
      "\nEvery deterministic strategy either exceeds the n/3 volume budget or\n"
      "is handed an instance on which its committed output is invalid — the\n"
      "executable content of D-VOL(LeafColoring) = Ω(n).\n");
}

// --- google-benchmark timings -------------------------------------------------

void BM_RwToLeaf(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  auto inst = make_complete_binary_tree(depth, Color::Red, Color::Blue);
  RandomTape tape(inst.ids, 1);
  std::uint64_t i = 0;
  for (auto _ : state) {
    Execution exec(inst.graph, inst.ids, static_cast<NodeIndex>(i++ % 7));
    Src src(inst, exec);
    benchmark::DoNotOptimize(rw_to_leaf(src, tape));
  }
  state.SetLabel("n=" + std::to_string(inst.node_count()));
}
BENCHMARK(BM_RwToLeaf)->Arg(10)->Arg(14)->Arg(18);

void BM_NearestLeafFromRoot(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  auto inst = make_complete_binary_tree(depth, Color::Red, Color::Blue);
  for (auto _ : state) {
    Execution exec(inst.graph, inst.ids, 0);
    Src src(inst, exec);
    benchmark::DoNotOptimize(leafcoloring_nearest_leaf(src));
  }
  state.SetLabel("n=" + std::to_string(inst.node_count()));
}
BENCHMARK(BM_NearestLeafFromRoot)->Arg(10)->Arg(14);

}  // namespace
}  // namespace volcal::bench

int main(int argc, char** argv) {
  auto args = volcal::bench::Args::parse(&argc, argv, "bench_leafcoloring");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  volcal::bench::Observer::install(args, "bench_leafcoloring");
  volcal::bench::JsonReport report("bench_leafcoloring");
  volcal::bench::walk_length_table(report);
  volcal::bench::truncation_table(report);
  volcal::bench::adversary_table(report);
  const int status = volcal::bench::finish(report, args);
  benchmark::RunSpecifiedBenchmarks();
  return status;
}
