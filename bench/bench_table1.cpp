// Regenerates Table 1: the four complexity measures (R-DIST, D-DIST, R-VOL,
// D-VOL) of the five constructed LCL problems, measured by running the
// paper's own algorithms on the matching instance families and fitting the
// growth class of each curve.
//
// Lower-bound entries that the paper proves via adversaries/embeddings
// (D-VOL of LeafColoring, R-VOL/D-VOL of BalancedTree, D-VOL of the THC
// family) are tight against the matching exhaustive algorithms measured
// here; the interactive adversary demonstrations live in bench_leafcoloring
// and bench_balancedtree.
#include <cstdio>

#include "bench_util.hpp"
#include "labels/generators.hpp"
#include "lcl/algorithms/balanced_tree_algos.hpp"
#include "lcl/algorithms/hh_algos.hpp"
#include "lcl/algorithms/hybrid_algos.hpp"
#include "lcl/algorithms/hthc_algos.hpp"
#include "lcl/algorithms/leaf_coloring_algos.hpp"
#include "lcl/algorithms/local_view.hpp"

namespace volcal::bench {
namespace {

struct Row {
  std::string problem;
  std::string measure;
  std::string paper;
  Curve curve;
  std::string note;
};

void print_rows(const std::vector<Row>& rows) {
  stats::Table table({"Problem", "measure", "paper", "measured sup-cost over n sweep",
                      "fitted", "note"});
  for (const auto& row : rows) {
    std::string sweep;
    for (std::size_t i = 0; i < row.curve.ns.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%.0f:%.0f", i ? " " : "", row.curve.ns[i],
                    row.curve.costs[i]);
      sweep += buf;
    }
    table.add_row({row.problem, row.measure, row.paper, sweep, row.curve.fitted(),
                   row.note});
  }
  table.print();
}

// --- Row 1: LeafColoring ----------------------------------------------------

void leafcoloring_rows(std::vector<Row>& rows) {
  Curve dist, rvol, dvol;
  for (int depth : {8, 10, 12, 14, 16}) {
    auto inst = make_complete_binary_tree(depth, Color::Red, Color::Blue);
    const double n = static_cast<double>(inst.node_count());
    if (!Args::current().keep_n(inst.node_count())) continue;
    auto starts = sampled_starts(inst.node_count(), 24);
    // Deterministic nearest-leaf (Prop. 3.9): distance O(log n), volume Θ(n)
    // on this hard family — one run feeds both curves.
    auto det = measure(inst.graph, inst.ids, starts, [&](auto& exec) {
      InstanceSource<ColoredTreeLabeling, std::decay_t<decltype(exec)>> src(inst, exec);
      leafcoloring_nearest_leaf(src);
    });
    dist.add(n, static_cast<double>(det.max_distance), det.wall_seconds);
    dvol.add(n, static_cast<double>(det.max_volume), det.wall_seconds);
    // RWtoLeaf (Alg. 1): randomized volume, max over starts and 4 tapes.
    std::int64_t worst = 0;
    double rnd_seconds = 0.0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      RandomTape tape(inst.ids, seed);
      auto rnd = measure(
          inst.graph, inst.ids, starts,
          [&](auto& exec) {
            InstanceSource<ColoredTreeLabeling, std::decay_t<decltype(exec)>> src(inst, exec);
            rw_to_leaf(src, tape);
          },
          &tape);
      worst = std::max(worst, rnd.max_volume);
      rnd_seconds += rnd.wall_seconds;
    }
    rvol.add(n, static_cast<double>(worst), rnd_seconds);
  }
  rows.push_back({"LeafColoring", "R-DIST = D-DIST", "Θ(log n)", dist, "Prop 3.9"});
  rows.push_back({"LeafColoring", "R-VOL", "Θ(log n)", rvol, "Alg 1 / Prop 3.10"});
  rows.push_back(
      {"LeafColoring", "D-VOL", "Θ(n)", dvol, "Prop 3.13 (adversary: bench_leafcoloring)"});
}

// --- Row 2: BalancedTree -----------------------------------------------------

void balancedtree_rows(std::vector<Row>& rows) {
  Curve dist, vol;
  for (int depth : {7, 9, 11, 13, 15}) {
    auto inst = make_balanced_instance(depth);
    const double n = static_cast<double>(inst.node_count());
    if (!Args::current().keep_n(inst.node_count())) continue;
    auto starts = sampled_starts(inst.node_count(), 16);
    auto cost = measure(inst.graph, inst.ids, starts, [&](auto& exec) {
      InstanceSource<BalancedTreeLabeling, std::decay_t<decltype(exec)>> src(inst, exec);
      balancedtree_solve(src);
    });
    dist.add(n, static_cast<double>(cost.max_distance), cost.wall_seconds);
    vol.add(n, static_cast<double>(cost.max_volume), cost.wall_seconds);
  }
  rows.push_back({"BalancedTree", "R-DIST = D-DIST", "Θ(log n)", dist, "Prop 4.8"});
  rows.push_back({"BalancedTree", "R-VOL = D-VOL", "Θ(n)", vol,
                  "Prop 4.9 (DISJ: bench_balancedtree)"});
}

// --- Rows 3: Hierarchical-THC(k) ----------------------------------------------

void hierarchical_rows(std::vector<Row>& rows, int k) {
  Curve dist, rvol, dvol;
  const std::vector<NodeIndex> bs = k == 2   ? std::vector<NodeIndex>{48, 96, 192, 384, 768}
                                    : k == 3 ? std::vector<NodeIndex>{16, 24, 36, 54, 80}
                                             : std::vector<NodeIndex>{8, 12, 17, 24, 32};
  for (const NodeIndex b : bs) {
    auto inst = make_hierarchical_instance(k, b, 11);
    const double n = static_cast<double>(inst.node_count());
    if (!Args::current().keep_n(inst.node_count())) continue;
    auto starts = sampled_starts(inst.node_count(), 20);
    auto det_cfg = HthcConfig::make(k, inst.node_count(), false, nullptr);
    auto det = measure(inst.graph, inst.ids, starts, [&](auto& exec) {
      InstanceSource<ColoredTreeLabeling, std::decay_t<decltype(exec)>> src(inst, exec);
      HthcSolver<std::decay_t<decltype(src)>> solver(src, det_cfg);
      solver.solve();
    });
    dist.add(n, static_cast<double>(det.max_distance));
    RandomTape tape(inst.ids, 3);
    auto rnd_cfg = HthcConfig::make(k, inst.node_count(), true, &tape);
    auto rnd = measure(
        inst.graph, inst.ids, starts,
        [&](auto& exec) {
          InstanceSource<ColoredTreeLabeling, std::decay_t<decltype(exec)>> src(inst, exec);
          HthcSolver<std::decay_t<decltype(src)>> solver(src, rnd_cfg);
          solver.solve();
        },
        &tape);
    rvol.add(n, static_cast<double>(rnd.max_volume), rnd.wall_seconds);
  }
  // Deterministic volume on the deep-nest hard family (k >= 3; for k = 2 the
  // hardness is adversarial only — see EXPERIMENTS.md).
  if (k >= 3) {
    // Backbones must exceed the 2·n^{1/k} window to be deep: for k = 4 and
    // n ≈ 3b³ that needs b > 48.
    const std::vector<NodeIndex> deep_bs = k == 3 ? std::vector<NodeIndex>{120, 200, 320, 512}
                                                  : std::vector<NodeIndex>{58, 70, 84, 100};
    for (const NodeIndex b : deep_bs) {
      std::vector<NodeIndex> lens(static_cast<std::size_t>(k), b);
      lens.back() = 3;
      auto inst = make_hierarchical_instance_lens(lens, 7);
      const double n = static_cast<double>(inst.node_count());
      if (!Args::current().keep_n(inst.node_count())) continue;
      auto cfg = HthcConfig::make(k, inst.node_count(), false, nullptr);
      if (b <= cfg.window + 1) continue;  // family must be genuinely deep
      // Worst starts sit mid-backbone at level k-1.
      Hierarchy h(inst.graph, inst.labels.tree, k + 1);
      std::vector<NodeIndex> starts;
      for (const auto& bb : h.backbones()) {
        if (bb.level == k - 1 && starts.size() < 4) {
          starts.push_back(bb.nodes[bb.nodes.size() / 2]);
        }
      }
      auto det = measure(inst.graph, inst.ids, starts, [&](auto& exec) {
        InstanceSource<ColoredTreeLabeling, std::decay_t<decltype(exec)>> src(inst, exec);
        HthcSolver<std::decay_t<decltype(src)>> solver(src, cfg);
        solver.solve();
      });
      dvol.add(n, static_cast<double>(det.max_volume));
    }
  }
  const std::string name = "Hierarchical-THC(" + std::to_string(k) + ")";
  const std::string root = "Θ(n^{1/" + std::to_string(k) + "})";
  rows.push_back({name, "R-DIST = D-DIST", root, dist, "Alg 2 / Prop 5.12"});
  rows.push_back({name, "R-VOL", "Θ̃(n^{1/" + std::to_string(k) + "})", rvol,
                  "way-points / Prop 5.14"});
  rows.push_back({name, "D-VOL", "Θ̃(n)", dvol,
                  k >= 3 ? "deep-nest family (static); Ω̃(n) adversarial (Prop 5.20)"
                         : "adversarial only for k=2 (Prop 5.20); see EXPERIMENTS.md"});
}

// --- Row 4: Hybrid-THC(k) ------------------------------------------------------

void hybrid_rows(std::vector<Row>& rows, int k) {
  Curve dist, rvol;
  const std::vector<std::pair<NodeIndex, int>> shapes =
      k == 2 ? std::vector<std::pair<NodeIndex, int>>{{16, 4}, {32, 5}, {64, 6}, {128, 7}, {256, 8}}
             // keep floor size 2^{d+1} ≈ backbone length b ≈ n^{1/3}
             : std::vector<std::pair<NodeIndex, int>>{{8, 2}, {11, 3}, {16, 4}, {23, 4}, {32, 5}};
  for (const auto& [b, d] : shapes) {
    auto inst = make_hybrid_instance(k, b, d, 9);
    const double n = static_cast<double>(inst.node_count());
    if (!Args::current().keep_n(inst.node_count())) continue;
    auto starts = sampled_starts(inst.node_count(), 20);
    // Include the worst-case starts: BalancedTree component roots (their
    // nearest-leaf search spans the whole floor depth).
    {
      Hierarchy h(inst.graph, inst.labels.bal.tree, k + 1, inst.labels.level_in);
      int added = 0;
      for (NodeIndex v = 0; v < inst.node_count() && added < 6; ++v) {
        if (inst.labels.level_in[v] == 2 && h.down(v) != kNoNode) {
          starts.push_back(h.down(v));
          ++added;
        }
      }
    }
    auto cfg = HybridConfig::make(k, inst.node_count());
    auto det = measure(inst.graph, inst.ids, starts, [&](auto& exec) {
      InstanceSource<HybridLabeling, std::decay_t<decltype(exec)>> src(inst, exec);
      hybrid_solve_distance(src, cfg);
    });
    dist.add(n, static_cast<double>(det.max_distance));
    RandomTape tape(inst.ids, 5);
    auto rcfg = HybridConfig::make(k, inst.node_count(), true, &tape);
    auto rnd = measure(
        inst.graph, inst.ids, starts,
        [&](auto& exec) {
          InstanceSource<HybridLabeling, std::decay_t<decltype(exec)>> src(inst, exec);
          hybrid_solve_volume(src, rcfg);
        },
        &tape);
    rvol.add(n, static_cast<double>(rnd.max_volume), rnd.wall_seconds);
  }
  const std::string name = "Hybrid-THC(" + std::to_string(k) + ")";
  rows.push_back({name, "R-DIST = D-DIST", "Θ(log n)", dist, "Thm 6.3"});
  rows.push_back({name, "R-VOL", "Θ̃(n^{1/" + std::to_string(k) + "})", rvol, "Thm 6.3"});
  rows.push_back({name, "D-VOL", "Θ̃(n)", Curve{}, "BalancedTree floors: Prop 4.9"});
}

// --- Row 5: HH-THC(k, ℓ) --------------------------------------------------------

void hh_rows(std::vector<Row>& rows, int k, int l) {
  Curve dist, rvol;
  for (const NodeIndex n_half : {2000, 8000, 32000, 128000}) {
    auto inst = make_hh_instance(k, l, n_half, 13);
    const double n = static_cast<double>(inst.node_count());
    if (!Args::current().keep_n(inst.node_count())) continue;
    auto starts = sampled_starts(inst.node_count(), 20);
    auto cfg = HHConfig::make(k, l, inst.node_count());
    auto det = measure(inst.graph, inst.ids, starts, [&](auto& exec) {
      InstanceSource<HHLabeling, std::decay_t<decltype(exec)>> src(inst, exec);
      hh_solve_distance(src, cfg);
    });
    dist.add(n, static_cast<double>(det.max_distance));
    RandomTape tape(inst.ids, 5);
    auto rcfg = HHConfig::make(k, l, inst.node_count(), true, &tape);
    auto rnd = measure(
        inst.graph, inst.ids, starts,
        [&](auto& exec) {
          InstanceSource<HHLabeling, std::decay_t<decltype(exec)>> src(inst, exec);
          hh_solve_volume(src, rcfg);
        },
        &tape);
    rvol.add(n, static_cast<double>(rnd.max_volume), rnd.wall_seconds);
  }
  const std::string name = "HH-THC(" + std::to_string(k) + "," + std::to_string(l) + ")";
  rows.push_back({name, "R-DIST = D-DIST", "Θ(n^{1/" + std::to_string(l) + "})", dist,
                  "Thm 6.5"});
  rows.push_back({name, "R-VOL", "Θ̃(n^{1/" + std::to_string(k) + "})", rvol, "Thm 6.5"});
  rows.push_back({name, "D-VOL", "Θ̃(n)", Curve{}, "hybrid side floors: Prop 4.9"});
}

}  // namespace
}  // namespace volcal::bench

int main(int argc, char** argv) {
  using namespace volcal::bench;
  auto args = Args::parse(argc, argv, "bench_table1");
  Observer::install(args, "bench_table1");
  print_header(
      "Table 1 — complexities of the constructed LCLs "
      "(paper claim vs measured sup-cost + fitted growth class)");
  JsonReport report("bench_table1");
  std::vector<Row> rows;
  // One telemetry phase per table row family: the artifact shows where the
  // regeneration time goes.
  { auto p = report.phase("leafcoloring"); leafcoloring_rows(rows); }
  { auto p = report.phase("balancedtree"); balancedtree_rows(rows); }
  {
    auto p = report.phase("hierarchical");
    hierarchical_rows(rows, 2);
    hierarchical_rows(rows, 3);
    hierarchical_rows(rows, 4);
  }
  {
    auto p = report.phase("hybrid");
    hybrid_rows(rows, 2);
    hybrid_rows(rows, 3);
  }
  {
    auto p = report.phase("hh");
    hh_rows(rows, 2, 3);
    hh_rows(rows, 2, 4);
    hh_rows(rows, 3, 4);
  }
  print_rows(rows);
  std::printf(
      "\nNotes: sup-costs over sampled start nodes (root always included);\n"
      "'fitted' is the least-squares growth class over the sweep.  Empty\n"
      "curves mark entries whose hardness is realized adversarially; see the\n"
      "per-section benches and EXPERIMENTS.md.\n");
  for (const auto& row : rows) {
    report.add(row.problem + " / " + row.measure, row.curve, row.paper);
  }
  return finish(report, args);
}
