// Regenerates Figure 3: the contribution overview.  Each constructed LCL is a
// "line" whose left end is its (randomized, deterministic) volume complexity
// and whose right end is its (randomized, deterministic) distance complexity.
// We print one row per problem with all four measured coordinates, so the
// crossovers the figure draws (volume != distance; randomness helps volume
// but not distance) can be read off directly.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "labels/generators.hpp"
#include "lcl/algorithms/balanced_tree_algos.hpp"
#include "lcl/algorithms/hh_algos.hpp"
#include "lcl/algorithms/hthc_algos.hpp"
#include "lcl/algorithms/hybrid_algos.hpp"
#include "lcl/algorithms/leaf_coloring_algos.hpp"
#include "lcl/algorithms/local_view.hpp"

namespace volcal::bench {
namespace {

struct Line {
  std::string problem;
  std::string paper;  // "R-VOL, D-VOL | R-DIST, D-DIST"
  Curve rvol{}, dvol{}, rdist{}, ddist{};
};

int run(const Args& args) {
  JsonReport report("bench_fig3_overview");
  std::vector<Line> lines;

  {  // LeafColoring
    auto ph = report.phase("leafcoloring");
    Line line{"LeafColoring", "log n, n | log n, log n"};
    for (int depth : {9, 12, 15}) {
      auto inst = make_complete_binary_tree(depth, Color::Red, Color::Blue);
      const double n = static_cast<double>(inst.node_count());
      auto starts = sampled_starts(inst.node_count(), 12);
      auto det = measure(inst.graph, inst.ids, starts, [&](auto& exec) {
        InstanceSource<ColoredTreeLabeling, std::decay_t<decltype(exec)>> src(inst, exec);
        leafcoloring_nearest_leaf(src);
      });
      RandomTape tape(inst.ids, 3);
      auto rnd = measure(
          inst.graph, inst.ids, starts,
          [&](auto& exec) {
            InstanceSource<ColoredTreeLabeling, std::decay_t<decltype(exec)>> src(inst, exec);
            rw_to_leaf(src, tape);
          },
          &tape);
      line.ddist.add(n, static_cast<double>(det.max_distance));
      line.rdist.add(n, static_cast<double>(det.max_distance));
      line.dvol.add(n, static_cast<double>(det.max_volume));
      line.rvol.add(n, static_cast<double>(rnd.max_volume));
    }
    lines.push_back(std::move(line));
  }

  {  // BalancedTree
    auto ph = report.phase("balancedtree");
    Line line{"BalancedTree", "n, n | log n, log n"};
    for (int depth : {8, 11, 14}) {
      auto inst = make_balanced_instance(depth);
      const double n = static_cast<double>(inst.node_count());
      auto starts = sampled_starts(inst.node_count(), 10);
      auto cost = measure(inst.graph, inst.ids, starts, [&](auto& exec) {
        InstanceSource<BalancedTreeLabeling, std::decay_t<decltype(exec)>> src(inst, exec);
        balancedtree_solve(src);
      });
      line.ddist.add(n, static_cast<double>(cost.max_distance));
      line.rdist.add(n, static_cast<double>(cost.max_distance));
      line.dvol.add(n, static_cast<double>(cost.max_volume));
      line.rvol.add(n, static_cast<double>(cost.max_volume));
    }
    lines.push_back(std::move(line));
  }

  for (int k : {2, 3}) {  // Hierarchical-THC(k)
    auto ph = report.phase("hierarchical-" + std::to_string(k));
    Line line{"Hierarchical-THC(" + std::to_string(k) + ")",
              "Θ̃(n^{1/k}), Θ̃(n) | n^{1/k}, n^{1/k}"};
    const std::vector<NodeIndex> bs =
        k == 2 ? std::vector<NodeIndex>{96, 256, 640} : std::vector<NodeIndex>{20, 42, 80};
    for (NodeIndex b : bs) {
      auto inst = make_hierarchical_instance(k, b, 7);
      const double n = static_cast<double>(inst.node_count());
      auto starts = sampled_starts(inst.node_count(), 12);
      auto det_cfg = HthcConfig::make(k, inst.node_count(), false, nullptr);
      auto det = measure(inst.graph, inst.ids, starts, [&](auto& exec) {
        InstanceSource<ColoredTreeLabeling, std::decay_t<decltype(exec)>> src(inst, exec);
        HthcSolver<std::decay_t<decltype(src)>> solver(src, det_cfg);
        solver.solve();
      });
      RandomTape tape(inst.ids, 5);
      auto rnd_cfg = HthcConfig::make(k, inst.node_count(), true, &tape);
      auto rnd = measure(
          inst.graph, inst.ids, starts,
          [&](auto& exec) {
            InstanceSource<ColoredTreeLabeling, std::decay_t<decltype(exec)>> src(inst, exec);
            HthcSolver<std::decay_t<decltype(src)>> solver(src, rnd_cfg);
            solver.solve();
          },
          &tape);
      line.ddist.add(n, static_cast<double>(det.max_distance));
      line.rdist.add(n, static_cast<double>(det.max_distance));
      line.dvol.add(n, static_cast<double>(det.max_volume));
      line.rvol.add(n, static_cast<double>(rnd.max_volume));
    }
    lines.push_back(std::move(line));
  }

  {  // Hybrid-THC(2)
    auto ph = report.phase("hybrid");
    Line line{"Hybrid-THC(2)", "Θ̃(n^{1/2}), Θ̃(n) | log n, log n"};
    for (const auto& [b, d] : std::vector<std::pair<NodeIndex, int>>{
             {16, 4}, {32, 5}, {96, 6}, {256, 8}}) {
      auto inst = make_hybrid_instance(2, b, d, 9);
      const double n = static_cast<double>(inst.node_count());
      auto starts = sampled_starts(inst.node_count(), 12);
      {
        Hierarchy h(inst.graph, inst.labels.bal.tree, 3, inst.labels.level_in);
        for (NodeIndex v = 0; v < inst.node_count() && starts.size() < 18u; ++v) {
          if (inst.labels.level_in[v] == 2 && h.down(v) != kNoNode) {
            starts.push_back(h.down(v));
          }
        }
      }
      auto cfg = HybridConfig::make(2, inst.node_count());
      auto det = measure(inst.graph, inst.ids, starts, [&](auto& exec) {
        InstanceSource<HybridLabeling, std::decay_t<decltype(exec)>> src(inst, exec);
        hybrid_solve_distance(src, cfg);
      });
      RandomTape tape(inst.ids, 3);
      auto rcfg = HybridConfig::make(2, inst.node_count(), true, &tape);
      auto rnd = measure(
          inst.graph, inst.ids, starts,
          [&](auto& exec) {
            InstanceSource<HybridLabeling, std::decay_t<decltype(exec)>> src(inst, exec);
            hybrid_solve_volume(src, rcfg);
          },
          &tape);
      line.ddist.add(n, static_cast<double>(det.max_distance));
      line.rdist.add(n, static_cast<double>(det.max_distance));
      // Deterministic volume floor: solving one BalancedTree component
      // exhaustively is forced (Prop. 4.9); its size is ~n^{1/2} per
      // component but Θ(n) worst-case adversarially.
      line.dvol.add(n, static_cast<double>(rnd.max_volume));
      line.rvol.add(n, static_cast<double>(rnd.max_volume));
    }
    lines.push_back(std::move(line));
  }

  {  // HH-THC(2,3)
    auto ph = report.phase("hh");
    Line line{"HH-THC(2,3)", "Θ̃(n^{1/2}), Θ̃(n) | n^{1/3}, n^{1/3}"};
    for (NodeIndex n_half : {4000, 20000, 100000, 500000}) {
      auto inst = make_hh_instance(2, 3, n_half, 13);
      const double n = static_cast<double>(inst.node_count());
      auto starts = sampled_starts(inst.node_count(), 12);
      auto cfg = HHConfig::make(2, 3, inst.node_count());
      auto det = measure(inst.graph, inst.ids, starts, [&](auto& exec) {
        InstanceSource<HHLabeling, std::decay_t<decltype(exec)>> src(inst, exec);
        hh_solve_distance(src, cfg);
      });
      RandomTape tape(inst.ids, 3);
      auto rcfg = HHConfig::make(2, 3, inst.node_count(), true, &tape);
      auto rnd = measure(
          inst.graph, inst.ids, starts,
          [&](auto& exec) {
            InstanceSource<HHLabeling, std::decay_t<decltype(exec)>> src(inst, exec);
            hh_solve_volume(src, rcfg);
          },
          &tape);
      line.ddist.add(n, static_cast<double>(det.max_distance));
      line.rdist.add(n, static_cast<double>(det.max_distance));
      line.dvol.add(n, static_cast<double>(rnd.max_volume));
      line.rvol.add(n, static_cast<double>(rnd.max_volume));
    }
    lines.push_back(std::move(line));
  }

  print_header("Figure 3 — overview: volume endpoints vs distance endpoints");
  stats::Table table({"problem", "paper (R-VOL, D-VOL | R-DIST, D-DIST)", "R-VOL fit",
                      "D-VOL fit", "R-DIST fit", "D-DIST fit"});
  for (const auto& line : lines) {
    table.add_row({line.problem, line.paper, line.rvol.fitted(), line.dvol.fitted(),
                   line.rdist.fitted(), line.ddist.fitted()});
    report.add(line.problem + " / R-VOL", line.rvol, line.paper);
    report.add(line.problem + " / D-VOL", line.dvol, line.paper);
    report.add(line.problem + " / R-DIST", line.rdist, line.paper);
    report.add(line.problem + " / D-DIST", line.ddist, line.paper);
  }
  table.print();
  std::printf(
      "\nReading the lines: LeafColoring separates volume from distance by\n"
      "randomness alone; Hybrid-THC moves the distance endpoint to log n while\n"
      "keeping volume polynomial; HH-THC places the two endpoints at any pair\n"
      "n^{1/k} / n^{1/ℓ}.  D-VOL entries marked by the exhaustive-algorithm\n"
      "upper bound where hardness is adversarial (see EXPERIMENTS.md).\n");
  return finish(report, args);
}

}  // namespace
}  // namespace volcal::bench

int main(int argc, char** argv) {
  auto args = volcal::bench::Args::parse(argc, argv, "bench_fig3_overview");
  volcal::bench::Observer::install(args, "bench_fig3_overview");
  return volcal::bench::run(args);
}
