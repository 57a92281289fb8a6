// Regenerates Figure 2: the (preliminary) volume-complexity landscape.
// Classes A and B carry over from distance (measured here); the paper's new
// contribution — the C+D region — is charted by the Figure-3/Table-1 benches.
#include <cstdio>

#include "bench_util.hpp"
#include "labels/generators.hpp"
#include "lcl/algorithms/leaf_coloring_algos.hpp"
#include "lcl/algorithms/local_view.hpp"
#include "lcl/problems/matching.hpp"
#include "lcl/problems/mis.hpp"
#include "lcl/problems/ring_coloring.hpp"

namespace volcal::bench {
namespace {

int run(const Args& args) {
  print_header("Figure 2 — preliminary volume landscape (classes A and B)");
  stats::Table table(
      {"problem", "class", "D-VOL paper", "D-VOL fitted", "R-VOL paper", "R-VOL fitted"});
  JsonReport report("bench_fig2_volume");

  // Class A: volume Θ(1) = distance Θ(1) (the simulation argument of §1.2).
  {
    auto ph = report.phase("degree-parity");
    Curve c;
    for (NodeIndex n : {1 << 10, 1 << 14, 1 << 18}) c.add(static_cast<double>(n), 1.0);
    table.add_row({"DegreeParity", "A", "Θ(1)", c.fitted(), "Θ(1)", c.fitted()});
    report.add("DegreeParity / VOL", c, "Θ(1)");
  }

  // Class B: ring coloring — volume O(log* n) via the Even et al. technique;
  // our Cole-Vishkin port already achieves it (volume = O(1) chain reads).
  {
    auto ph = report.phase("ring-coloring");
    Curve c;
    for (NodeIndex n : {1 << 10, 1 << 14, 1 << 18}) {
      auto ring = make_ring(n, 5);
      auto starts = sampled_starts(n, 10);
      auto cost = measure(ring.graph, ring.ids, starts, [&](Execution& exec) {
        ring_color_cole_vishkin(ring, exec);
      });
      c.add(static_cast<double>(n), static_cast<double>(cost.max_volume), cost.wall_seconds);
    }
    table.add_row(
        {"Ring3Coloring", "B", "Θ(log* n)", c.fitted(), "Θ(log* n)", c.fitted()});
    report.add("Ring3Coloring / VOL", c, "Θ(log* n)");
  }

  // Maximal independent set — the LCA-literature flagship the volume model
  // formalizes; randomized volume is polylog on bounded-degree graphs.
  {
    auto ph = report.phase("mis");
    Curve c;
    for (NodeIndex n : {1 << 10, 1 << 14, 1 << 18}) {
      auto ring = make_ring(n, 9);
      RandomTape tape(ring.ids, 3);
      auto starts = sampled_starts(n, 24);
      auto cost = measure(
          ring.graph, ring.ids, starts,
          [&](Execution& exec) { mis_lca_query(exec, tape); }, &tape);
      c.add(static_cast<double>(n), static_cast<double>(cost.max_volume), cost.wall_seconds);
    }
    table.add_row({"MaximalIndependentSet (rand)", "B-ish", "O(polylog) [39]", c.fitted(),
                   "O(polylog) [39]", c.fitted()});
    report.add("MaximalIndependentSet / R-VOL", c, "O(polylog) [39]");
  }

  {
    auto ph = report.phase("matching");
    Curve c;
    for (NodeIndex n : {1 << 10, 1 << 14, 1 << 18}) {
      auto ring = make_ring(n, 13);
      RandomTape tape(ring.ids, 5);
      auto starts = sampled_starts(n, 24);
      auto cost = measure(
          ring.graph, ring.ids, starts,
          [&](Execution& exec) { matching_lca_query(exec, tape); }, &tape);
      c.add(static_cast<double>(n), static_cast<double>(cost.max_volume), cost.wall_seconds);
    }
    table.add_row({"MaximalMatching (rand)", "B-ish", "O(polylog) [30,31]", c.fitted(),
                   "O(polylog) [30,31]", c.fitted()});
    report.add("MaximalMatching / R-VOL", c, "O(polylog) [30,31]");
  }

  // The C+D region openers: LeafColoring shows the region splits by
  // randomness (D-VOL Θ(n) vs R-VOL Θ(log n)) — the paper's headline.
  {
    auto ph = report.phase("leafcoloring");
    Curve dvol, rvol;
    for (int depth : {9, 12, 15, 17}) {
      auto inst = make_complete_binary_tree(depth, Color::Red, Color::Blue);
      auto starts = sampled_starts(inst.node_count(), 10);
      auto det = measure(inst.graph, inst.ids, starts, [&](Execution& exec) {
        InstanceSource<ColoredTreeLabeling> src(inst, exec);
        leafcoloring_nearest_leaf(src);
      });
      dvol.add(static_cast<double>(inst.node_count()),
               static_cast<double>(det.max_volume));
      RandomTape tape(inst.ids, 3);
      auto rnd = measure(
          inst.graph, inst.ids, starts,
          [&](Execution& exec) {
            InstanceSource<ColoredTreeLabeling> src(inst, exec);
            rw_to_leaf(src, tape);
          },
          &tape);
      rvol.add(static_cast<double>(inst.node_count()),
               static_cast<double>(rnd.max_volume), rnd.wall_seconds);
    }
    table.add_row(
        {"LeafColoring", "C+D", "Θ(n)", dvol.fitted(), "Θ(log n)", rvol.fitted()});
    report.add("LeafColoring / D-VOL", dvol, "Θ(n)");
    report.add("LeafColoring / R-VOL", rvol, "Θ(log n)");
  }
  table.print();
  std::printf(
      "\nClasses A and B coincide for distance and volume (§1.2): the measured\n"
      "volume of the class-B witness stays log*-flat.  Everything at and above\n"
      "Ω(log n) is the open C+D region the rest of the paper charts — see\n"
      "bench_fig3_overview and bench_table1.\n");
  return finish(report, args);
}

}  // namespace
}  // namespace volcal::bench

int main(int argc, char** argv) {
  auto args = volcal::bench::Args::parse(argc, argv, "bench_fig2_volume");
  volcal::bench::Observer::install(args, "bench_fig2_volume");
  return volcal::bench::run(args);
}
