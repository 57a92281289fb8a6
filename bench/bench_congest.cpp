// Section 7.3 benchmarks:
//   * Observation 7.4 — BalancedTree solvable in O(log n) CONGEST rounds with
//     1-bit messages, despite its Ω(n) query lower bound;
//   * Example 7.6 — the two-tree gadget: O(log n) query volume vs Ω(n/B)
//     CONGEST rounds (the root edge is a bandwidth bottleneck).
#include <cmath>
#include <cstdio>
#include <map>

#include "bench_util.hpp"
#include "labels/generators.hpp"
#include "lcl/algorithms/congest_algos.hpp"

namespace volcal::bench {
namespace {

void flooding_table(JsonReport& report) {
  auto ph = report.phase("flooding");
  print_header("Obs. 7.4 — BalancedTree defect flooding (CONGEST, B = 1 bit)");
  stats::Table table({"n", "depth", "rounds used", "root informed", "total bits"});
  Curve rounds_c, bits_c;
  for (int depth : {5, 7, 9, 11}) {
    auto inst = make_unbalanced_instance(depth, depth - 1, 3);
    auto result = congest_balancedtree_flood(inst, 1, 4 * depth);
    table.add_row({fmt_int(inst.node_count()), fmt_int(depth),
                   fmt_int(result.stats.rounds),
                   result.defect_below[0] ? "yes" : "NO",
                   fmt_int(result.stats.total_bits)});
    rounds_c.add(static_cast<double>(inst.node_count()),
                 static_cast<double>(result.stats.rounds));
    bits_c.add(static_cast<double>(inst.node_count()),
               static_cast<double>(result.stats.total_bits));
  }
  table.print();
  report.add("BalancedTree flood / CONGEST rounds", rounds_c, "O(log n) (Obs. 7.4)");
  report.add("BalancedTree flood / total bits", bits_c);
  std::printf(
      "\nRounds stay O(depth) = O(log n) while the query model needs Ω(n)\n"
      "volume for the same problem (Prop. 4.9) — the Obs. 7.4 tightness.\n");
}

void leafcoloring_table(JsonReport& report) {
  auto ph = report.phase("convergecast");
  print_header("§7.3 — LeafColoring convergecast: CONGEST rounds track D-DIST, not D-VOL");
  stats::Table table({"n", "rounds (B = 1)", "depth (= D-DIST)", "D-VOL (query)"});
  Curve rounds_c;
  for (int depth : {8, 10, 12, 14}) {
    auto inst = make_complete_binary_tree(depth, Color::Red, Color::Blue);
    auto result = congest_leafcoloring(inst, 1, 4 * depth);
    table.add_row({fmt_int(inst.node_count()),
                   result.all_decided ? fmt_int(result.stats.rounds) : "timeout",
                   fmt_int(depth), fmt_int(inst.node_count())});
    rounds_c.add(static_cast<double>(inst.node_count()),
                 static_cast<double>(result.stats.rounds));
  }
  table.print();
  report.add("LeafColoring convergecast / CONGEST rounds", rounds_c,
             "Θ(depth) = Θ(log n)");
  std::printf(
      "\nOne-bit announcements of the nearest leaf's color converge in depth\n"
      "rounds: CONGEST behaves like distance here, while the query model pays\n"
      "Θ(n) deterministically (Obs. 7.4's ∆^O(T) bound is tight the other way\n"
      "— see the two-tree gadget below).\n");
}

void two_tree_table(JsonReport& report) {
  auto ph = report.phase("two-tree");
  print_header("Example 7.6 — two-tree gadget: query volume vs CONGEST rounds");
  stats::Table table({"n", "leaf bits N", "B", "CONGEST rounds", "N/B floor",
                      "query volume (max leaf)"});
  std::map<int, Curve> rounds_by_b;
  Curve qvol_c;
  for (int depth : {5, 7, 9}) {
    auto gadget = make_two_tree_gadget(depth, 7);
    const auto n = gadget.graph.node_count();
    const auto big_n = static_cast<std::int64_t>(gadget.bits.size());
    // Query side: every u-leaf walks to its mirror.
    std::int64_t max_vol = 0;
    for (std::size_t i = 0; i < gadget.u_leaves.size();
         i += std::max<std::size_t>(1, gadget.u_leaves.size() / 16)) {
      std::int64_t vol = 0;
      query_two_tree_bit(gadget, gadget.u_leaves[i], &vol);
      max_vol = std::max(max_vol, vol);
    }
    qvol_c.add(static_cast<double>(n), static_cast<double>(max_vol));
    for (const int bandwidth : {16, 64, 256}) {
      auto relay = congest_two_tree_relay(gadget, bandwidth, 1 << 18);
      table.add_row({fmt_int(n), fmt_int(big_n), fmt_int(bandwidth),
                     relay.stats.solved ? fmt_int(relay.stats.rounds) : "timeout",
                     fmt_int(big_n * 8 / bandwidth), fmt_int(max_vol)});
      rounds_by_b[bandwidth].add(static_cast<double>(n),
                                 static_cast<double>(relay.stats.rounds));
    }
  }
  table.print();
  report.add("TwoTree / query volume", qvol_c, "O(log n) (Ex. 7.6)");
  for (auto& [bandwidth, curve] : rounds_by_b) {
    report.add("TwoTree / CONGEST rounds (B=" + std::to_string(bandwidth) + ")", curve,
               "Ω(N/B) (Ex. 7.6)");
  }
  std::printf(
      "\nThe query column stays ~2·depth = O(log n); the CONGEST column grows\n"
      "with N/B because every (index, bit) record crosses the single root\n"
      "edge — Example 7.6's exponential gap, and why volume and CONGEST round\n"
      "complexity are incomparable in general (Obs. 7.4/7.5).\n");
}

}  // namespace
}  // namespace volcal::bench

int main(int argc, char** argv) {
  auto args = volcal::bench::Args::parse(argc, argv, "bench_congest");
  volcal::bench::Observer::install(args, "bench_congest");
  volcal::bench::JsonReport report("bench_congest");
  volcal::bench::flooding_table(report);
  volcal::bench::leafcoloring_table(report);
  volcal::bench::two_tree_table(report);
  return volcal::bench::finish(report, args);
}
