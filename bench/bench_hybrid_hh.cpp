// Section 6 benchmarks: Hybrid-THC(k) and HH-THC(k, ℓ).
//   * the hybrid crossover: distance collapses to Θ(log n) while randomized
//     volume stays Θ̃(n^{1/k}) (Thm. 6.3);
//   * heavy-floor declines: lowering the lightness threshold flips whole
//     components to unanimous D without breaking validity;
//   * HH-THC: both knobs at once (Thm. 6.5) — distance tracks n^{1/ℓ},
//     volume tracks n^{1/k}.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "labels/generators.hpp"
#include "lcl/algorithms/hh_algos.hpp"
#include "lcl/algorithms/hybrid_algos.hpp"
#include "lcl/algorithms/local_view.hpp"
#include "lcl/problems/hybrid_thc.hpp"
#include "lcl/problems/hh_thc.hpp"

namespace volcal::bench {
namespace {

void hybrid_crossover_table(JsonReport& report) {
  auto ph = report.phase("hybrid-crossover");
  print_header("§6 — Hybrid-THC(2): distance (log n) vs randomized volume (Θ̃(√n))");
  stats::Table table({"n", "max distance", "log2 n", "max volume (waypoint)", "√n"});
  Curve dist, vol;
  for (const auto& [b, d] :
       std::vector<std::pair<NodeIndex, int>>{{16, 4}, {48, 5}, {128, 7}, {384, 8}}) {
    auto inst = make_hybrid_instance(2, b, d, 9);
    const auto n = inst.node_count();
    auto starts = sampled_starts(n, 16);
    {
      Hierarchy h(inst.graph, inst.labels.bal.tree, 3, inst.labels.level_in);
      for (NodeIndex v = 0; v < n && starts.size() < 22u; ++v) {
        if (inst.labels.level_in[v] == 2 && h.down(v) != kNoNode) starts.push_back(h.down(v));
      }
    }
    auto cfg = HybridConfig::make(2, n);
    auto det = measure(inst.graph, inst.ids, starts, [&](auto& exec) {
      InstanceSource<HybridLabeling, std::decay_t<decltype(exec)>> src(inst, exec);
      hybrid_solve_distance(src, cfg);
    });
    RandomTape tape(inst.ids, 7);
    auto rcfg = HybridConfig::make(2, n, true, &tape);
    auto rnd = measure(inst.graph, inst.ids, starts, [&](auto& exec) {
      InstanceSource<HybridLabeling, std::decay_t<decltype(exec)>> src(inst, exec);
      hybrid_solve_volume(src, rcfg);
    });
    dist.add(static_cast<double>(n), static_cast<double>(det.max_distance));
    vol.add(static_cast<double>(n), static_cast<double>(rnd.max_volume));
    char logn[32], root[32];
    std::snprintf(logn, sizeof logn, "%.1f", std::log2(static_cast<double>(n)));
    std::snprintf(root, sizeof root, "%.0f", std::sqrt(static_cast<double>(n)));
    table.add_row({fmt_int(n), fmt_int(det.max_distance), logn, fmt_int(rnd.max_volume),
                   root});
  }
  table.print();
  std::printf("fitted: distance %s, volume %s\n", dist.fitted().c_str(),
              vol.fitted().c_str());
  report.add("Hybrid-THC(2) / D-DIST", dist, "Θ(log n) (Thm. 6.3)");
  report.add("Hybrid-THC(2) / R-VOL", vol, "Θ̃(n^{1/2}) (Thm. 6.3)");
}

void decline_table(JsonReport& report) {
  auto ph = report.phase("declines");
  print_header("§6 — lightness threshold controls solve-vs-decline (still valid)");
  stats::Table table({"bt_limit", "solved floors", "declined floors", "valid"});
  auto inst = make_hybrid_instance(2, 16, 5, 11);
  RandomTape tape(inst.ids, 3);
  for (const std::int64_t limit : {std::int64_t{8}, std::int64_t{32}, std::int64_t{128}}) {
    auto cfg = HybridConfig::make(2, inst.node_count(), true, &tape);
    cfg.bt_limit = limit;
    FreeSource<HybridLabeling> src(inst);
    HybridVolumeSolver<FreeSource<HybridLabeling>> solver(src, cfg);
    std::vector<HybridOutput> out(inst.node_count());
    std::int64_t solved = 0, declined = 0;
    for (NodeIndex v = 0; v < inst.node_count(); ++v) {
      out[v] = solver.solve_at(v);
      if (inst.labels.level_in[v] == 1) {
        (out[v].is_bt ? solved : declined) += 1;
      }
    }
    HybridTHCProblem problem(inst, 2);
    const bool ok = verify_all(problem, inst, out).ok;
    table.add_row({fmt_int(limit), fmt_int(solved), fmt_int(declined),
                   ok ? "yes" : "NO"});
  }
  table.print();
}

void hh_table(JsonReport& report) {
  auto ph = report.phase("hh");
  print_header("§6.1 — HH-THC(k, ℓ): distance tracks n^{1/ℓ}, volume tracks n^{1/k}");
  stats::Table table({"(k,ℓ)", "n", "max distance", "n^{1/ℓ}", "max volume", "n^{1/k}"});
  for (const auto& [k, l] : std::vector<std::pair<int, int>>{{2, 2}, {2, 3}, {2, 4}, {3, 4}}) {
    Curve dist, vol;
    for (NodeIndex n_half : {8000, 40000, 200000, 1000000}) {
      auto inst = make_hh_instance(k, l, n_half, 13);
      const auto n = inst.node_count();
      auto starts = sampled_starts(n, 16);
      auto cfg = HHConfig::make(k, l, n);
      auto det = measure(inst.graph, inst.ids, starts, [&](auto& exec) {
        InstanceSource<HHLabeling, std::decay_t<decltype(exec)>> src(inst, exec);
        hh_solve_distance(src, cfg);
      });
      RandomTape tape(inst.ids, 7);
      auto rcfg = HHConfig::make(k, l, n, true, &tape);
      auto rnd = measure(inst.graph, inst.ids, starts, [&](auto& exec) {
        InstanceSource<HHLabeling, std::decay_t<decltype(exec)>> src(inst, exec);
        hh_solve_volume(src, rcfg);
      });
      dist.add(static_cast<double>(n), static_cast<double>(det.max_distance));
      vol.add(static_cast<double>(n), static_cast<double>(rnd.max_volume));
      char rl[32], rk[32];
      std::snprintf(rl, sizeof rl, "%.0f", std::pow(static_cast<double>(n), 1.0 / l));
      std::snprintf(rk, sizeof rk, "%.0f", std::pow(static_cast<double>(n), 1.0 / k));
      table.add_row({"(" + std::to_string(k) + "," + std::to_string(l) + ")", fmt_int(n),
                     fmt_int(det.max_distance), rl, fmt_int(rnd.max_volume), rk});
    }
    std::printf("(k=%d,ℓ=%d) fitted: distance %s, volume %s\n", k, l,
                dist.fitted().c_str(), vol.fitted().c_str());
    const std::string tag = "(" + std::to_string(k) + "," + std::to_string(l) + ")";
    report.add("HH-THC" + tag + " / D-DIST", dist,
               "Θ(n^{1/" + std::to_string(l) + "}) (Thm. 6.5)");
    report.add("HH-THC" + tag + " / R-VOL", vol,
               "Θ̃(n^{1/" + std::to_string(k) + "}) (Thm. 6.5)");
  }
  table.print();
}

}  // namespace
}  // namespace volcal::bench

int main(int argc, char** argv) {
  auto args = volcal::bench::Args::parse(argc, argv, "bench_hybrid_hh");
  volcal::bench::Observer::install(args, "bench_hybrid_hh");
  volcal::bench::JsonReport report("bench_hybrid_hh");
  volcal::bench::hybrid_crossover_table(report);
  volcal::bench::decline_table(report);
  volcal::bench::hh_table(report);
  return volcal::bench::finish(report, args);
}
