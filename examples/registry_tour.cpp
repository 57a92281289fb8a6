// Tour of the problem registry: every catalogued family, one small instance
// each — solve from a sample of starts through the erased interface, verify
// the joint output (Def. 2.6), and print the measured sup-costs next to the
// paper's Θ-claims.
//
// Usage: registry_tour [filter-substring] [n_target]
//
// This binary never names a concrete problem type: generator, solver, and
// verifier all come out of the registry entry, which is exactly how
// volcal_bench, volcal_gen and volcal_fuzz resolve their --filter/--family
// flags.
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "lcl/registry.hpp"
#include "runtime/parallel_runner.hpp"

int main(int argc, char** argv) {
  using namespace volcal;
  const char* filter = argc > 1 ? argv[1] : "";
  const NodeIndex n_target = argc > 2 ? std::atoll(argv[2]) : 2000;

  const auto matched = ProblemRegistry::global().match(filter);
  if (matched.empty()) {
    std::fprintf(stderr, "no registry entry matches '%s'; known entries:\n", filter);
    for (const auto& e : ProblemRegistry::global().entries()) {
      std::fprintf(stderr, "  %s\n", e.name.c_str());
    }
    return 1;
  }

  std::printf("%-14s %8s %8s %8s %8s  %s\n", "entry", "n", "starts", "sup-vol",
              "sup-dist", "paper claim");
  for (const RegistryEntry* entry : matched) {
    const ErasedInstance inst = entry->make(n_target, /*seed=*/11);

    // Every node starts once; outputs land in preassigned slots.
    std::vector<NodeIndex> starts(static_cast<std::size_t>(inst.node_count()));
    for (NodeIndex v = 0; v < inst.node_count(); ++v) {
      starts[static_cast<std::size_t>(v)] = v;
    }
    auto run = ParallelRunner().run_at(inst.graph(), inst.ids(),
                                       std::span<const NodeIndex>(starts),
                                       [&](Execution& exec) { return inst.solve(exec); });

    const VerifyResult verdict = inst.verify(run.output);
    std::printf("%-14s %8lld %8lld %8lld %8lld  %s\n", entry->name.c_str(),
                static_cast<long long>(inst.node_count()),
                static_cast<long long>(run.stats.starts),
                static_cast<long long>(run.stats.max_volume),
                static_cast<long long>(run.stats.max_distance), entry->theta.c_str());
    if (!verdict.ok) {
      std::fprintf(stderr, "FATAL: %s produced an invalid joint output (%lld violations, "
                   "first at node %lld)\n",
                   entry->name.c_str(), static_cast<long long>(verdict.violations),
                   static_cast<long long>(verdict.first_bad));
      return 1;
    }
  }
  std::printf("\nAll joint outputs verified against each entry's LCL predicate.\n");
  return 0;
}
