// Instance inspector: generate an instance, print a structural summary, and
// optionally emit a Graphviz rendering — the tooling face of the library.
//
//   $ ./instance_inspector leafcoloring --depth 4 --dot        # DOT to stdout
//   $ ./instance_inspector balancedtree --depth 3 --dot
//   $ ./instance_inspector hierarchical --k 3 --b 5
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "graph/bfs.hpp"
#include "labels/generators.hpp"
#include "labels/hierarchy.hpp"
#include "volcal/io.hpp"

namespace {

int find_arg(int argc, char** argv, const char* name, int fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atoi(argv[i + 1]);
  }
  return fallback;
}

bool has_flag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

template <typename Instance>
void summarize(const Instance& inst) {
  using namespace volcal;
  const auto comps = connected_components(inst.graph);
  std::printf("n = %lld, m = %lld edges, Δ = %d, components = %lld\n",
              static_cast<long long>(inst.node_count()),
              static_cast<long long>(inst.graph.edge_count()), inst.graph.max_degree(),
              static_cast<long long>(comps.count));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace volcal;
  const char* kind = argc > 1 ? argv[1] : "leafcoloring";
  const bool dot = has_flag(argc, argv, "--dot");

  if (std::strcmp(kind, "leafcoloring") == 0) {
    const int depth = find_arg(argc, argv, "--depth", 4);
    auto inst = make_complete_binary_tree(depth, Color::Red, Color::Blue);
    summarize(inst);
    auto f = build_pseudo_forest(inst.graph, inst.labels.tree);
    std::int64_t internals = 0, leaves = 0;
    for (NodeIndex v = 0; v < inst.node_count(); ++v) {
      internals += f.kind[v] == NodeKind::Internal;
      leaves += f.kind[v] == NodeKind::Leaf;
    }
    std::printf("G_T: %lld internal, %lld leaves\n", static_cast<long long>(internals),
                static_cast<long long>(leaves));
    if (dot) std::cout << io::to_dot(inst, 127);
  } else if (std::strcmp(kind, "balancedtree") == 0) {
    const int depth = find_arg(argc, argv, "--depth", 3);
    auto inst = make_balanced_instance(depth);
    summarize(inst);
    if (dot) std::cout << io::to_dot(inst, 127);
  } else if (std::strcmp(kind, "hierarchical") == 0) {
    const int k = find_arg(argc, argv, "--k", 3);
    const NodeIndex b = find_arg(argc, argv, "--b", 5);
    auto inst = make_hierarchical_instance(k, b, 1);
    summarize(inst);
    Hierarchy h(inst.graph, inst.labels.tree, k + 1);
    std::printf("backbones: %zu across %d levels\n", h.backbones().size(), k);
  } else {
    std::fprintf(stderr, "unknown kind '%s' (leafcoloring|balancedtree|hierarchical)\n",
                 kind);
    return 2;
  }
  return 0;
}
