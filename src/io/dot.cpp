#include "io/dot.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <utility>

namespace volcal::io {
namespace {

void dot_tree_edges(std::ostream& os, const Graph& g, const TreeLabeling& t, NodeIndex n) {
  for (NodeIndex v = 0; v < n; ++v) {
    for (const auto& [port, tag] :
         {std::pair{t.left[v], "LC"}, std::pair{t.right[v], "RC"}}) {
      const NodeIndex child = resolve(g, v, port);
      if (child != kNoNode && child < n) {
        os << "  n" << v << " -> n" << child << " [label=\"" << tag << "\"];\n";
      }
    }
  }
}

}  // namespace

std::string to_dot(const LeafColoringInstance& inst, NodeIndex max_nodes) {
  const NodeIndex n =
      max_nodes > 0 ? std::min(max_nodes, inst.node_count()) : inst.node_count();
  std::ostringstream os;
  os << "digraph leafcoloring {\n  node [style=filled];\n";
  for (NodeIndex v = 0; v < n; ++v) {
    const char* fill = inst.labels.color[v] == Color::Red ? "salmon" : "lightblue";
    const NodeKind kind = classify(inst.graph, inst.labels.tree, v);
    const char* shape = kind == NodeKind::Internal ? "circle"
                        : kind == NodeKind::Leaf   ? "doublecircle"
                                                   : "box";
    os << "  n" << v << " [label=\"" << inst.ids.id_of(v) << "\", fillcolor=" << fill
       << ", shape=" << shape << "];\n";
  }
  dot_tree_edges(os, inst.graph, inst.labels.tree, n);
  os << "}\n";
  return os.str();
}

std::string to_dot(const BalancedTreeInstance& inst, NodeIndex max_nodes) {
  const NodeIndex n =
      max_nodes > 0 ? std::min(max_nodes, inst.node_count()) : inst.node_count();
  std::ostringstream os;
  os << "digraph balancedtree {\n  node [style=filled, fillcolor=white];\n";
  for (NodeIndex v = 0; v < n; ++v) {
    os << "  n" << v << " [label=\"" << inst.ids.id_of(v) << "\"];\n";
  }
  dot_tree_edges(os, inst.graph, inst.labels.tree, n);
  for (NodeIndex v = 0; v < n; ++v) {
    const NodeIndex rn = resolve(inst.graph, v, inst.labels.right_nbr[v]);
    if (rn != kNoNode && rn < n) {
      os << "  n" << v << " -> n" << rn << " [style=dashed, constraint=false];\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace volcal::io
