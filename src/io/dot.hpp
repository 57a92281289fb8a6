// Graphviz export of an instance's claimed structure: tree claims as solid
// directed edges (parent -> child), lateral claims dashed, colors as fill.
#pragma once

#include <string>

#include "labels/instances.hpp"

namespace volcal::io {

// Graphviz rendering of the labeled structure; `max_nodes` guards against
// accidentally dumping megabyte graphs (0 = no limit).
std::string to_dot(const LeafColoringInstance& inst, NodeIndex max_nodes = 0);
std::string to_dot(const BalancedTreeInstance& inst, NodeIndex max_nodes = 0);

}  // namespace volcal::io
