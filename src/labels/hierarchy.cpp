#include "labels/hierarchy.hpp"

#include <algorithm>
#include <stdexcept>

namespace volcal {

void Hierarchy::build_links(const Graph& g, const TreeLabeling& l) {
  const NodeIndex n = l.node_count();
  lc_.assign(n, kNoNode);
  rc_.assign(n, kNoNode);
  up_.assign(n, kNoNode);
  for (NodeIndex v = 0; v < n; ++v) {
    // Degenerate claims (LC = RC, or P colliding with a child port) void the
    // child links, mirroring conditions (3)-(4) of Def. 3.3.
    if (l.left[v] != kNoPort && l.left[v] == l.right[v]) continue;
    const bool parent_collides_left = l.parent[v] != kNoPort && l.parent[v] == l.left[v];
    const bool parent_collides_right = l.parent[v] != kNoPort && l.parent[v] == l.right[v];
    const NodeIndex lc = left_child_of(g, l, v);
    const NodeIndex rc = right_child_of(g, l, v);
    if (lc != kNoNode && !parent_collides_left && parent_of(g, l, lc) == v && lc != v) {
      lc_[v] = lc;
    }
    if (rc != kNoNode && !parent_collides_right && parent_of(g, l, rc) == v && rc != v &&
        rc != lc_[v]) {
      rc_[v] = rc;
    }
  }
  // up-link: acknowledged parent.  Uniqueness holds because u's parent claim
  // resolves to a single node.
  for (NodeIndex v = 0; v < n; ++v) {
    if (lc_[v] != kNoNode) up_[lc_[v]] = v;
    if (rc_[v] != kNoNode) up_[rc_[v]] = v;
  }
}

void Hierarchy::compute_levels_from_rc_chain() {
  const NodeIndex n = static_cast<NodeIndex>(lc_.size());
  level_.assign(n, 0);
  for (NodeIndex v = 0; v < n; ++v) {
    if (level_[v] != 0) continue;
    std::vector<NodeIndex> chain;
    NodeIndex cur = v;
    int base;
    while (true) {
      if (level_[cur] != 0) {
        base = level_[cur];
        break;
      }
      if (static_cast<int>(chain.size()) > cap_) {
        base = cap_;  // deeper than the cap, or an RC cycle
        break;
      }
      chain.push_back(cur);
      const NodeIndex rc = rc_[cur];
      if (rc == kNoNode) {
        base = 0;  // the node we just pushed has level 1
        break;
      }
      cur = rc;
    }
    while (!chain.empty()) {
      base = std::min(base + 1, cap_);
      level_[chain.back()] = base;
      chain.pop_back();
    }
  }
}

Hierarchy::Hierarchy(const Graph& g, const TreeLabeling& l, int cap) : cap_(cap) {
  if (cap < 2) throw std::invalid_argument("Hierarchy: cap must be >= 2");
  build_links(g, l);
  compute_levels_from_rc_chain();
  decompose_backbones();
}

Hierarchy::Hierarchy(const Graph& g, const TreeLabeling& l, int cap,
                     std::vector<int> input_levels)
    : cap_(cap) {
  if (cap < 2) throw std::invalid_argument("Hierarchy: cap must be >= 2");
  if (static_cast<NodeIndex>(input_levels.size()) != l.node_count()) {
    throw std::invalid_argument("Hierarchy: input level vector size mismatch");
  }
  build_links(g, l);
  level_ = std::move(input_levels);
  for (auto& lv : level_) lv = std::clamp(lv, 1, cap_);
  decompose_backbones();
}

void Hierarchy::decompose_backbones() {
  const NodeIndex n = node_count();
  backbone_of_.assign(n, -1);
  backbones_.clear();
  for (NodeIndex v = 0; v < n; ++v) {
    if (!in_hierarchy(v) || backbone_of_[v] != -1) continue;
    // Walk towards the root end; `fast` takes two steps per step of `head`
    // and meets it only on a cycle.  Once `fast` runs off the root end the
    // chain is a path, and `head` walks on to that end alone.
    NodeIndex head = v;
    bool cycle = false;
    {
      NodeIndex fast = v;
      while (true) {
        NodeIndex prev = backbone_prev(head);
        if (prev == kNoNode) break;
        head = prev;
        if (fast != kNoNode) fast = backbone_prev(fast);
        if (fast != kNoNode) fast = backbone_prev(fast);
        if (fast != kNoNode && head == fast) {
          cycle = true;
          head = v;  // arbitrary rotation
          break;
        }
      }
    }
    Backbone b;
    b.level = level_[v];
    b.is_cycle = cycle;
    NodeIndex cur = head;
    const auto id = static_cast<std::int64_t>(backbones_.size());
    while (cur != kNoNode && backbone_of_[cur] == -1) {
      backbone_of_[cur] = id;
      b.nodes.push_back(cur);
      cur = backbone_next(cur);
    }
    backbones_.push_back(std::move(b));
  }

  // Subtree weights, lowest levels first so below-weights are ready.
  subtree_weight_.assign(backbones_.size(), 0);
  std::vector<std::size_t> order(backbones_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return backbones_[a].level < backbones_[b].level;
  });
  for (std::size_t bi : order) {
    std::int64_t w = static_cast<std::int64_t>(backbones_[bi].nodes.size());
    for (NodeIndex v : backbones_[bi].nodes) {
      const NodeIndex d = down(v);
      if (d != kNoNode && backbone_of_[d] != -1) w += subtree_weight_[backbone_of_[d]];
    }
    subtree_weight_[bi] = w;
  }
}

NodeIndex Hierarchy::backbone_next(NodeIndex v) const {
  if (!in_hierarchy(v)) return kNoNode;
  const NodeIndex lc = lc_[v];
  if (lc == kNoNode || level_[lc] != level_[v]) return kNoNode;
  return lc;
}

NodeIndex Hierarchy::backbone_prev(NodeIndex v) const {
  if (!in_hierarchy(v)) return kNoNode;
  const NodeIndex p = up_[v];
  if (p == kNoNode || level_[p] != level_[v]) return kNoNode;
  if (lc_[p] != v) return kNoNode;  // v hangs off RC: p is one level up
  return p;
}

NodeIndex Hierarchy::down(NodeIndex v) const {
  if (!in_hierarchy(v)) return kNoNode;
  const NodeIndex rc = rc_[v];
  if (rc == kNoNode || level_[rc] != level_[v] - 1) return kNoNode;
  return rc;
}

bool Hierarchy::is_level_root(NodeIndex v) const {
  if (!in_hierarchy(v)) return false;
  const NodeIndex p = up_[v];
  if (p == kNoNode) return true;
  if (rc_[p] == v) return true;  // Def. 5.2: v = RC(P(v))
  // A parent outside the hierarchy (or at a mismatched level) also leaves v
  // without a backbone predecessor; treat v as the root of its chain.
  return backbone_prev(v) == kNoNode && level_[p] != level_[v];
}

bool Hierarchy::is_level_leaf(NodeIndex v) const {
  if (!in_hierarchy(v)) return false;
  return backbone_next(v) == kNoNode;
}

std::int64_t Hierarchy::below_weight(NodeIndex v) const {
  const NodeIndex d = down(v);
  if (d == kNoNode) return 0;
  const std::int64_t b = backbone_of_[d];
  return b == -1 ? 0 : subtree_weight_[b];
}

}  // namespace volcal
