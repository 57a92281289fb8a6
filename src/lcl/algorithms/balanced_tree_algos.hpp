// BalancedTree algorithms (paper Section 4).
//
// One algorithm serves both measurements (Prop. 4.8): starting from an
// internal node it BFS-explores G_T descendants down to the nearest-leaf
// depth d, compat-checking each — distance O(d) = O(log n), volume Θ(2^d)
// (= Θ(n) from the root of a balanced instance, matching the Ω(n) volume
// lower bound of Prop. 4.9, which no algorithm can beat).
//
// BalancedSource concept = TreeSource + ln_port(v) / rn_port(v).
#pragma once

#include <cstdint>
#include <vector>

#include "lcl/algorithms/local_view.hpp"
#include "lcl/problems/balanced_tree.hpp"

namespace volcal {

// Definition 4.2 evaluated through queries (only meaningful for consistent v).
template <typename Source>
bool query_bt_compatible(Source& src, NodeIndex v) {
  TreeView<Source> view(src);
  if (view.kind(v) == NodeKind::Inconsistent) return false;
  const bool v_internal = view.internal(v);
  const NodeIndex ln = view.follow(v, src.ln_port(v));
  const NodeIndex rn = view.follow(v, src.rn_port(v));

  // type-preserving (+ the `leaves` condition).
  if (src.ln_port(v) != kNoPort) {
    if (ln == kNoNode) return false;
    if (v_internal ? !view.internal(ln) : !view.leaf(ln)) return false;
  }
  if (src.rn_port(v) != kNoPort) {
    if (rn == kNoNode) return false;
    if (v_internal ? !view.internal(rn) : !view.leaf(rn)) return false;
  }
  // agreement.
  if (ln != kNoNode && view.follow(ln, src.rn_port(ln)) != v) return false;
  if (rn != kNoNode && view.follow(rn, src.ln_port(rn)) != v) return false;

  if (v_internal) {
    const NodeIndex lc = view.left(v);
    const NodeIndex rc = view.right(v);
    // siblings.
    if (view.follow(lc, src.rn_port(lc)) != rc) return false;
    if (view.follow(rc, src.ln_port(rc)) != lc) return false;
    // persistence (see balanced_tree.cpp for the paper-typo note): the
    // child-level lateral chain continues across sibling groups.
    if (rn != kNoNode) {
      if (!view.internal(rn)) return false;
      const NodeIndex wl = view.left(rn);
      if (view.follow(rc, src.rn_port(rc)) != wl) return false;
      if (wl == kNoNode || view.follow(wl, src.ln_port(wl)) != rc) return false;
    }
    if (ln != kNoNode) {
      if (!view.internal(ln)) return false;
      const NodeIndex ur = view.right(ln);
      if (view.follow(lc, src.ln_port(lc)) != ur) return false;
      if (ur == kNoNode || view.follow(ur, src.rn_port(ur)) != lc) return false;
    }
  }
  return true;
}

// Prop. 4.8.  `depth_limit` <= 0 means "no limit" (the exhaustive-volume
// flavor); the distance-optimal flavor passes ~log2(n) + O(1), which Lemma
// 4.6 guarantees is enough to hit either a leaf or an incompatible node.
// `at` lets embedding problems (Hybrid-THC) solve for a node other than the
// execution's start; kNoNode means src.start().
template <typename Source>
BtOutput balancedtree_solve(Source& src, std::int64_t depth_limit = 0,
                            NodeIndex at = kNoNode) {
  TreeView<Source> view(src);
  const NodeIndex start = at == kNoNode ? src.start() : at;
  const NodeKind k = view.kind(start);
  if (k == NodeKind::Inconsistent) return {Balance::Unbalanced, kNoPort};  // unconstrained
  if (!query_bt_compatible(src, start)) {
    return {Balance::Unbalanced, kNoPort};  // condition 1
  }
  if (k == NodeKind::Leaf) {
    return {Balance::Balanced, src.parent_port(start)};  // condition 2
  }

  // Internal & compatible: BFS descendants (LC before RC, so the first
  // incompatible node found at its depth is the leftmost one) down to the
  // nearest-leaf depth d; any incompatible descendant within d forces
  // (U, first hop towards it), otherwise (B, P(v)).
  struct Entry {
    NodeIndex node;
    std::int64_t depth;
    Port first_hop;  // port at `start` beginning the path to this node
  };
  // BFS queue reused across calls, as in leafcoloring_nearest_leaf: a vector
  // with a head index, allocation-free in steady state.  Not reentrant;
  // nothing this solver calls runs it again.
  thread_local std::vector<Entry> frontier;
  frontier.clear();
  std::int64_t leaf_depth = -1;
  frontier.push_back({start, 0, kNoPort});
  Port defect_hop = kNoPort;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const Entry e = frontier[head];
    if (leaf_depth >= 0 && e.depth >= leaf_depth) break;     // scanned depth <= d
    if (depth_limit > 0 && e.depth >= depth_limit) break;    // defensive cutoff
    const NodeIndex lc = view.left(e.node);
    const NodeIndex rc = view.right(e.node);
    int child_slot = 0;
    for (const NodeIndex child : {lc, rc}) {
      const Port hop = e.depth == 0 ? (child_slot == 0 ? src.left_port(start)
                                                       : src.right_port(start))
                                    : e.first_hop;
      ++child_slot;
      // No visited set: G_T in-degree <= 1 (Obs. 3.7), so only start recurs.
      if (child == kNoNode || child == start) continue;
      if (!query_bt_compatible(src, child) && defect_hop == kNoPort) {
        defect_hop = hop;  // nearest (BFS) leftmost (LC-first) incompatible
      }
      if (!view.internal(child)) {
        if (leaf_depth < 0) leaf_depth = e.depth + 1;
      } else {
        frontier.push_back({child, e.depth + 1, hop});
      }
    }
    if (defect_hop != kNoPort) break;
  }
  if (defect_hop != kNoPort) return {Balance::Unbalanced, defect_hop};
  return {Balance::Balanced, src.parent_port(start)};
}

}  // namespace volcal
