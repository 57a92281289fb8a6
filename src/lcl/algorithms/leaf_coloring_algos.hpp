// LeafColoring algorithms (paper Section 3), written against the TreeSource
// concept so they run both on materialized instances and against adaptive
// adversaries.
//
//  * nearest-leaf search (Prop. 3.9): deterministic, distance O(log n); its
//    *volume* is Θ(n) on complete trees, matching the D-VOL lower bound.
//  * leftmost descent: deterministic alternative with volume = depth of the
//    leftmost descendant leaf (Θ(n) worst case; the natural "cheap when
//    lucky" deterministic strategy the Prop. 3.13 adversary defeats).
//  * RWtoLeaf (Algorithm 1, Prop. 3.10): randomized, volume O(log n) whp;
//    truncation per Remark 3.11.
#pragma once

#include <cstdint>
#include <vector>

#include "lcl/algorithms/local_view.hpp"
#include "runtime/randomness.hpp"

namespace volcal {

// Prop. 3.9: if internal, BFS the G_T descendants level by level until the
// first level containing a leaf; output χ_in of the leftmost (LC-before-RC
// in BFS order) leaf at that level.  Leaves/inconsistent nodes echo χ_in.
template <typename Source>
Color leafcoloring_nearest_leaf(Source& src) {
  TreeView<Source> view(src);
  const NodeIndex start = src.start();
  if (!view.internal(start)) return src.color(start);
  // BFS queue reused across calls (whole-graph sweeps call this from every
  // start node, so a per-call container would dominate the wall time): a
  // vector with a head index, allocation-free in steady state.  Not
  // reentrant; nothing calls this solver from within itself.
  thread_local std::vector<NodeIndex> frontier;
  frontier.clear();
  frontier.push_back(start);
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const NodeIndex v = frontier[head];
    // Children of an internal node are always in G_T (a non-internal child
    // of an internal parent is a leaf), so expansion is two-way.
    for (const NodeIndex child : {view.left(v), view.right(v)}) {
      // No visited set: G_T in-degree <= 1 (Obs. 3.7), so only start recurs.
      if (child == kNoNode || child == start) continue;
      if (!view.internal(child)) return src.color(child);  // nearest leftmost leaf
      frontier.push_back(child);
    }
  }
  return src.color(start);  // unreachable on well-formed inputs (Lemma 3.8)
}

// Deterministic LC-only descent; on detecting a pure-LC cycle outputs Red
// (any unanimous color is feasible around such a cycle).
template <typename Source>
Color leafcoloring_leftmost_descent(Source& src) {
  TreeView<Source> view(src);
  const NodeIndex start = src.start();
  if (!view.internal(start)) return src.color(start);
  NodeIndex cur = start;
  while (true) {
    const NodeIndex next = view.left(cur);
    if (next == kNoNode) return src.color(cur);  // defensive
    if (!view.internal(next)) return src.color(next);
    // No visited set: G_T in-degree <= 1 (Obs. 3.7), so only start recurs.
    if (next == start) return Color::Red;  // LC-cycle
    cur = next;
  }
}

struct RwStats {
  Color output = Color::Red;
  std::int64_t steps = 0;
  bool truncated = false;
  bool revisited_start = false;
};

// Algorithm 1 with instrumentation.  max_steps <= 0 disables truncation;
// otherwise after max_steps walk steps the node outputs χ_in of the walk's
// current position (arbitrary output is permitted by Remark 3.11; using a
// live value keeps failures observable instead of masked).
template <typename Source>
RwStats rw_to_leaf_stats(Source& src, RandomTape& tape, std::int64_t max_steps = 0) {
  TreeView<Source> view(src);
  const NodeIndex v0 = src.start();
  RwStats stats;
  NodeIndex cur = v0;
  bool left_start = false;
  while (true) {
    if (!view.internal(cur)) {  // leaf or inconsistent: adopt its input color
      stats.output = src.color(cur);
      return stats;
    }
    if (max_steps > 0 && stats.steps >= max_steps) {
      stats.truncated = true;
      stats.output = src.color(cur);
      return stats;
    }
    bool b = tape.bit(v0, cur, 0);
    if (left_start && cur == v0) {
      // Algorithm 1 line 4: on revisiting the start take the other branch;
      // the walk then leaves the component's unique cycle for good.
      b = !b;
      stats.revisited_start = true;
    }
    const NodeIndex next = b ? view.right(cur) : view.left(cur);
    if (next == kNoNode) {  // defensive: internal nodes have both children
      stats.output = src.color(cur);
      return stats;
    }
    ++stats.steps;
    left_start = true;
    cur = next;
  }
}

template <typename Source>
Color rw_to_leaf(Source& src, RandomTape& tape, std::int64_t max_steps = 0) {
  return rw_to_leaf_stats(src, tape, max_steps).output;
}

}  // namespace volcal
