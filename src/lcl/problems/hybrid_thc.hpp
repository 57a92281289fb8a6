// Hybrid balanced 2½-coloring, Hybrid-THC(k) (paper Section 6,
// Definition 6.1): the hierarchy of Section 5 with the level-1 floor replaced
// by BalancedTree instances.
//
// Levels are *input labels* level(v) ∈ [k+1].  Level-1 components host
// BalancedTree: either solved (β/port outputs everywhere) or declined
// (unanimous D per component).  A level-2 node may go exempt only when the
// BalancedTree component hanging below it is solved; levels > 2 follow
// Def. 5.5 verbatim.
//
// The separation it witnesses (Thm. 6.3): distance collapses to Θ(log n)
// (BalancedTree is distance-easy) while volume stays Θ̃(n^{1/k}) randomized /
// Θ̃(n) deterministic (BalancedTree is volume-hard).
#pragma once

#include <memory>
#include <vector>

#include "labels/hierarchy.hpp"
#include "labels/instances.hpp"
#include "lcl/problems/balanced_tree.hpp"
#include "lcl/problems/hierarchical_thc.hpp"

namespace volcal {

// A Hybrid-THC output is either a BalancedTree pair (level-1 nodes that
// solved their component) or a THC symbol (everything else; level-1 nodes
// that declined output D).
struct HybridOutput {
  bool is_bt = false;
  BtOutput bt;
  ThcColor thc = ThcColor::D;

  friend bool operator==(const HybridOutput&, const HybridOutput&) = default;

  static HybridOutput balanced(BtOutput o) { return {true, o, ThcColor::D}; }
  static HybridOutput symbol(ThcColor c) { return {false, {}, c}; }
};

// Node u's output as the THC conditions of levels >= 2 read it (a
// BalancedTree output counts as D) — the projection thc_conditions_hold
// takes, so no per-node copy of the outputs is made.
inline auto thc_symbol_at(const std::vector<HybridOutput>& out) {
  return [&out](NodeIndex u) { return out[u].is_bt ? ThcColor::D : out[u].thc; };
}

class HybridTHCProblem {
 public:
  using InstanceType = HybridInstance;
  using Output = std::vector<HybridOutput>;

  HybridTHCProblem(const InstanceType& inst, int k);

  int k() const { return k_; }
  const Hierarchy& hierarchy() const { return *hierarchy_; }

  int radius() const { return 2 * (k_ + 2); }

  bool valid_at(const InstanceType& inst, const Output& out, NodeIndex v) const;

 private:
  int k_;
  std::shared_ptr<Hierarchy> hierarchy_;  // levels from input labels
};

}  // namespace volcal
