#include "lcl/problems/hybrid_thc.hpp"

namespace volcal {

namespace {

// Validity of the BalancedTree conditions (Def. 4.3) for a level-1 node of a
// Hybrid instance, reading child outputs through the HybridOutput wrapper.
// Children that declined (non-bt outputs) fail the bt branch — Def. 6.1 then
// requires the whole component to decline unanimously.
bool bt_valid_here(const HybridInstance& inst, const std::vector<HybridOutput>& out,
                   NodeIndex v) {
  const Graph& g = inst.graph;
  const BalancedTreeLabeling& l = inst.labels.bal;
  if (!is_consistent(g, l.tree, v)) return true;
  if (!out[v].is_bt) return false;
  const BtOutput& o = out[v].bt;
  if (!bt_compatible(g, l, v)) return o == BtOutput{Balance::Unbalanced, kNoPort};
  if (is_leaf(g, l.tree, v)) return o == BtOutput{Balance::Balanced, l.tree.parent[v]};
  const NodeIndex lc = left_child_of(g, l.tree, v);
  const NodeIndex rc = right_child_of(g, l.tree, v);
  if (!out[lc].is_bt || !out[rc].is_bt) return false;
  const BtOutput& ol = out[lc].bt;
  const BtOutput& orr = out[rc].bt;
  const bool children_balanced = ol == BtOutput{Balance::Balanced, l.tree.parent[lc]} &&
                                 orr == BtOutput{Balance::Balanced, l.tree.parent[rc]};
  if (children_balanced) return o == BtOutput{Balance::Balanced, l.tree.parent[v]};
  if (ol.beta == Balance::Unbalanced && o == BtOutput{Balance::Unbalanced, l.tree.left[v]}) {
    return true;
  }
  if (orr.beta == Balance::Unbalanced &&
      o == BtOutput{Balance::Unbalanced, l.tree.right[v]}) {
    return true;
  }
  return false;
}

}  // namespace

HybridTHCProblem::HybridTHCProblem(const InstanceType& inst, int k)
    : k_(k),
      hierarchy_(std::make_shared<Hierarchy>(inst.graph, inst.labels.bal.tree, k + 1,
                                             inst.labels.level_in)) {}

bool HybridTHCProblem::valid_at(const InstanceType& inst, const Output& out,
                                NodeIndex v) const {
  const Hierarchy& h = *hierarchy_;
  const int level = h.level(v);

  if (level == 1) {
    // Option A: BalancedTree-valid at v.  Option B: v and all its level-1
    // G_T neighbors declined.
    if (bt_valid_here(inst, out, v)) return true;
    if (out[v].is_bt || out[v].thc != ThcColor::D) return false;
    for (const NodeIndex nb : {h.up(v), h.lc(v), h.rc(v)}) {
      if (nb == kNoNode || h.level(nb) != 1) continue;
      if (out[nb].is_bt || out[nb].thc != ThcColor::D) return false;
    }
    return true;
  }

  // Levels >= 2 (and exempt > k) speak the THC symbol alphabet.
  if (out[v].is_bt) return false;
  // Level-2 exemption certificate: the BalancedTree component below solved
  // (its root produced a bt output) — Def. 6.1's replacement of 4(b)/5(a).
  const NodeIndex d = h.down(v);
  const bool certified = level == 2 && d != kNoNode && out[d].is_bt;
  ThcValidityOptions opt;
  opt.k = k_;
  opt.hybrid_level2 = true;
  return thc_conditions_hold(h, inst.labels.color, thc_symbol_at(out), v, opt, certified);
}

}  // namespace volcal
