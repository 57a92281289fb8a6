#include "lcl/problems/hh_thc.hpp"

namespace volcal {

namespace {

// Validity of the BalancedTree disjunction for a level-1 node on the hybrid
// side (mirrors hybrid_thc.cpp; duplicated here because the label paths
// differ — HH wraps the hybrid labeling one level deeper).
bool bt_valid_here(const HHInstance& inst, const std::vector<HybridOutput>& out,
                   NodeIndex v) {
  const Graph& g = inst.graph;
  const BalancedTreeLabeling& l = inst.labels.hybrid.bal;
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

HHTHCProblem::HHTHCProblem(const InstanceType& inst, int k, int l)
    : k_(k),
      l_(l),
      hier_side_(std::make_shared<Hierarchy>(inst.graph, inst.labels.hybrid.bal.tree, l + 1)),
      hybrid_side_(std::make_shared<Hierarchy>(inst.graph, inst.labels.hybrid.bal.tree, k + 1,
                                               inst.labels.hybrid.level_in)) {}

bool HHTHCProblem::valid_at(const InstanceType& inst, const Output& out, NodeIndex v) const {
  const std::vector<Color>& chi = inst.labels.hybrid.color;

  if (inst.labels.side[v] == 0) {
    // Hierarchical-THC(ℓ) on the induced side-0 subgraph; our instances keep
    // the sides in disjoint components, so full-graph hierarchy links agree
    // with induced-subgraph ones.
    if (out[v].is_bt) return false;
    ThcValidityOptions opt;
    opt.k = l_;
    return thc_conditions_hold(*hier_side_, chi, thc_symbol_at(out), v, opt);
  }

  // Side 1: Hybrid-THC(k).
  const Hierarchy& h = *hybrid_side_;
  const int level = h.level(v);
  if (level == 1) {
    if (bt_valid_here(inst, out, v)) return true;
    if (out[v].is_bt || out[v].thc != ThcColor::D) return false;
    for (const NodeIndex nb : {h.up(v), h.lc(v), h.rc(v)}) {
      if (nb == kNoNode || h.level(nb) != 1) continue;
      if (out[nb].is_bt || out[nb].thc != ThcColor::D) return false;
    }
    return true;
  }
  if (out[v].is_bt) return false;
  const NodeIndex d = h.down(v);
  const bool certified = level == 2 && d != kNoNode && out[d].is_bt;
  ThcValidityOptions opt;
  opt.k = k_;
  opt.hybrid_level2 = true;
  return thc_conditions_hold(h, chi, thc_symbol_at(out), v, opt, certified);
}

}  // namespace volcal
