#include "lcl/problems/hierarchical_thc.hpp"

namespace volcal {

namespace {

bool is_color(ThcColor c) { return c == ThcColor::R || c == ThcColor::B; }
bool in_rbx(ThcColor c) { return is_color(c) || c == ThcColor::X; }
bool in_rbd(ThcColor c) { return is_color(c) || c == ThcColor::D; }

}  // namespace

bool thc_conditions_hold(const Hierarchy& h, const std::vector<Color>& chi_in,
                         const std::function<ThcColor(NodeIndex)>& out_at, NodeIndex v,
                         const ThcValidityOptions& opt, bool level2_certified) {
  const int k = opt.k;
  const int level = h.level(v);
  const ThcColor out_v = out_at(v);

  // Condition 1: nodes above the hierarchy are exempt.
  if (level > k) return out_v == ThcColor::X;

  const bool leaf = h.is_level_leaf(v);
  const NodeIndex next = h.backbone_next(v);
  const NodeIndex down = h.down(v);

  // "The component below v certifies itself": for plain THC the RC-child must
  // output R/B/X (conditions 4(b)/5(a)); Hybrid-THC overrides the level-2
  // rule with a BalancedTree-specific certificate supplied by the caller.
  auto down_certifies = [&]() {
    if (opt.hybrid_level2 && level == 2) return level2_certified;
    return down != kNoNode && in_rbx(out_at(down));
  };

  // Condition 2: level-ℓ leaves may echo, decline, or go exempt.
  if (leaf) {
    if (out_v != to_thc(chi_in[v]) && out_v != ThcColor::D && out_v != ThcColor::X) {
      return false;
    }
  }

  if (level == 1) {
    // Condition 3.
    if (!in_rbd(out_v)) return false;                       // 3(a)
    if (!leaf && out_v != out_at(next)) return false;       // 3(b)
    return true;
  }

  // Def. 6.1 routes level 2 to condition 4 (with the modified exemption) even
  // when k = 2; plain Hierarchical-THC uses condition 4 strictly below k.
  if (level < k || (opt.hybrid_level2 && level == 2)) {
    // Condition 4 (only constrains non-leaves; leaves were handled by 2).
    if (leaf) return true;
    const ThcColor out_next = out_at(next);
    const bool case_a = out_v == out_next && in_rbd(out_v);
    const bool case_b = out_v == ThcColor::X && down_certifies();
    const bool case_c =
        (out_v == to_thc(chi_in[v]) || out_v == ThcColor::D) && out_next == ThcColor::X;
    return case_a || case_b || case_c;
  }

  // level == k: condition 5.
  if (!in_rbx(out_v)) return false;
  if (out_v == ThcColor::X && !down_certifies()) return false;  // 5(a)
  if (!leaf && out_v != ThcColor::X) {
    const ThcColor out_next = out_at(next);
    const bool via_child = out_next != ThcColor::X && out_v == out_next;
    const bool after_exempt = out_next == ThcColor::X && out_v == to_thc(chi_in[v]);
    if (!via_child && !after_exempt) return false;  // 5(b)
  }
  return true;
}

bool HierarchicalTHCProblem::valid_at(const InstanceType& inst, const Output& out,
                                      NodeIndex v) const {
  ThcValidityOptions opt;
  opt.k = k_;
  return thc_conditions_hold(
      *hierarchy_, inst.labels.color, [&](NodeIndex u) { return out[u]; }, v, opt);
}

}  // namespace volcal
