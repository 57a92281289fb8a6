// Hierarchical 2½-coloring, Hierarchical-THC(k) (paper Section 5,
// Definition 5.5) — the Chang-Pettie-style hierarchy variant with unanimous
// (not proper) component colors and relaxed exemption (Remark 5.7).
//
// Output alphabet: {R, B, D, X} — color, color, "decline", "exempt".
// Each backbone (equal-level component of the hierarchical forest G_k) must
// be colored unanimously between exempt nodes; a node may go exempt only when
// the component hanging below it via RC certifies itself (outputs R/B/X).
//
// The separation it witnesses (Thm. 5.9): R-DIST = D-DIST = Θ(n^{1/k}),
// R-VOL = Θ̃(n^{1/k}), D-VOL = Θ̃(n).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "labels/hierarchy.hpp"
#include "labels/instances.hpp"
#include "lcl/lcl.hpp"

namespace volcal {

enum class ThcColor : std::uint8_t { R, B, D, X };

inline ThcColor to_thc(Color c) { return c == Color::Red ? ThcColor::R : ThcColor::B; }

inline char thc_char(ThcColor c) {
  switch (c) {
    case ThcColor::R: return 'R';
    case ThcColor::B: return 'B';
    case ThcColor::D: return 'D';
    case ThcColor::X: return 'X';
  }
  return '?';
}

// Shared validity core: evaluates the numbered conditions of Def. 5.5 at v
// given the hierarchy h (levels may come from the RC-chain or, for Hybrid,
// from input labels).  `chi_in` is v's input color.  `k` is the problem
// parameter; h.cap() must be k+1.
//
// `hybrid_level2` implements Def. 6.1's replacement of 4(b) at level 2 for
// Hybrid-THC, where the caller supplies v's sub-level-1 certificate.
struct ThcValidityOptions {
  int k = 1;
  bool hybrid_level2 = false;  // level-2 X gated by BalancedTree output below
};

class HierarchicalTHCProblem {
 public:
  using InstanceType = HierarchicalInstance;
  using Output = std::vector<ThcColor>;

  HierarchicalTHCProblem(const InstanceType& inst, int k)
      : k_(k),
        hierarchy_(std::make_shared<Hierarchy>(inst.graph, tree_labels(inst), k + 1)) {}

  int k() const { return k_; }
  const Hierarchy& hierarchy() const { return *hierarchy_; }

  // Level computation walks the RC-chain O(k) hops and backbone membership
  // one more: radius O(k), a constant for fixed k (Obs. 5.3, Lemma 5.8).
  int radius() const { return 2 * (k_ + 2); }

  bool valid_at(const InstanceType& inst, const Output& out, NodeIndex v) const;

 private:
  static const TreeLabeling& tree_labels(const InstanceType& inst) {
    return inst.labels.tree;
  }

  int k_;
  std::shared_ptr<Hierarchy> hierarchy_;
};

// The condition engine shared by Hierarchical-, Hybrid-, and HH-THC.  It
// reads outputs only at v, at v's backbone successor and at the node hanging
// below v via RC, each through `out_at` — callers whose outputs are not THC
// symbols project them per node, so verifying a whole graph stays linear.
// `level2_certified` is v's certificate for Def. 6.1's level-2 exemption,
// read only when opt.hybrid_level2 is set.
bool thc_conditions_hold(const Hierarchy& h, const std::vector<Color>& chi_in,
                         const std::function<ThcColor(NodeIndex)>& out_at, NodeIndex v,
                         const ThcValidityOptions& opt, bool level2_certified = false);

}  // namespace volcal
