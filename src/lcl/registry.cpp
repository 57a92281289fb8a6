#include "lcl/registry.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <type_traits>
#include <utility>

#include "io/snapshot.hpp"
#include "labels/generators.hpp"
#include "labels/label_mutation.hpp"
#include "lcl/algorithms/balanced_tree_algos.hpp"
#include "lcl/algorithms/hh_algos.hpp"
#include "lcl/algorithms/hthc_algos.hpp"
#include "lcl/algorithms/hybrid_algos.hpp"
#include "lcl/algorithms/leaf_coloring_algos.hpp"
#include "lcl/algorithms/local_view.hpp"
#include "lcl/problems/balanced_tree.hpp"
#include "lcl/problems/ball_census.hpp"
#include "lcl/problems/hh_thc.hpp"
#include "lcl/problems/hierarchical_thc.hpp"
#include "lcl/problems/hybrid_thc.hpp"
#include "lcl/problems/leaf_coloring.hpp"
#include "util/hash.hpp"

namespace volcal {
namespace {

// --- int erasure of the per-family output alphabets -------------------------
//
// Every output alphabet here is finite (Def. 2.6) apart from the port in
// BtOutput, which is bounded by the maximum degree; the layouts below pack
// each alphabet into disjoint bit ranges of one int so verify() can decode
// without knowing which entry produced the value.
//   bits  0..15  BtOutput::p        (ports in these families are <= 4)
//   bits 16..17  BtOutput::beta
//   bits 18..19  ThcColor
//   bit  20      HybridOutput::is_bt

int encode_color(Color c) { return static_cast<int>(c); }
Color decode_color(int e) { return static_cast<Color>(e & 1); }

int encode_bt(BtOutput o) {
  return (static_cast<int>(o.beta) << 16) | static_cast<int>(o.p & 0xffff);
}
BtOutput decode_bt(int e) {
  return {static_cast<Balance>((e >> 16) & 0x3), static_cast<Port>(e & 0xffff)};
}

int encode_thc(ThcColor c) { return static_cast<int>(c) << 18; }
ThcColor decode_thc(int e) { return static_cast<ThcColor>((e >> 18) & 0x3); }

int encode_hybrid(HybridOutput o) {
  return o.is_bt ? ((1 << 20) | encode_bt(o.bt)) : encode_thc(o.thc);
}
HybridOutput decode_hybrid(int e) {
  if ((e >> 20) & 1) return HybridOutput::balanced(decode_bt(e));
  return HybridOutput::symbol(decode_thc(e));
}

// --- mutation plumbing ------------------------------------------------------
//
// Which LabelUpdate channels each labeling carries, and how an in-domain
// value for a channel is drawn.  propose_mutation keeps every draw inside
// the claim domains the family's solver and verifier are specified for: port
// claims range over [0, Δ] (0 = ⊥; dangling claims are ordinary
// inconsistencies), color/side are bits, and level values are sampled from
// the levels already present in the instance.

std::span<const LabelChannel> mutable_channels(const ColoredTreeLabeling&) {
  static constexpr LabelChannel k[] = {LabelChannel::Parent, LabelChannel::Left,
                                       LabelChannel::Right, LabelChannel::InColor};
  return k;
}
std::span<const LabelChannel> mutable_channels(const BalancedTreeLabeling&) {
  static constexpr LabelChannel k[] = {LabelChannel::Parent, LabelChannel::Left,
                                       LabelChannel::Right, LabelChannel::LeftNbr,
                                       LabelChannel::RightNbr};
  return k;
}
std::span<const LabelChannel> mutable_channels(const HybridLabeling&) {
  static constexpr LabelChannel k[] = {
      LabelChannel::Parent,  LabelChannel::Left,     LabelChannel::Right,
      LabelChannel::InColor, LabelChannel::LeftNbr,  LabelChannel::RightNbr,
      LabelChannel::Level};
  return k;
}
std::span<const LabelChannel> mutable_channels(const HHLabeling&) {
  static constexpr LabelChannel k[] = {
      LabelChannel::Parent,  LabelChannel::Left,     LabelChannel::Right,
      LabelChannel::InColor, LabelChannel::LeftNbr,  LabelChannel::RightNbr,
      LabelChannel::Level,   LabelChannel::Side};
  return k;
}

int channel_value(const ColoredTreeLabeling&, LabelChannel c, GraphView g,
                  std::uint64_t h) {
  if (c == LabelChannel::InColor) return static_cast<int>(h & 1);
  return static_cast<int>(h % static_cast<std::uint64_t>(g.max_degree() + 1));
}
int channel_value(const BalancedTreeLabeling&, LabelChannel, GraphView g,
                  std::uint64_t h) {
  return static_cast<int>(h % static_cast<std::uint64_t>(g.max_degree() + 1));
}
int channel_value(const HybridLabeling& l, LabelChannel c, GraphView g,
                  std::uint64_t h) {
  if (c == LabelChannel::InColor) return static_cast<int>(h & 1);
  if (c == LabelChannel::Level) {
    return l.level_in[static_cast<std::size_t>(h % l.level_in.size())];
  }
  return static_cast<int>(h % static_cast<std::uint64_t>(g.max_degree() + 1));
}
int channel_value(const HHLabeling& l, LabelChannel c, GraphView g, std::uint64_t h) {
  if (c == LabelChannel::Side) return static_cast<int>(h & 1);
  return channel_value(l.hybrid, c, g, h);
}

// Deterministic in-domain batch for fuzzing / load generation.  Rewired
// leaves are pairwise non-adjacent (so each is still degree-1 at its turn in
// the sequential application) and reattachment targets avoid the chosen leaf
// set (so no chosen leaf gains degree before its turn).
template <typename Labels>
MutationBatch propose_batch(const Instance<Labels>& inst, std::uint64_t seed,
                            int rewires, int label_updates) {
  MutationBatch batch;
  const GraphView g = inst.graph.view();
  const NodeIndex n = g.node_count();
  if (n < 2) return batch;

  if (rewires > 0) {
    std::vector<NodeIndex> leaves;
    for (NodeIndex v = 0; v < n; ++v) {
      if (g.degree(v) == 1) leaves.push_back(v);
    }
    std::vector<char> blocked(static_cast<std::size_t>(n), 0);
    std::vector<char> chosen(static_cast<std::size_t>(n), 0);
    std::vector<NodeIndex> picked;
    for (int i = 0; i < rewires * 4 && static_cast<int>(picked.size()) < rewires &&
                    !leaves.empty();
         ++i) {
      const std::uint64_t h = mix64(seed, 0x6c656166ull, static_cast<std::uint64_t>(i));
      const NodeIndex leaf = leaves[h % leaves.size()];
      const NodeIndex parent = g.neighbor(leaf, 1);
      if (blocked[static_cast<std::size_t>(leaf)] ||
          blocked[static_cast<std::size_t>(parent)]) {
        continue;
      }
      blocked[static_cast<std::size_t>(leaf)] = 1;
      blocked[static_cast<std::size_t>(parent)] = 1;
      chosen[static_cast<std::size_t>(leaf)] = 1;
      picked.push_back(leaf);
    }
    for (std::size_t i = 0; i < picked.size(); ++i) {
      const NodeIndex leaf = picked[i];
      const std::uint64_t h = mix64(seed, 0x74677464ull, static_cast<std::uint64_t>(i));
      NodeIndex target = static_cast<NodeIndex>(h % static_cast<std::uint64_t>(n));
      while (target == leaf || chosen[static_cast<std::size_t>(target)]) {
        target = (target + 1) % n;
      }
      batch.rewires.push_back({leaf, target});
    }
  }

  for (int i = 0; i < label_updates; ++i) {
    const std::uint64_t h0 = mix64(seed, 0x6c61626cull, static_cast<std::uint64_t>(i));
    const std::uint64_t h1 = mix64(seed, 0x6368616eull, static_cast<std::uint64_t>(i));
    const std::uint64_t h2 = mix64(seed, 0x76616c75ull, static_cast<std::uint64_t>(i));
    const auto channels = mutable_channels(inst.labels);
    LabelUpdate u;
    u.node = static_cast<NodeIndex>(h0 % static_cast<std::uint64_t>(n));
    u.channel = channels[h1 % channels.size()];
    u.value = channel_value(inst.labels, u.channel, g, h2);
    batch.label_updates.push_back(u);
  }
  return batch;
}

// --- erasure plumbing -------------------------------------------------------

// Owns the instance.  `keep` is an opaque retainer destroyed *after* the
// instance — snapshot loads park the file mapping here, so adopted CSR views
// stay valid for the instance's whole lifetime.
template <typename Labels>
struct Held {
  std::shared_ptr<const void> keep;  // declared first => destroyed last
  Instance<Labels> inst;
};

// Builds the Impl over an instance from a verifier factory (`make_problem`,
// called on the held instance), a generic solver functor (callable on an
// InstanceSource over either execution type, returning the problem's
// per-node output value), and an encode/decode pair.  This is the single
// wiring point shared by the generator path (registry entries) and the
// deserialization paths (erase_instance / load_snapshot_instance), so a
// loaded instance gets exactly the closures a generated one gets.
//
// Only verify() builds the Problem, once per call: the THC constructors
// build an O(n) Hierarchy over the instance that loads, solves and
// mutations never read.
template <typename Labels, typename MakeProblem, typename Solve, typename Encode,
          typename Decode>
ErasedInstance erase(std::string family, Instance<Labels>&& inst,
                     std::shared_ptr<const void> keep, MakeProblem make_problem,
                     Solve solve, Encode enc, Decode dec) {
  auto held = std::make_shared<const Held<Labels>>(std::move(keep), std::move(inst));
  typename ErasedInstance::Impl impl;
  impl.family = family;
  impl.graph = held->inst.graph;
  impl.ids = &held->inst.ids;
  impl.solve = [held, solve, enc](Execution& exec) {
    InstanceSource<Labels, Execution> src(held->inst, exec);
    return enc(solve(src));
  };
  impl.solve_traced = [held, solve, enc](obs::TracedExecution& exec) {
    InstanceSource<Labels, obs::TracedExecution> src(held->inst, exec);
    return enc(solve(src));
  };
  impl.verify = [held, make_problem, dec](const std::vector<int>& encoded) {
    using Problem = std::invoke_result_t<MakeProblem, const Instance<Labels>&>;
    const Problem problem = make_problem(held->inst);
    typename Problem::Output out;
    out.reserve(encoded.size());
    for (const int e : encoded) out.push_back(dec(e));
    return verify_all(problem, held->inst, out);
  };
  impl.save_snapshot = [held, family](const std::string& path) {
    io::write_snapshot(path, family, held->inst);
  };
  // Dynamic-graph hooks.  Each returned instance re-enters erase_instance, so
  // a mutation of a mutation is wired exactly like the original — and the new
  // Held owns a fresh graph and labels with no retainer chained to the old
  // one (repeated mutations must not accumulate dead generations).  A batch
  // never changes IDs, so an owned ID table passes to the next generation as
  // is (shared, not copied).  A table adopted from a snapshot mapping is
  // copied once, through the validating constructor — a snapshot with
  // duplicate IDs fails its first update here — and later generations share
  // that copy; either way no generation keeps the mapping alive.
  impl.mutate = [held, family](const MutationBatch& batch,
                               std::vector<NodeIndex>* touched) {
    AppliedMutation applied = apply_mutation(held->inst.graph.view(), batch);
    Instance<Labels> next;
    next.graph = std::move(applied.graph);
    const IdAssignment& ids = held->inst.ids;
    next.ids = ids.adopted()
                   ? IdAssignment(std::vector<NodeId>(ids.span().begin(), ids.span().end()))
                   : ids;
    next.labels = held->inst.labels;
    apply_label_updates(next.labels, batch);
    if (touched != nullptr) *touched = std::move(applied.touched);
    return erase_instance(family, std::move(next));
  };
  impl.mutate_naive = [held, family](const MutationBatch& batch) {
    Instance<Labels> next;
    next.graph = apply_mutation_naive(held->inst.graph.view(), batch);
    const auto ids = held->inst.ids.span();
    next.ids = IdAssignment(std::vector<NodeId>(ids.begin(), ids.end()));
    next.labels = held->inst.labels;
    apply_label_updates(next.labels, batch);
    return erase_instance(family, std::move(next));
  };
  impl.propose_mutation = [held](std::uint64_t seed, int rewires, int label_updates) {
    return propose_batch(held->inst, seed, rewires, label_updates);
  };
  impl.held = std::move(held);
  return ErasedInstance(std::move(impl));
}

// --- n_target -> family parameter maps --------------------------------------

int tree_depth_for(NodeIndex n_target) {
  // Complete binary tree of depth d has 2^{d+1} - 1 nodes.  The cap bounds
  // single-instance RAM/disk (depth 27 = 2^28-1 nodes ~ a 7.2 GB snapshot),
  // comfortably past the extended out-of-core sweeps.
  int depth = 1;
  while (depth < 27 && ((NodeIndex{1} << (depth + 2)) - 1) <= n_target) ++depth;
  return depth;
}

NodeIndex backbone_for(int k, NodeIndex n_target) {
  // make_hierarchical_instance(k, b) has ~b^k nodes.
  const double b = std::pow(static_cast<double>(std::max<NodeIndex>(n_target, 8)),
                            1.0 / static_cast<double>(k));
  return std::max<NodeIndex>(3, static_cast<NodeIndex>(std::llround(b)));
}

// --- per-family wiring ------------------------------------------------------
//
// One function per registry family, taking an already built typed instance.
// Generators and the snapshot loader both funnel through these, so every
// path yields identically wired ErasedInstances.

[[noreturn]] void unknown_family(std::string_view family, const char* labels) {
  throw std::invalid_argument("erase_instance: family '" + std::string(family) +
                              "' is unknown or does not use " + labels + " labels");
}

ErasedInstance erase_colored_tree(std::string_view family, LeafColoringInstance&& inst,
                                  std::shared_ptr<const void> keep) {
  if (family == "leaf-coloring") {
    return erase("leaf-coloring", std::move(inst), std::move(keep),
                 [](const auto&) { return LeafColoringProblem{}; },
                 [](auto& src) { return leafcoloring_nearest_leaf(src); }, encode_color,
                 decode_color);
  }
  if (family == "ball-4") {
    // Output is the ball size itself.  Identity encoding: counts are
    // family-local (enc/dec pairs never cross entries), so the packed bit
    // layout above does not apply.
    return erase(
        "ball-4", std::move(inst), std::move(keep),
        [](const auto&) { return BallCensusProblem(4); },
        [](auto& src) {
          return static_cast<int>(explore_ball(src.execution(), 4).size());
        },
        [](int size) { return size; }, [](int e) { return e; });
  }
  if (family == "hthc-2" || family == "hthc-3") {
    const int k = family.back() - '0';
    const HthcConfig cfg = HthcConfig::make(k, inst.node_count(), false, nullptr);
    return erase(
        std::string(family), std::move(inst), std::move(keep),
        [k](const auto& i) { return HierarchicalTHCProblem(i, k); },
        [cfg](auto& src) {
          HthcSolver<std::decay_t<decltype(src)>> solver(src, cfg);
          return solver.solve();
        },
        encode_thc, decode_thc);
  }
  unknown_family(family, "colored-tree");
}

}  // namespace

ErasedInstance erase_instance(std::string_view family, LeafColoringInstance&& inst,
                              std::shared_ptr<const void> keep_alive) {
  return erase_colored_tree(family, std::move(inst), std::move(keep_alive));
}

ErasedInstance erase_instance(std::string_view family, BalancedTreeInstance&& inst,
                              std::shared_ptr<const void> keep_alive) {
  if (family != "balanced-tree") unknown_family(family, "balanced-tree");
  return erase("balanced-tree", std::move(inst), std::move(keep_alive),
               [](const auto&) { return BalancedTreeProblem{}; },
               [](auto& src) { return balancedtree_solve(src); }, encode_bt, decode_bt);
}

ErasedInstance erase_instance(std::string_view family, HybridInstance&& inst,
                              std::shared_ptr<const void> keep_alive) {
  if (family != "hybrid-2") unknown_family(family, "hybrid");
  const HybridConfig cfg = HybridConfig::make(2, inst.node_count());
  return erase("hybrid-2", std::move(inst), std::move(keep_alive),
               [](const auto& i) { return HybridTHCProblem(i, 2); },
               [cfg](auto& src) { return hybrid_solve_distance(src, cfg); },
               encode_hybrid, decode_hybrid);
}

ErasedInstance erase_instance(std::string_view family, HHInstance&& inst,
                              std::shared_ptr<const void> keep_alive) {
  if (family != "hh-2-3") unknown_family(family, "hh");
  const HHConfig cfg = HHConfig::make(2, 3, inst.node_count());
  return erase("hh-2-3", std::move(inst), std::move(keep_alive),
               [](const auto& i) { return HHTHCProblem(i, 2, 3); },
               [cfg](auto& src) { return hh_solve_distance(src, cfg); }, encode_hybrid,
               decode_hybrid);
}

ErasedInstance load_snapshot_instance(io::Snapshot&& snap) {
  const NodeIndex n = snap.node_count();
  const std::string family = snap.family();
  std::shared_ptr<const void> keep = snap.mapping();

  // Graph + IDs stay zero-copy views into the mapping (kept alive through
  // the erased instance's retainer); each label column is copied once into
  // its typed labeling vector, which has the section's element width.
  auto assign = [&snap]<typename T>(std::vector<T>& dst, const char* tag) {
    const auto s = snap.column<T>(tag);
    dst.assign(s.begin(), s.end());
  };
  auto assign_tree = [&](TreeLabeling& t) {
    assign(t.parent, "parent");
    assign(t.left, "left");
    assign(t.right, "right");
  };
  auto base = [&](auto& inst) {
    inst.graph = Graph::adopt(snap.graph());
    inst.ids = IdAssignment::adopt(snap.ids().data(), n);
  };

  // The labeling shape is determined by which label sections are present —
  // erase_instance then cross-checks it against what `family` expects.
  if (snap.has_section("side")) {
    HHInstance inst;
    base(inst);
    assign_tree(inst.labels.hybrid.bal.tree);
    assign(inst.labels.hybrid.bal.left_nbr, "leftnbr");
    assign(inst.labels.hybrid.bal.right_nbr, "rightnbr");
    assign(inst.labels.hybrid.color, "color");
    assign(inst.labels.hybrid.level_in, "levelin");
    assign(inst.labels.side, "side");
    return erase_instance(family, std::move(inst), std::move(keep));
  }
  if (snap.has_section("levelin")) {
    HybridInstance inst;
    base(inst);
    assign_tree(inst.labels.bal.tree);
    assign(inst.labels.bal.left_nbr, "leftnbr");
    assign(inst.labels.bal.right_nbr, "rightnbr");
    assign(inst.labels.color, "color");
    assign(inst.labels.level_in, "levelin");
    return erase_instance(family, std::move(inst), std::move(keep));
  }
  if (snap.has_section("leftnbr")) {
    BalancedTreeInstance inst;
    base(inst);
    assign_tree(inst.labels.tree);
    assign(inst.labels.left_nbr, "leftnbr");
    assign(inst.labels.right_nbr, "rightnbr");
    return erase_instance(family, std::move(inst), std::move(keep));
  }
  LeafColoringInstance inst;
  base(inst);
  assign_tree(inst.labels.tree);
  assign(inst.labels.color, "color");
  return erase_instance(family, std::move(inst), std::move(keep));
}

const ProblemRegistry& ProblemRegistry::global() {
  static const ProblemRegistry registry;
  return registry;
}

const RegistryEntry* ProblemRegistry::find(std::string_view name) const {
  for (const RegistryEntry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::vector<const RegistryEntry*> ProblemRegistry::match(std::string_view filter) const {
  std::vector<const RegistryEntry*> out;
  for (const RegistryEntry& e : entries_) {
    if (filter.empty() || e.name.find(filter) != std::string::npos) out.push_back(&e);
  }
  return out;
}

ProblemRegistry::ProblemRegistry() {
  // All registered algorithms are the paper's *deterministic* upper bounds:
  // registry solves must be reproducible from (entry, n_target, seed, start)
  // alone so recorded traces replay bit-identically (tests/obs_test.cpp).
  // The randomized variants (RWtoLeaf, way-points) stay bench-only, where the
  // tape is threaded explicitly.
  //
  // Every entry is registered through its make_variant; make is derived as
  // variant 0, so the canonical shapes are unchanged.  Each non-canonical
  // variant reuses a generator whose solver/verifier compatibility is pinned
  // by that family's unit tests.  Solver/verifier wiring lives in the
  // erase_instance overloads above, shared with the snapshot loader.
  auto add = [this](RegistryEntry e) {
    auto mv = e.make_variant;
    e.make = [mv](NodeIndex n_target, std::uint64_t seed) { return mv(n_target, seed, 0); };
    entries_.push_back(std::move(e));
  };

  // The colored-tree instance shapes shared by leaf-coloring and ball-4.
  auto colored_tree_variant = [](NodeIndex n_target, std::uint64_t seed,
                                 int variant) -> LeafColoringInstance {
    switch (variant) {
      case 1:
        return make_random_full_binary_tree(std::max<NodeIndex>(n_target, 3), seed);
      case 2:
        return make_caterpillar(std::max<NodeIndex>(n_target / 2, 2), seed);
      case 3:
        // ~16 nodes per cycle node at hang_depth 3.
        return make_cycle_pseudotree(
            static_cast<int>(std::max<NodeIndex>(n_target / 16, 3)), 3, seed);
      default:
        return make_complete_binary_tree(tree_depth_for(n_target), Color::Red,
                                         Color::Blue);
    }
  };

  {
    RegistryEntry e;
    e.name = "leaf-coloring";
    e.title = "LeafColoring (Def. 3.4)";
    e.theta = "R-DIST = D-DIST Th(log n), R-VOL Th(log n), D-VOL Th(n)";
    e.algorithm = "deterministic nearest-leaf (Prop. 3.9)";
    e.variants = 4;  // complete / random full / caterpillar / cycle pseudotree
    e.make_variant = [colored_tree_variant](NodeIndex n_target, std::uint64_t seed,
                                            int variant) {
      return erase_instance("leaf-coloring", colored_tree_variant(n_target, seed, variant));
    };
    add(std::move(e));
  }

  {
    RegistryEntry e;
    e.name = "balanced-tree";
    e.title = "BalancedTree (Def. 4.3)";
    e.theta = "R-DIST = D-DIST Th(log n), R-VOL = D-VOL Th(n)";
    e.algorithm = "exhaustive compatibility search (Prop. 4.8)";
    e.variants = 2;  // globally compatible / pruned-subtree defect (Lemma 4.6)
    e.make_variant = [](NodeIndex n_target, std::uint64_t seed, int variant) {
      auto built = [&]() -> BalancedTreeInstance {
        if (variant == 1) {
          const int depth = std::max(2, tree_depth_for(n_target));
          return make_unbalanced_instance(depth, std::max(1, depth - 2), seed);
        }
        return make_balanced_instance(tree_depth_for(n_target));
      }();
      return erase_instance("balanced-tree", std::move(built));
    };
    add(std::move(e));
  }

  {
    RegistryEntry e;
    e.name = "ball-4";
    e.title = "BallCensus(4) (query-model pin)";
    e.theta = "R-DIST = D-DIST Th(1), R-VOL = D-VOL Th(1)";
    e.algorithm = "bare explore_ball(v, 4); verifier recomputes N_v(4) offline";
    // The solver *is* explore_ball(v, 4) with the ball size as output — the
    // BatchedBall contract verbatim, so sweeps of this family batch.
    e.plan = ProbePlan::batched_ball(4);
    e.variants = 4;  // same instance shapes as leaf-coloring
    e.make_variant = [colored_tree_variant](NodeIndex n_target, std::uint64_t seed,
                                            int variant) {
      return erase_instance("ball-4", colored_tree_variant(n_target, seed, variant));
    };
    add(std::move(e));
  }

  for (const int k : {2, 3}) {
    RegistryEntry e;
    e.name = "hthc-" + std::to_string(k);
    e.title = "Hierarchical-THC(" + std::to_string(k) + ") (Def. 5.8)";
    e.theta = "R-DIST = D-DIST Th(n^{1/" + std::to_string(k) + "}), R-VOL Th~(n^{1/" +
              std::to_string(k) + "}), D-VOL Th~(n)";
    e.algorithm = "RecursiveHTHC (Alg. 2, Prop. 5.12)";
    e.variants = 3;  // uniform backbones / per-level lens mix / top-cycle (Obs. 5.4)
    const std::string name = e.name;
    e.make_variant = [k, name](NodeIndex n_target, std::uint64_t seed, int variant) {
      auto built = [&]() -> HierarchicalInstance {
        const NodeIndex b = backbone_for(k, n_target);
        switch (variant) {
          case 1: {
            // Deep and shallow backbones mixed, lens[l] in [2, 3b/2].
            std::vector<NodeIndex> lens(static_cast<std::size_t>(k));
            for (int l = 0; l < k; ++l) {
              const std::uint64_t h = mix64(seed, 0x6c656e73ull, static_cast<std::uint64_t>(l));
              lens[static_cast<std::size_t>(l)] =
                  std::max<NodeIndex>(2, b / 2 + static_cast<NodeIndex>(h % (b + 1)));
            }
            return make_hierarchical_instance_lens(lens, seed);
          }
          case 2:
            return make_hierarchical_cycle_instance(k, std::max<NodeIndex>(3, b),
                                                    std::max<NodeIndex>(2, b / 2), seed);
          default:
            return make_hierarchical_instance(k, b, seed);
        }
      }();
      return erase_instance(name, std::move(built));
    };
    add(std::move(e));
  }

  {
    RegistryEntry e;
    e.name = "hybrid-2";
    e.title = "Hybrid-THC(2) (Def. 6.1)";
    e.theta = "R-DIST = D-DIST Th(log n), R-VOL Th~(n^{1/2}), D-VOL Th~(n)";
    e.algorithm = "hybrid distance solver (Thm 6.3)";
    e.variants = 2;  // canonical aspect / squat floors (longer relative backbone)
    e.make_variant = [](NodeIndex n_target, std::uint64_t seed, int variant) {
      // n ~ 2 b^2 for backbone length b and floor depth log2(b).
      const NodeIndex b = std::max<NodeIndex>(
          4, static_cast<NodeIndex>(
                 std::llround(std::sqrt(static_cast<double>(n_target) / 2.0))));
      int d = std::max(2, static_cast<int>(std::floor(std::log2(static_cast<double>(b)))));
      NodeIndex backbone = b;
      if (variant == 1) {
        d = std::max(2, d - 1);       // shallower BalancedTree floors...
        backbone = b + b / 2;         // ...under a relatively longer backbone
      }
      return erase_instance("hybrid-2", make_hybrid_instance(2, backbone, d, seed));
    };
    add(std::move(e));
  }

  {
    RegistryEntry e;
    e.name = "hh-2-3";
    e.title = "HH-THC(2,3) (Def. 6.4)";
    e.theta = "R-DIST = D-DIST Th(n^{1/3}), R-VOL Th~(n^{1/2}), D-VOL Th~(n)";
    e.algorithm = "HH distance solver (Thm 6.5)";
    e.variants = 2;  // even split / skewed split between the two sides
    e.make_variant = [](NodeIndex n_target, std::uint64_t seed, int variant) {
      const NodeIndex n_half = variant == 1 ? std::max<NodeIndex>(n_target / 4, 48)
                                            : std::max<NodeIndex>(n_target / 2, 64);
      return erase_instance("hh-2-3", make_hh_instance(2, 3, n_half, seed));
    };
    add(std::move(e));
  }
}

}  // namespace volcal
