// Problem registry: the string-keyed catalogue behind the benches' --filter
// flag.  Every entry must produce a valid instance whose erased solver yields
// a verify_all-clean joint output, identically on plain and traced
// executions, deterministically in (n_target, seed).
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "lcl/registry.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel_runner.hpp"

namespace volcal {
namespace {

std::vector<NodeIndex> every_node(NodeIndex n) {
  std::vector<NodeIndex> starts(static_cast<std::size_t>(n));
  for (NodeIndex v = 0; v < n; ++v) starts[static_cast<std::size_t>(v)] = v;
  return starts;
}

TEST(Registry, CataloguesTheExpectedFamilies) {
  const auto& reg = ProblemRegistry::global();
  ASSERT_GE(reg.entries().size(), 6u);
  std::set<std::string> names;
  for (const auto& e : reg.entries()) {
    EXPECT_TRUE(names.insert(e.name).second) << "duplicate name " << e.name;
    EXPECT_FALSE(e.title.empty()) << e.name;
    EXPECT_FALSE(e.theta.empty()) << e.name;
    EXPECT_TRUE(static_cast<bool>(e.make)) << e.name;
  }
  for (const char* expected :
       {"leaf-coloring", "balanced-tree", "hthc-2", "hthc-3", "hybrid-2", "hh-2-3"}) {
    EXPECT_TRUE(names.count(expected)) << "missing entry " << expected;
  }
}

TEST(Registry, FindAndMatchSemantics) {
  const auto& reg = ProblemRegistry::global();
  const RegistryEntry* leaf = reg.find("leaf-coloring");
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->name, "leaf-coloring");
  EXPECT_EQ(reg.find("no-such-problem"), nullptr);

  // match() is substring-based; empty matches everything.
  EXPECT_EQ(reg.match("").size(), reg.entries().size());
  EXPECT_EQ(reg.match("hthc").size(), 2u);
  EXPECT_EQ(reg.match("hh-2-3").size(), 1u);
  EXPECT_TRUE(reg.match("zzz-nothing").empty());
}

TEST(Registry, EveryEntrySolvesAndVerifies) {
  for (const RegistryEntry& entry : ProblemRegistry::global().entries()) {
    const ErasedInstance inst = entry.make(/*n_target=*/400, /*seed=*/5);
    ASSERT_GT(inst.node_count(), 0) << entry.name;
    EXPECT_EQ(inst.graph().node_count(), inst.node_count()) << entry.name;

    const auto starts = every_node(inst.node_count());
    auto run = ParallelRunner(4).run_at(inst.graph(), inst.ids(),
                                        std::span<const NodeIndex>(starts),
                                        [&](Execution& exec) { return inst.solve(exec); });
    const VerifyResult verdict = inst.verify(run.output);
    EXPECT_TRUE(verdict.ok) << entry.name << ": " << verdict.violations
                            << " violations, first at node " << verdict.first_bad;
    EXPECT_GT(run.stats.max_volume, 0) << entry.name;
  }
}

TEST(Registry, TracedAndPlainSolversAgree) {
  for (const RegistryEntry& entry : ProblemRegistry::global().entries()) {
    const ErasedInstance inst = entry.make(/*n_target=*/250, /*seed=*/23);
    const auto starts = every_node(inst.node_count());
    auto plain = ParallelRunner(1).run_at(inst.graph(), inst.ids(),
                                          std::span<const NodeIndex>(starts),
                                          [&](Execution& exec) { return inst.solve(exec); });
    obs::TraceRecorder recorder;
    auto traced = obs::run_at_traced(
        ParallelRunner(1), inst.graph(), inst.ids(), std::span<const NodeIndex>(starts),
        [&](auto& exec) { return inst.solve(exec); }, recorder);
    EXPECT_EQ(plain.output, traced.output) << entry.name;
    EXPECT_EQ(plain.volume, traced.volume) << entry.name;
    EXPECT_EQ(plain.distance, traced.distance) << entry.name;
    EXPECT_TRUE(same_costs(plain.stats, traced.stats)) << entry.name;
  }
}

TEST(Registry, MakeIsDeterministicInTargetAndSeed) {
  for (const RegistryEntry& entry : ProblemRegistry::global().entries()) {
    const ErasedInstance a = entry.make(300, 7);
    const ErasedInstance b = entry.make(300, 7);
    ASSERT_EQ(a.node_count(), b.node_count()) << entry.name;

    const auto starts = every_node(a.node_count());
    auto ra = ParallelRunner(1).run_at(a.graph(), a.ids(), std::span<const NodeIndex>(starts),
                                       [&](Execution& exec) { return a.solve(exec); });
    auto rb = ParallelRunner(1).run_at(b.graph(), b.ids(), std::span<const NodeIndex>(starts),
                                       [&](Execution& exec) { return b.solve(exec); });
    EXPECT_EQ(ra.output, rb.output) << entry.name;
    EXPECT_TRUE(same_costs(ra.stats, rb.stats)) << entry.name;
  }
}

TEST(Registry, EveryVariantSolvesAndVerifies) {
  for (const RegistryEntry& entry : ProblemRegistry::global().entries()) {
    ASSERT_GE(entry.variants, 2) << entry.name << ": families need shape mutators";
    ASSERT_TRUE(static_cast<bool>(entry.make_variant)) << entry.name;
    for (int variant = 0; variant < entry.variants; ++variant) {
      const ErasedInstance inst = entry.make_variant(300, /*seed=*/11, variant);
      ASSERT_GT(inst.node_count(), 0) << entry.name << " v" << variant;
      const auto starts = every_node(inst.node_count());
      auto run = ParallelRunner(2).run_at(inst.graph(), inst.ids(),
                                          std::span<const NodeIndex>(starts),
                                          [&](Execution& exec) { return inst.solve(exec); });
      const VerifyResult verdict = inst.verify(run.output);
      EXPECT_TRUE(verdict.ok) << entry.name << " v" << variant << ": "
                              << verdict.violations << " violations, first at node "
                              << verdict.first_bad;
    }
  }
}

TEST(Registry, VariantZeroIsMake) {
  for (const RegistryEntry& entry : ProblemRegistry::global().entries()) {
    const ErasedInstance a = entry.make(260, 9);
    const ErasedInstance b = entry.make_variant(260, 9, 0);
    ASSERT_EQ(a.node_count(), b.node_count()) << entry.name;
    const auto starts = every_node(a.node_count());
    auto ra = ParallelRunner(1).run_at(a.graph(), a.ids(), std::span<const NodeIndex>(starts),
                                       [&](Execution& exec) { return a.solve(exec); });
    auto rb = ParallelRunner(1).run_at(b.graph(), b.ids(), std::span<const NodeIndex>(starts),
                                       [&](Execution& exec) { return b.solve(exec); });
    EXPECT_EQ(ra.output, rb.output) << entry.name;
    EXPECT_TRUE(same_costs(ra.stats, rb.stats)) << entry.name;
  }
}

TEST(Registry, VariantsPerturbTheShape) {
  // A mutator that returns the canonical instance under another number would
  // give the fuzzer false coverage; demand some observable difference.  Most
  // variants change the graph itself (node count or degrees); label-only
  // perturbations (e.g. balanced-tree's unbalanced defect, which reshapes
  // claims on the same skeleton) must at least change the solved outputs.
  for (const RegistryEntry& entry : ProblemRegistry::global().entries()) {
    for (int variant = 1; variant < entry.variants; ++variant) {
      const ErasedInstance canon = entry.make_variant(300, 13, 0);
      const ErasedInstance mut = entry.make_variant(300, 13, variant);
      bool differs = canon.node_count() != mut.node_count();
      if (!differs) {
        for (NodeIndex v = 0; v < canon.node_count() && !differs; ++v) {
          differs = canon.graph().degree(v) != mut.graph().degree(v);
        }
      }
      if (!differs) {
        const auto starts = every_node(canon.node_count());
        auto rc = ParallelRunner(1).run_at(canon.graph(), canon.ids(),
                                           std::span<const NodeIndex>(starts),
                                           [&](Execution& exec) { return canon.solve(exec); });
        auto rm = ParallelRunner(1).run_at(mut.graph(), mut.ids(),
                                           std::span<const NodeIndex>(starts),
                                           [&](Execution& exec) { return mut.solve(exec); });
        differs = rc.output != rm.output;
      }
      EXPECT_TRUE(differs) << entry.name << " v" << variant
                           << " is indistinguishable from the canonical instance";
    }
  }
}

TEST(Registry, NTargetScalesInstances) {
  const RegistryEntry* entry = ProblemRegistry::global().find("hthc-2");
  ASSERT_NE(entry, nullptr);
  const ErasedInstance small = entry->make(200, 3);
  const ErasedInstance large = entry->make(3000, 3);
  EXPECT_LT(small.node_count(), large.node_count());
}

// A batch never changes IDs: successive mutated generations share one ID
// table, which outlives the instance it was built for; the naive reference
// path keeps its own copy.
TEST(Registry, MutatedGenerationsShareTheIdTable) {
  for (const RegistryEntry& entry : ProblemRegistry::global().entries()) {
    SCOPED_TRACE(entry.name);
    std::optional<ErasedInstance> second;
    std::vector<NodeId> expect;
    {
      const ErasedInstance inst = entry.make(300, 7);
      const auto ids = inst.ids().span();
      expect.assign(ids.begin(), ids.end());
      const MutationBatch batch = inst.propose_mutation(1, 2, 2);
      const ErasedInstance first = inst.mutated(batch);
      second.emplace(first.mutated(first.propose_mutation(2, 2, 2)));
      EXPECT_EQ(first.ids().span().data(), ids.data());
      EXPECT_EQ(second->ids().span().data(), ids.data());
      EXPECT_NE(inst.mutated_naive(batch).ids().span().data(), ids.data());
    }
    const auto ids = second->ids().span();
    EXPECT_EQ(std::vector<NodeId>(ids.begin(), ids.end()), expect);
  }
}

}  // namespace
}  // namespace volcal
