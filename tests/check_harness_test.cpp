// The harness checking the harness: case generation, the invariant
// predicate, the shrinker and the reproducer format of src/check/.
#include <gtest/gtest.h>

#include <string>

#include "check/check.hpp"
#include "check/fuzz.hpp"
#include "check/repro.hpp"
#include "lcl/registry.hpp"

namespace volcal::check {
namespace {

TEST(GenerateCase, DeterministicAndInBounds) {
  const FuzzCase a = generate_case(7, 42, "leaf-coloring", 4, 600);
  const FuzzCase b = generate_case(7, 42, "leaf-coloring", 4, 600);
  EXPECT_EQ(a, b);
  for (std::uint64_t iter = 0; iter < 200; ++iter) {
    const FuzzCase c = generate_case(7, iter, "hthc-2", 3, 300);
    EXPECT_GE(c.variant, 0);
    EXPECT_LT(c.variant, 3);
    EXPECT_GE(c.n_target, 32);
    EXPECT_LT(c.n_target, 300);
    EXPECT_GE(c.budget, 0);
    EXPECT_LE(c.budget, 64);
    EXPECT_LE(c.start_count, 32);
  }
}

TEST(GenerateCase, FieldsVaryIndependently) {
  // Across a modest window every model, both budget regimes and both
  // start-set regimes must appear — the fuzzer's coverage depends on it.
  bool models[3] = {false, false, false};
  bool unlimited = false, budgeted = false, full = false, sampled = false;
  for (std::uint64_t iter = 0; iter < 64; ++iter) {
    const FuzzCase c = generate_case(1, iter, "hybrid-2", 2, 400);
    models[static_cast<int>(c.model)] = true;
    (c.budget == 0 ? unlimited : budgeted) = true;
    (c.start_count == 0 ? full : sampled) = true;
  }
  EXPECT_TRUE(models[0] && models[1] && models[2]);
  EXPECT_TRUE(unlimited && budgeted && full && sampled);
}

TEST(CheckCase, PassesOnEveryFamilyQuickCases) {
  for (const RegistryEntry& entry : ProblemRegistry::global().entries()) {
    FuzzCase c;
    c.family = entry.name;
    c.n_target = 120;
    c.instance_seed = 5;
    c.start_count = 9;
    const CheckResult r = check_all(c);
    EXPECT_TRUE(r.ok) << entry.name << ": " << r.error;
  }
}

TEST(CheckCase, PassesBudgetedAndFullSweepCase) {
  FuzzCase c;
  c.family = "leaf-coloring";
  c.variant = 1;
  c.n_target = 90;
  c.budget = 9;        // truncates deep starts
  c.start_count = 0;   // whole graph (verifier path is skipped when budgeted)
  c.model = RandomnessModel::Public;
  const CheckResult r = check_all(c);
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(CheckCase, RejectsMalformedCases) {
  FuzzCase c;
  c.family = "no-such-family";
  EXPECT_FALSE(check_all(c).ok);
  c.family = "leaf-coloring";
  c.variant = 99;
  const CheckResult r = check_all(c);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("variant"), std::string::npos);
}

TEST(CheckCase, RejectsANegativeMutationSize) {
  FuzzCase c;
  c.family = "leaf-coloring";
  c.n_target = 60;
  c.mutation_rewires = -1;
  const CheckResult r = check_all(c);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "negative mutation batch size in case");
}

TEST(ShrinkCase, MinimizesAgainstAnInjectedPredicate) {
  FuzzCase big;
  big.family = "hthc-2";
  big.variant = 2;
  big.n_target = 512;
  big.model = RandomnessModel::Secret;
  big.budget = 37;
  big.start_count = 20;
  big.mutation_rewires = 3;
  big.mutation_labels = 3;
  // Synthetic bug: fails whenever the instance is "large enough".
  auto predicate = [](const FuzzCase& c) -> CheckResult {
    if (c.n_target >= 100) return {false, "synthetic: still big"};
    return {};
  };
  const FuzzCase small = shrink_case(big, predicate);
  // Halving stops at the last failing size; every bug-irrelevant field is
  // canonicalized because the failure persists without it.
  EXPECT_GE(small.n_target, 100);
  EXPECT_LT(small.n_target, 200);
  EXPECT_EQ(small.variant, 0);
  EXPECT_EQ(small.model, RandomnessModel::Private);
  EXPECT_EQ(small.budget, 0);
  EXPECT_EQ(small.start_count, 1);
  EXPECT_EQ(small.mutation_labels, 0);
  EXPECT_EQ(small.mutation_rewires, 1);
  EXPECT_FALSE(predicate(small).ok);
}

TEST(ShrinkCase, KeepsBugRelevantFields) {
  FuzzCase big;
  big.family = "leaf-coloring";
  big.variant = 3;
  big.n_target = 400;
  big.budget = 21;
  big.start_count = 0;
  // Synthetic bug that needs the variant, a budget and a full sweep.
  auto predicate = [](const FuzzCase& c) -> CheckResult {
    if (c.variant == 3 && c.budget > 0 && c.start_count == 0) {
      return {false, "synthetic: shape+budget+full-sweep bug"};
    }
    return {};
  };
  const FuzzCase small = shrink_case(big, predicate);
  EXPECT_EQ(small.variant, 3);
  EXPECT_EQ(small.budget, 21);
  EXPECT_EQ(small.start_count, 0);
  EXPECT_EQ(small.n_target, 32) << "bug-irrelevant size should shrink to the floor";
}

TEST(Repro, RoundTripsEveryField) {
  FuzzCase c;
  c.family = "hh-2-3";
  c.variant = 1;
  c.n_target = 421;
  c.instance_seed = 6221116673163752301ull;
  c.model = RandomnessModel::Secret;
  c.budget = 40;
  c.start_count = 25;
  c.tape_seed = 11156254489884988039ull;
  const std::string doc = to_repro(c, "sweep: 8-thread outputs diverge");
  FuzzCase parsed;
  std::string error;
  std::string why;
  ASSERT_TRUE(parse_repro(doc, &parsed, &error, &why)) << why;
  EXPECT_EQ(parsed, c);
  EXPECT_EQ(error, "sweep: 8-thread outputs diverge");
}

TEST(Repro, FlattensMultilineErrors) {
  FuzzCase c;
  c.family = "leaf-coloring";
  FuzzCase parsed;
  std::string error;
  ASSERT_TRUE(parse_repro(to_repro(c, "line one\nline two"), &parsed, &error, nullptr));
  EXPECT_EQ(error, "line one line two");
}

TEST(Repro, RejectsMalformedDocuments) {
  FuzzCase out;
  std::string why;
  EXPECT_FALSE(parse_repro("not-a-repro\nfamily x\n", &out, nullptr, &why));
  EXPECT_NE(why.find("header"), std::string::npos);
  EXPECT_FALSE(parse_repro("volcal-fuzz-repro v1\nvariant 0\n", &out, nullptr, &why));
  EXPECT_NE(why.find("family"), std::string::npos);
  EXPECT_FALSE(
      parse_repro("volcal-fuzz-repro v1\nfamily x\nmodel warm\n", &out, nullptr, &why));
  EXPECT_NE(why.find("model"), std::string::npos);
  EXPECT_FALSE(
      parse_repro("volcal-fuzz-repro v1\nfamily x\nvariant twelve\n", &out, nullptr, &why));
}

TEST(Repro, SkipsCommentsAndUnknownKeys) {
  const std::string doc =
      "volcal-fuzz-repro v1\n"
      "# a comment\n"
      "family balanced-tree\n"
      "future_knob 7\n"
      "variant 1\n";
  FuzzCase parsed;
  std::string why;
  ASSERT_TRUE(parse_repro(doc, &parsed, nullptr, &why)) << why;
  EXPECT_EQ(parsed.family, "balanced-tree");
  EXPECT_EQ(parsed.variant, 1);
}

TEST(ModelNames, RoundTrip) {
  for (const RandomnessModel m :
       {RandomnessModel::Private, RandomnessModel::Public, RandomnessModel::Secret}) {
    RandomnessModel back;
    ASSERT_TRUE(model_from_name(model_name(m), &back));
    EXPECT_EQ(back, m);
  }
  RandomnessModel back;
  EXPECT_FALSE(model_from_name("deterministic", &back));
}

TEST(RunFuzz, SmallCleanRunAndFilterErrors) {
  FuzzOptions opts;
  opts.seed = 11;
  opts.iters = 12;
  opts.max_n = 200;
  const FuzzReport report = run_fuzz(opts);
  EXPECT_EQ(report.iters_run, 12);
  EXPECT_TRUE(report.ok());

  FuzzOptions bad;
  bad.family_filter = "zzz-nothing";
  const FuzzReport none = run_fuzz(bad);
  EXPECT_FALSE(none.ok());
  EXPECT_EQ(none.iters_run, 0);
}

}  // namespace
}  // namespace volcal::check
