#include "check/fuzz.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "check/repro.hpp"
#include "lcl/registry.hpp"
#include "util/hash.hpp"

namespace volcal::check {
namespace {

// Field-specific domain tags: each FuzzCase field draws from its own hash
// stream of (seed, iter), so tweaking one field's distribution never shifts
// another's.
enum Field : std::uint64_t {
  kVariant = 1,
  kNTarget,
  kInstanceSeed,
  kModel,
  kBudgetCoin,
  kBudget,
  kStartCoin,
  kStartCount,
  kTapeSeed,
  kMutationSeed,
  kMutationRewires,
  kMutationLabels,
};

std::uint64_t draw(std::uint64_t seed, std::uint64_t iter, Field field) {
  return mix64(seed, 0x66757a7aull /* "fuzz" */, iter, static_cast<std::uint64_t>(field));
}

std::string slug(const std::string& error) {
  std::string s;
  for (const char ch : error) {
    if (s.size() >= 40) break;
    if ((ch >= 'a' && ch <= 'z') || (ch >= '0' && ch <= '9')) {
      s += ch;
    } else if (ch >= 'A' && ch <= 'Z') {
      s += static_cast<char>(ch - 'A' + 'a');
    } else if (!s.empty() && s.back() != '-') {
      s += '-';
    }
  }
  while (!s.empty() && s.back() == '-') s.pop_back();
  return s.empty() ? "failure" : s;
}

}  // namespace

FuzzCase generate_case(std::uint64_t seed, std::uint64_t iter, const std::string& family,
                      int family_variants, NodeIndex max_n) {
  FuzzCase c;
  c.family = family;
  c.variant = static_cast<int>(draw(seed, iter, kVariant) %
                               static_cast<std::uint64_t>(std::max(family_variants, 1)));
  const NodeIndex floor = 32;
  const NodeIndex ceil = std::max<NodeIndex>(max_n, floor + 1);
  c.n_target = floor + static_cast<NodeIndex>(draw(seed, iter, kNTarget) %
                                              static_cast<std::uint64_t>(ceil - floor));
  c.instance_seed = draw(seed, iter, kInstanceSeed);
  c.model = static_cast<RandomnessModel>(draw(seed, iter, kModel) % 3);
  // Budgets: unlimited half the time; otherwise small (1..64) so truncation
  // fires on essentially every start of every family.
  c.budget = (draw(seed, iter, kBudgetCoin) & 1) == 0
                 ? 0
                 : 1 + static_cast<std::int64_t>(draw(seed, iter, kBudget) % 64);
  // Starts: whole-graph sweeps half the time (they alone feed the verifier
  // check), sampled subsets otherwise — including the count == 1 edge.
  c.start_count = (draw(seed, iter, kStartCoin) & 1) == 0
                      ? 0
                      : 1 + static_cast<NodeIndex>(draw(seed, iter, kStartCount) % 32);
  c.tape_seed = draw(seed, iter, kTapeSeed);
  // Mutation batches stay small — the differential is about correctness of
  // the delta path, not bulk churn — but cover the label-only (rewires may
  // still be dropped to 0 by shrinking) and structural shapes.
  c.mutation_seed = draw(seed, iter, kMutationSeed);
  c.mutation_rewires = 1 + static_cast<int>(draw(seed, iter, kMutationRewires) % 3);
  c.mutation_labels = static_cast<int>(draw(seed, iter, kMutationLabels) % 4);
  return c;
}

FuzzCase shrink_case(FuzzCase c,
                     const std::function<CheckResult(const FuzzCase&)>& failing_predicate) {
  // Each reduction returns a smaller case, or its argument unchanged when it
  // has nothing left to reduce.  Every one strictly shrinks a bounded
  // non-negative measure, so the descent below terminates.
  using Reduction = FuzzCase (*)(FuzzCase);
  static constexpr Reduction kReductions[] = {
      [](FuzzCase k) {  // halve the instance, floor 32
        if (k.n_target > 32) k.n_target = std::max<NodeIndex>(32, k.n_target / 2);
        return k;
      },
      [](FuzzCase k) {  // prefer the one-start sweep ...
        if (k.start_count == 0 || k.start_count > 1) k.start_count = 1;
        return k;
      },
      [](FuzzCase k) {  // ... else shave the sample
        if (k.start_count > 1) --k.start_count;
        return k;
      },
      [](FuzzCase k) { k.variant = 0; return k; },
      [](FuzzCase k) { k.model = RandomnessModel::Private; return k; },
      [](FuzzCase k) { k.budget = 0; return k; },
      [](FuzzCase k) {
        if (k.mutation_labels > 0) k.mutation_labels = 0;
        return k;
      },
      [](FuzzCase k) {
        if (k.mutation_rewires > 1) k.mutation_rewires = 1;
        return k;
      },
  };
  // Greedy descent: apply each reduction for as long as the failure
  // persists; repeat until a full pass changes nothing.
  for (bool changed = true; changed;) {
    changed = false;
    for (const Reduction reduce : kReductions) {
      for (FuzzCase next = reduce(c); next != c && !failing_predicate(next).ok;
           next = reduce(c)) {
        c = std::move(next);
        changed = true;
      }
    }
  }
  return c;
}

FuzzReport run_fuzz(const FuzzOptions& opts) {
  FuzzReport report;
  const auto families = ProblemRegistry::global().match(opts.family_filter);
  if (families.empty()) {
    FuzzFailure f;
    f.error = "no registry family matches filter '" + opts.family_filter + "'";
    report.failures.push_back(std::move(f));
    return report;
  }
  // Checking and shrinking use the same predicate, so minimized cases still
  // fail for the reported reason.
  for (int iter = 0; iter < opts.iters; ++iter) {
    const RegistryEntry& entry =
        *families[static_cast<std::size_t>(iter) % families.size()];
    FuzzCase c = generate_case(opts.seed, static_cast<std::uint64_t>(iter), entry.name,
                               entry.variants, opts.max_n);
    if (opts.log_cases) {
      std::fprintf(stderr, "[fuzz %4d] %s\n", iter, describe(c).c_str());
    }
    const CheckResult result = check_all(c);
    ++report.iters_run;
    if (result.ok) continue;

    std::fprintf(stderr, "[fuzz %4d] FAIL: %s\n            %s\n", iter,
                 result.error.c_str(), describe(c).c_str());
    FuzzFailure failure;
    failure.original = c;
    failure.minimized = shrink_case(c, check_all);
    const CheckResult minimized = check_all(failure.minimized);
    // Shrinking preserves failure by construction; keep the sharper message.
    failure.error = minimized.ok ? result.error : minimized.error;
    std::fprintf(stderr, "            minimized: %s\n", describe(failure.minimized).c_str());
    if (!opts.out_dir.empty()) {
      const std::string path = opts.out_dir + "/" + slug(failure.error) + "-seed" +
                               std::to_string(opts.seed) + "-iter" + std::to_string(iter) +
                               ".repro";
      if (write_repro_file(path, failure.minimized, failure.error)) {
        failure.repro_path = path;
        std::fprintf(stderr, "            reproducer: %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "            (could not write reproducer to %s)\n", path.c_str());
      }
    }
    report.failures.push_back(std::move(failure));
  }
  return report;
}

}  // namespace volcal::check
