// Seeded differential fuzzing over the problem registry.
//
// Case generation is a pure hash of (seed, iteration): every field of the
// FuzzCase comes from mix64 with a field-specific domain tag, so a fuzz run
// is reproducible from its --seed alone and any single iteration can be
// regenerated without replaying the ones before it.  Generation sweeps every
// registry family round-robin (each family is hit every |registry| iters)
// and perturbs, per case: the shape variant, the instance size and seed, the
// randomness model, the query budget (unlimited half the time, punishingly
// small otherwise — small budgets are what exercise the truncation paths)
// and the start-set size (whole graph or a sampled subset).
//
// Every case runs check_all (check/check.hpp).  When it fails, the driver
// shrinks the case before reporting: greedy passes that halve n_target, drop
// the start set to a single node, canonicalize the variant and model, lift
// the budget and shrink the mutation batch — each kept only if the
// predicate still fails — looping to a fixpoint.  The result is the smallest
// case this lattice reaches that still exhibits the bug, written as a
// reproducer file (check/repro.hpp) for the regression corpus.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/check.hpp"

namespace volcal::check {

struct FuzzOptions {
  std::uint64_t seed = 1;
  int iters = 200;
  std::string family_filter;  // substring over registry names; empty = all
  NodeIndex max_n = 600;      // upper bound for generated n_target
  std::string out_dir;        // reproducer directory; empty = none written
  bool log_cases = false;     // print every case before checking it
};

// The deterministic case for iteration `iter` of run `seed`.  `family_index`
// selects among the (filtered) families; callers normally pass
// iter % family_count to sweep the registry round-robin.
FuzzCase generate_case(std::uint64_t seed, std::uint64_t iter, const std::string& family,
                      int family_variants, NodeIndex max_n);

// Greedy minimization: returns the smallest case (under the shrink lattice
// above) for which `failing_predicate` still returns a failure.  The
// predicate is injected so tests can shrink against synthetic bugs; the
// driver passes check_all.
FuzzCase shrink_case(FuzzCase c,
                     const std::function<CheckResult(const FuzzCase&)>& failing_predicate);

struct FuzzFailure {
  FuzzCase original;    // as generated
  FuzzCase minimized;   // after shrinking
  std::string error;    // the minimized case's failure message
  std::string repro_path;  // written reproducer ("" if out_dir unset or write failed)
};

struct FuzzReport {
  int iters_run = 0;
  std::vector<FuzzFailure> failures;

  bool ok() const { return failures.empty(); }
};

// The full loop: generate, check, shrink failures, write reproducers.
// Progress and failures go to stderr.
FuzzReport run_fuzz(const FuzzOptions& opts);

}  // namespace volcal::check
