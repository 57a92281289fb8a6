// Invariant checking for the query model — the predicate the differential
// fuzzer (check/fuzz.hpp) minimizes against.
//
// A FuzzCase names one randomized scenario: a registry family + shape
// variant + instance seed, a randomness model + tape seed, a query budget
// and a start-set size.  check_case() builds the instance and asserts, in
// one pass, everything the engine contract promises:
//
//   * differential execution — the flat epoch-stamped Execution, the traced
//     BasicExecution<RecordingSink> and the historical map-based
//     ReferenceMapExecution agree bit-for-bit on output, volume, distance,
//     query count and truncation point (the reference runs the recorded
//     probe sequence, so all three see identical query streams);
//   * engine determinism — a serial sweep and an 8-thread sweep of the same
//     start set produce identical SweepResults;
//   * model invariants — per start, distance + 1 <= volume <= queries + 1;
//     the traced running volume is monotone; truncation happens exactly at
//     the budget (volume == budget at the throw, never beyond it);
//   * trace faithfulness — every recorded trace survives obs::replay_trace;
//   * self-verification — with no budget, the family's upper-bound
//     algorithm's whole-graph output passes the family's own verifier;
//   * tape invariants — words are windows of the bit stream, accounting
//     matches consumption, ScopedUsage merging equals serial accounting, and
//     the three randomness models keep their access disciplines;
//   * helper contracts — bench::sampled_starts and obs::Histogram agree
//     with independent recomputation on the case's own data (the histogram:
//     exact count/sum/min/max, nearest-rank p50/p95/p99 within 1/32).
//
// The checks are exactly the ones that catch the bugs this harness was built
// around (RandomTape word/bit stream aliasing, sampled_starts count==1);
// deliberately re-introducing any of them
// makes check_case fail with a pinpointed error string.
#pragma once

#include <cstdint>
#include <string>

#include "graph/graph.hpp"
#include "runtime/randomness.hpp"

namespace volcal::check {

// One reproducible scenario.  Everything check_case does is a pure function
// of these fields (plus the registry), which is what makes shrunk cases
// replayable from a text file.
struct FuzzCase {
  std::string family;                              // registry entry name
  int variant = 0;                                 // shape mutator index
  NodeIndex n_target = 300;                        // approximate instance size
  std::uint64_t instance_seed = 1;                 // generator seed
  RandomnessModel model = RandomnessModel::Private;
  std::int64_t budget = 0;                         // query budget, 0 = unlimited
  NodeIndex start_count = 0;                       // sampled starts, 0 = every node
  std::uint64_t tape_seed = 1;                     // RandomTape seed
  // Mutation-differential knobs (consumed by check_mutation_case only): the
  // seed and size of the MutationBatch propose_mutation draws for the case.
  std::uint64_t mutation_seed = 1;
  int mutation_rewires = 2;                        // leaf rewires requested
  int mutation_labels = 2;                         // label updates requested

  friend bool operator==(const FuzzCase&, const FuzzCase&) = default;
};

struct CheckResult {
  bool ok = true;
  std::string error;  // first violated predicate, human-readable; empty when ok

  explicit operator bool() const { return ok; }
};

// Runs every check above on one case.  Throws nothing: malformed cases
// (unknown family, out-of-range variant) come back as failures.
CheckResult check_case(const FuzzCase& c);

// Backend differential (plan/probe_plan.hpp + runtime/batched_execution.hpp):
// the family's registered probe plan executed on the Batched backend over the
// case's starts, each repeated once, at 1 and 8 threads, must be
// bit-identical to the Basic backend in outputs and per-start/aggregate
// costs.  Also asserts the sweep stats are tagged with the right
// plan/backend, that on batchable plans every start (repeats included) runs
// in exactly one batch, and that a budgeted/taped sweep (batched-ineligible)
// falls back to the basic path bit-identically.
CheckResult check_backend_case(const FuzzCase& c);

// Snapshot round-trip differential (io/snapshot.hpp): the case's instance
// written as a binary snapshot, mmap-loaded back, must carry bit-identical
// CSR/ID arrays and produce bit-identical outputs and costs on the same
// sweep — basic serial, 8-thread, and the family's planned backend — and the
// loaded instance's whole-graph output must pass the family's verifier.
// Two mutated generations of the loaded instance (whose ID table is adopted
// from the mapping: the first generation copies it, the second shares the
// copy) must equal the same generations of the in-RAM instance in CSR bytes,
// IDs, outputs and costs.
CheckResult check_snapshot_case(const FuzzCase& c);

// Dynamic-graph differential (graph/mutation.hpp + AnswerMemo::
// evict_region): draws a deterministic MutationBatch for the case's instance
// and asserts mutate-then-query equals rebuild-from-scratch-then-query — the
// CSR fast path and the Builder-based naive path produce byte-identical
// graphs, the mutated instance sweeps bit-identically to the naive rebuild on
// the Basic and Batched backends at 1 and 8 threads, and the pre-mutation
// instance is untouched (copy-on-write).  It
// also certifies the answer memo: with every node's answer memoized on the
// old graph, the batch's region eviction must account for every answer
// (evicted + retained == warm), evict each changed node's own answer, and
// keep only answers equal to a cold run on the mutated instance.
CheckResult check_mutation_case(const FuzzCase& c);

// The one predicate every fuzz case, replayed reproducer and corpus pin
// runs: check_case, then the backend, snapshot and mutation differentials,
// stopping at the first failure.
CheckResult check_all(const FuzzCase& c);

// Model <-> name, shared by the reproducer format and the driver's output.
const char* model_name(RandomnessModel m);
bool model_from_name(const std::string& name, RandomnessModel* out);

// One-line rendering for logs: "family=... variant=... n_target=..." etc.
std::string describe(const FuzzCase& c);

}  // namespace volcal::check
