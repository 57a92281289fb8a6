// Invariant checking for the query model — the predicate the differential
// fuzzer (check/fuzz.hpp) minimizes against.
//
// A FuzzCase names one randomized scenario: a registry family + shape
// variant + instance seed, a randomness model + tape seed, a query budget,
// a start-set size and a mutation batch.  check_all() builds the case once
// and runs every check on it; each failure comes back as one pinpointed
// line.  The checks include the ones that caught the bugs this harness was
// built around (RandomTape word/bit stream aliasing, sampled_starts
// count == 1): re-introducing either makes check_all fail.
#pragma once

#include <cstdint>
#include <string>

#include "graph/graph.hpp"
#include "runtime/randomness.hpp"

namespace volcal::check {

// One reproducible scenario.  Everything check_all does is a pure function
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
  // The seed and size of the MutationBatch propose_mutation draws for the
  // snapshot and mutation checks.
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

// The one predicate every fuzz case, replayed reproducer and corpus pin
// runs.  It looks the family up, refuses an out-of-range variant or a
// negative mutation size, builds the instance and the start set once (every
// node when start_count == 0, else sampled_starts), and then asserts,
// stopping at the first failure:
//
//   * engines — the flat epoch-stamped Execution (serial and 8 threads),
//     the traced BasicExecution<RecordingSink> and the historical map-based
//     ReferenceMapExecution, fed the recorded probe sequence, agree bit for
//     bit on output, volume, distance, query count and truncation point;
//     per start, distance + 1 <= volume <= queries + 1, the traced running
//     volume is monotone and truncation happens exactly at the budget;
//     every trace survives obs::replay_sweep; with no budget and every node
//     a start, the output passes the family's own verifier; RandomTape
//     words are windows of the bit stream, its accounting matches
//     consumption, ScopedUsage merging equals serial accounting and the
//     three models keep their access disciplines; sampled_starts (at counts
//     1, 2, n, 2n and the case's own) and obs::Histogram (exact
//     count/sum/min/max, nearest-rank p50/p95/p99 within 1/32) agree with
//     independent recomputation;
//   * backends — the family's probe plan on the Batched backend, over the
//     starts each repeated once, at 1 and 8 threads, equals the Basic
//     backend in outputs and per-start/aggregate costs and carries the
//     right plan/backend tags (on batchable plans every start, repeats
//     included, runs in exactly one batch); with a tape attached (and the
//     case's budget) the sweep falls back to the basic path bit-identically;
//   * snapshot — the instance saved and mmap-loaded back has bit-identical
//     CSR and IDs and sweeps bit-identically (serial, 8 threads, planned
//     backend); with no budget its whole-graph output passes the verifier;
//     two mutated generations of the loaded instance (the first copies the
//     adopted ID table, the second shares the copy) equal those of the
//     in-RAM instance in CSR bytes, IDs, outputs and costs;
//   * mutation — the case's MutationBatch applied by the CSR splice and by
//     the Builder rebuild gives byte-identical graphs in fresh storage, a
//     sorted in-range touched set holding every rewire endpoint, unchanged
//     IDs and bit-identical sweeps (basic serial, planned at 1 and 8
//     threads), and leaves the old instance's CSR untouched; with every
//     answer memoized on the old graph, AnswerMemo::evict_region accounts
//     for every answer, evicts each changed node's own and keeps only
//     answers equal to a cold run on the mutated instance.
//
// Throws nothing: a malformed case comes back as a failure.
CheckResult check_all(const FuzzCase& c);

// Model <-> name, shared by the reproducer format and the driver's output.
const char* model_name(RandomnessModel m);
bool model_from_name(const std::string& name, RandomnessModel* out);

// One-line rendering for logs: "family=... variant=... n_target=..." etc.
std::string describe(const FuzzCase& c);

}  // namespace volcal::check
