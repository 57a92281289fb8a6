// SweepStats — the one cost-aggregate for whole-graph (or sampled) sweeps.
//
// Historically the runner's result carried four loose scalars and the bench
// layer kept its own `bench::Cost` copy of the same fields; both were folded
// into this struct in PR 5 (the deprecated aliases have since been removed).
// The sup fields are the paper's Definitions 2.1-2.2 evaluated over the
// swept start set:
//
//   max_volume   = VOL_n(A)  restricted to the starts,
//   max_distance = DIST_n(A) restricted to the starts.
//
// Every field except wall_seconds is bit-identical at any thread count (see
// parallel_runner.hpp for the determinism argument); wall_seconds is the
// engine's own measurement of the sweep.
#pragma once

#include <cstdint>

#include "plan/probe_plan.hpp"

namespace volcal {

// Answer-reuse policy.
//   Off    — every start executes (default);
//   Shared — a sweep executes each distinct start once and copies its
//            per-start slots to the start's repeats (exact: an execution is
//            a pure function of instance, start, budget and tape); the query
//            service serves repeated nodes from its AnswerMemo
//            (runtime/answer_memo.hpp).
// The policy never changes any deterministic output: outputs and the cost
// meters (volume / distance / query count, Defs. 2.1-2.2) are identical.
enum class CachePolicy { Off, Shared };

constexpr const char* cache_policy_name(CachePolicy p) {
  return p == CachePolicy::Shared ? "shared" : "off";
}

// The policy knob of a runner or service.  The environment form is what the
// bench flag `--cache <off|shared>` exports: VOLCAL_CACHE = off | shared
// (default off).
struct CacheConfig {
  CachePolicy policy = CachePolicy::Off;

  static CacheConfig from_env();
  static bool policy_from_name(const char* name, CachePolicy* out);
};

// Answer-reuse counters.  All of these describe how the work was performed,
// not what it computed, and are excluded from same_costs below.
//   sweeps: hits = repeated starts copied, misses = distinct starts run,
//           served_nodes = volume copied;
//   memo:   hits / misses of lookups, evictions by region eviction,
//           served_nodes = volume replayed, inserted_bytes = bytes stored.
struct CacheStats {
  CachePolicy policy = CachePolicy::Off;
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t evictions = 0;
  std::int64_t served_nodes = 0;
  std::int64_t inserted_bytes = 0;

  CacheStats& operator+=(const CacheStats& o) {
    if (o.policy != CachePolicy::Off) policy = o.policy;
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    served_nodes += o.served_nodes;
    inserted_bytes += o.inserted_bytes;
    return *this;
  }
};

// Batched-backend counters for one sweep (runtime/batched_execution.hpp).
// Like CacheStats these describe how the work was performed, not what it
// computed: batch composition follows the engine's chunking, which depends on
// the thread count, so every field here is excluded from same_costs.
struct BatchStats {
  std::int64_t batches = 0;         // multi-start BFS batches executed
  std::int64_t batched_starts = 0;  // starts that ran inside a batch
  std::int64_t waves = 0;           // BFS waves summed over batches
  std::int64_t expanded_nodes = 0;  // union-frontier nodes gathered (the CSE:
                                    // each counts one adjacency walk serving
                                    // every start of its batch)

  BatchStats& operator+=(const BatchStats& o) {
    batches += o.batches;
    batched_starts += o.batched_starts;
    waves += o.waves;
    expanded_nodes += o.expanded_nodes;
    return *this;
  }
};

struct SweepStats {
  std::int64_t starts = 0;         // executions performed
  std::int64_t max_volume = 0;     // sup volume cost (Def. 2.2)
  std::int64_t max_distance = 0;   // sup distance cost (Def. 2.1)
  std::int64_t total_queries = 0;  // query() calls summed over starts
  std::int64_t total_volume = 0;   // visited nodes summed over starts
  // Executions that blew the query budget (output = solver fallback or
  // default Label, per Remark 3.11).
  std::int64_t truncated = 0;
  double wall_seconds = 0.0;
  // Answer-reuse counters for the sweep (zeros under CachePolicy::Off).
  // Like wall_seconds these describe how the work was performed, not what
  // it computed, and are excluded from same_costs.
  CacheStats cache;
  // How the sweep was executed (filled by ParallelRunner::run_planned; plain
  // run_at sweeps keep the defaults).  Tags and counters, not costs — all
  // excluded from same_costs: the whole point of the plan layer is that the
  // backend choice never changes a deterministic output.
  PlanKind plan = PlanKind::IndependentStarts;
  ExecBackend backend = ExecBackend::Basic;
  BatchStats batch;

  // Deterministic fields only — the comparison the engine-equivalence tests
  // and benches use (wall_seconds and the cache counters are intentionally
  // excluded).
  friend bool same_costs(const SweepStats& a, const SweepStats& b) {
    return a.starts == b.starts && a.max_volume == b.max_volume &&
           a.max_distance == b.max_distance && a.total_queries == b.total_queries &&
           a.total_volume == b.total_volume && a.truncated == b.truncated;
  }
};

}  // namespace volcal
