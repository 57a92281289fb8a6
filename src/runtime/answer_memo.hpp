// AnswerMemo — one answer per node, served instead of recomputed.
//
// Every registry solver is deterministic, so what a query at node v returns
// — its output label and the cost meters of Definitions 2.1-2.2 (volume,
// distance, query count) — is a pure function of (instance, v).  The memo is
// a flat table of those answers indexed by node; a hit replays the stored
// label *and* the stored costs, so a memoized answer is bit-identical to a
// recomputed one, and repeated queries at one node are consistent by
// construction (the LCA model's cross-query consistency).
//
// Region eviction (evict_region).  A mutation batch changes the adjacency of
// a set of structurally touched nodes and the labels of a set of relabelled
// nodes.  An execution from v reads only nodes it has visited
// (require_visited), and every visited node w lies within true distance
// layer(w) <= distance(v) of v: explored layers never underestimate.  So if
// no touched or relabelled node lies within old-graph distance distance(v)
// of v, the execution on the new graph issues the same queries, gets the
// same answers and reads the same labels — the stored answer is still
// exact.  evict_region runs one multi-source BFS from those nodes on the
// old graph, bounded by the largest distance stored, and evicts exactly
// the answers at nodes v whose distance(v) reaches a source.
//
// Generations (the race rule).  Every change of what is served moves the
// memo to a new generation: evict_region for a mutation, reset() for a
// whole-target swap (which also drops every answer).  A reader takes the
// generation together with the target it serves and passes it to every
// call:
//   * lookup(v, g) accepts only an answer stored at a generation <= g —
//     never one stored for a newer target than the reader's (answers of a
//     swapped-out target are gone with the reset);
//   * store(v, g, a) is dropped unless g is still the current generation.
// The check and the write happen under the entry's stripe lock, and
// evict_region moves the generation and evicts with every stripe lock held,
// so a store racing an eviction either lands first (and is then evicted or
// certified like any other answer) or sees the new generation and is
// dropped.  An answer computed against an old target can therefore never
// become visible once evict_region or reset has returned.  An entry
// stamped s is exact for every generation from s up to the current one.
//
// Memory: 24 bytes per node, zero-filled when the table is sized, no
// per-entry allocation.  Values are stored as 32-bit fields; an answer
// whose meters do not fit is simply not memoized (recomputed every time).
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "runtime/sweep_stats.hpp"

namespace volcal {

// One start's answer: the output label and the three cost meters an
// execution from that start reports.
struct Answer {
  int label = 0;
  std::int64_t volume = 0;
  std::int64_t distance = 0;
  std::int64_t queries = 0;

  friend bool operator==(const Answer&, const Answer&) = default;
};

class AnswerMemo {
 public:
  using Generation = std::uint64_t;

  // An empty memo for a target of n nodes, at generation 1.
  explicit AnswerMemo(NodeIndex n = 0);

  AnswerMemo(const AnswerMemo&) = delete;
  AnswerMemo& operator=(const AnswerMemo&) = delete;

  // Drops every answer and sizes the table for a target of n nodes.
  // Returns the new generation: readers that took an older one neither read
  // nor store from now on.
  Generation reset(NodeIndex n);

  Generation generation() const;

  // The answer at v stored at a generation <= g; counts a hit or a miss.
  // Out-of-range nodes miss.
  std::optional<Answer> lookup(NodeIndex v, Generation g);

  // Stores the answer at v computed at generation g; dropped when the
  // generation has moved past g (or the answer does not fit an entry).
  void store(NodeIndex v, Generation g, const Answer& a);

  struct Eviction {
    std::size_t evicted = 0;
    std::size_t retained = 0;
  };

  // Moves to the next generation and evicts every answer at a node v with a
  // node of `touched` (structurally touched or relabelled, as indices of
  // `old_graph`, the graph the memo's answers were computed on) within
  // old-graph distance distance(v).  Returns the evicted and retained
  // counts.  A caller serving the mutated target publishes it in the same
  // critical section in which its readers take their generation, so no
  // reader pairs the new generation with the old target.
  Eviction evict_region(GraphView old_graph, std::span<const NodeIndex> touched);

  // hits / misses from lookup(), evictions from evict_region(),
  // served_nodes = volume replayed by hits, inserted_bytes = bytes stored.
  CacheStats stats() const;

  // Answers currently held.
  std::size_t size() const;

  static constexpr std::size_t kEntryBytes = 24;

 private:
  struct Entry {
    Generation stamp = 0;  // 0 = empty
    std::int32_t label = 0;
    std::uint32_t volume = 0;
    std::uint32_t distance = 0;
    std::uint32_t queries = 0;
  };
  static_assert(sizeof(Entry) == kEntryBytes);

  // Entry v is guarded by stripe v % kStripes, which also keeps its
  // counters.  The table itself is only re-sized with every stripe held.
  struct alignas(64) Stripe {
    std::mutex mu;
    std::size_t live = 0;
    std::uint32_t max_distance = 0;  // largest distance stored since reset
    std::int64_t hits = 0, misses = 0, evictions = 0, served_nodes = 0, stores = 0;
  };
  // reset and evict_region hold every stripe, and their serve-side callers
  // hold two service mutexes around them (QueryService's update and target
  // locks), so a thread holds kStripes + 2 locks at once.  ThreadSanitizer's
  // deadlock detector tracks at most 64 locks per thread and aborts past
  // that, so keep kStripes + 2 <= 64.
  static constexpr std::size_t kStripes = 32;
  static_assert(kStripes + 2 <= 64);

  Stripe& stripe_of(NodeIndex v) { return stripes_[static_cast<std::size_t>(v) % kStripes]; }

  mutable std::array<Stripe, kStripes> stripes_;
  std::vector<Entry> table_;
  Generation generation_ = 1;  // guarded by every stripe: written with all held
};

}  // namespace volcal
