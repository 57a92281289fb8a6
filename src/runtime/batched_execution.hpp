// BatchedExecution — the wave-synchronous multi-start BFS backend behind
// ProbePlan::BatchedBall (plan/probe_plan.hpp).
//
// A whole-graph sweep of a ball(r) family runs the *same* level-window BFS
// from every start; nearby starts re-walk the same edges once per start.
// This backend fuses up to kMaxBatch starts into one expansion that advances
// all of them level-by-level together:
//
//   * one visited bitmask word per graph node (bit b = "visited by slot b"),
//     so the freshness state of 64 concurrent executions costs 8 bytes per
//     node — against 16 bytes *per node per start* of stamp+layer scratch on
//     the per-start path;
//   * per wave, pass 1 gathers the adjacency of every node in the *union* of
//     the slot frontiers exactly once into one contiguous buffer (the
//     probe-level common-subexpression elimination: each edge is read from
//     the CSR once per wave, however many slots' frontiers contain its
//     endpoint), and pass 2 expands each slot against that hot buffer with a
//     branch-light test-and-set inner loop.
//
// Exactness (the argument is spelled out in DESIGN.md "Probe plans and
// backends"): pass 2 iterates each slot's level-d window in that slot's own
// discovery order and scans ports in ascending order, so every slot produces
// the *canonical* BFS expansion — bit-identical discovery order, level
// windows and per-level query counts to explore_ball on a BasicExecution —
// and its volume / distance / query meters are exactly what that execution
// reports.  Exhaustion matches explore_ball: an empty frontier before the
// target radius ends the slot's expansion without a further level.
//
// One executor per worker thread; run() reuses all capacity across batches
// (zero steady-state allocations).  Not thread-safe — the parallel engine
// gives each worker its own instance, as it does with ExecutionScratch.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "runtime/answer_memo.hpp"

namespace volcal {

class BatchedBallExecutor {
 public:
  // One visited-mask word = one batch; 64 starts per wave-synchronous run.
  static constexpr int kMaxBatch = 64;

  BatchedBallExecutor() = default;
  BatchedBallExecutor(const BatchedBallExecutor&) = delete;
  BatchedBallExecutor& operator=(const BatchedBallExecutor&) = delete;

  // Sizes the per-node arrays for `g` and pins the executor to it.
  void bind(GraphView g);

  // Expands N_center(radius) for every center simultaneously (1 <= size <=
  // kMaxBatch; duplicate centers are fine — slots are independent).  Requires
  // bind() first.  Results are valid until the next run()/bind().
  void run(std::span<const NodeIndex> centers, std::int64_t radius);

  // Per-slot cost meters, exactly what a BasicExecution running
  // explore_ball(center, radius) would report.
  std::int64_t volume(int slot) const {
    return static_cast<std::int64_t>(slots_[static_cast<std::size_t>(slot)].order.size());
  }
  std::int64_t distance(int slot) const {
    return slots_[static_cast<std::size_t>(slot)].distance;
  }
  std::int64_t queries(int slot) const {
    return slots_[static_cast<std::size_t>(slot)].queries;
  }

  // The slot's answer under the batched-ball plan's contract: the output
  // label is the ball size, and the meters above.
  Answer answer(int slot) const {
    return {static_cast<int>(volume(slot)), volume(slot), distance(slot), queries(slot)};
  }

  // Telemetry for BatchStats: waves executed and union-frontier nodes
  // gathered by the last run().
  std::int64_t waves() const { return waves_; }
  std::int64_t expanded_nodes() const { return expanded_nodes_; }

 private:
  GraphView g_{};
  bool bound_ = false;
  std::int64_t waves_ = 0;
  std::int64_t expanded_nodes_ = 0;

  // Per-node state.  visited_mask_ is reset per run via touched_ (O(union
  // ball volume), not O(n)); the gather index is reset per wave via stamps.
  std::vector<std::uint64_t> visited_mask_;
  std::vector<NodeIndex> touched_;
  std::vector<std::uint64_t> gather_stamp_;
  std::vector<std::uint32_t> gather_pos_;
  std::uint64_t stamp_ = 0;

  // This wave's union frontier: gathered adjacency of wave_nodes_[i] is
  // wave_adj_[wave_off_[i] .. wave_off_[i + 1]).
  std::vector<NodeIndex> wave_nodes_;
  std::vector<std::size_t> wave_off_;
  std::vector<NodeIndex> wave_adj_;

  // One start's expansion: the ball in discovery order, the end of each
  // level's window in `order`, and the running meters.
  struct Slot {
    std::vector<NodeIndex> order;
    std::vector<std::size_t> level_end;
    std::int64_t distance = 0;
    std::int64_t queries = 0;
  };
  std::vector<Slot> slots_;
};

}  // namespace volcal
