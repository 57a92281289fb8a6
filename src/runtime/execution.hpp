// The query model of computing (paper Section 2.2) with exact cost
// accounting per Definitions 2.1 (distance cost) and 2.2 (volume cost).
//
// An Execution represents one run of an algorithm initiated at a node v.  The
// algorithm maintains a visited set V_v = {v}; each step queries
// query(w, j) for a previously visited w and a port j in [deg(w)], learning
// the neighbor's identity, degree, and entire input (which the algorithm
// reads through the instance labels after the node is visited).
//
// Cost accounting:
//   * volume() = |V_v| — exactly Def. 2.2;
//   * distance() = max over visited w of the node's BFS layer within the
//     *explored* subgraph.  On forests this equals the true graph distance
//     dist(v, w) of Def. 2.1 (paths are unique); on pseudo-forests it can
//     overestimate by at most the single cycle per component.  All instances
//     in this library are (pseudo-)forests plus lateral edges explored along
//     shortest routes, so bench numbers match Def. 2.1.  The discrepancy is
//     documented in DESIGN.md and pinned by the layer-tightening tests in
//     tests/runtime_test.cpp.
//
// Storage: visited/layer state lives in an ExecutionScratch — one flat array
// of 8-byte slots (epoch stamp + layer) sized to n.  Starting a new execution
// is O(1) (bump the epoch); whole-graph sweeps reuse one scratch per worker
// thread and therefore perform zero allocations per start node.  The historical
// std::unordered_map implementation is preserved verbatim as the test-only
// differential reference in runtime/reference_execution.hpp.
//
// Observability: BasicExecution is parameterized on a compile-time sink
// policy.  The default NullQuerySink declares `enabled = false`, and every
// sink call is guarded by `if constexpr (Sink::enabled)`, so the disabled
// path compiles to exactly the pre-observability code — no branch, no
// pointer, no argument evaluation.  The recording sink (obs/trace.hpp)
// captures per-query events for the trace exporters and the replay oracle.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "labels/ids.hpp"

namespace volcal {

struct QueryBudgetExceeded : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Reusable visited-set / BFS-layer bookkeeping for Execution.  One scratch
// serves any number of *consecutive* executions (each constructor call bumps
// the epoch, invalidating the previous execution's stamps in O(1)); it must
// not be shared by two live executions at once, nor by two threads.  The
// parallel sweep engine keeps one scratch per worker.
//
// Each node owns one 8-byte Slot, so a probe touches one cache line per node.
// A layer is < n and is stored as int32, which the graph layer's kMaxNodes
// (graph/graph_view.hpp) guarantees.
class ExecutionScratch {
 public:
  using Epoch = std::uint32_t;

  ExecutionScratch() = default;
  explicit ExecutionScratch(NodeIndex capacity) { reserve(capacity); }

  // Ensures capacity for graphs of up to n nodes (grow-only).  Throws
  // std::length_error, before allocating, if n > kMaxNodes.
  void reserve(NodeIndex n) {
    if (n > kMaxNodes) {
      throw std::length_error("ExecutionScratch: " + std::to_string(n) +
                              " nodes exceed the int32 layer range");
    }
    if (static_cast<NodeIndex>(slots_.size()) < n) slots_.resize(static_cast<std::size_t>(n));
  }

  NodeIndex capacity() const { return static_cast<NodeIndex>(slots_.size()); }

  // Test hook for the wrap-around guard below: places the epoch counter at
  // an arbitrary point so the regression test can drive it over the edge
  // without 2^32 executions.
  void set_epoch_for_testing(Epoch epoch) { epoch_ = epoch; }
  Epoch epoch_for_testing() const { return epoch_; }

 private:
  struct Slot {
    Epoch epoch = 0;         // execution that last visited the node
    std::int32_t layer = 0;  // BFS layer within that execution's explored subgraph
  };

  // Start a fresh execution on a graph of n nodes: O(1) apart from first-use
  // (or growth) allocation and the O(previous volume) order_.clear(), which
  // releases no memory.
  void begin(NodeIndex n) {
    reserve(n);
    order_.clear();
    if (epoch_ == std::numeric_limits<Epoch>::max()) {
      // Wrap-around guard: incrementing past the last epoch would land back
      // on values old stamps still hold, resurrecting nodes visited by
      // long-dead executions.  Once every 2^32 executions, re-zero the
      // stamps and restart the epoch stream.
      for (Slot& s : slots_) s.epoch = 0;
      epoch_ = 0;
    }
    ++epoch_;
  }

  Slot& slot(NodeIndex v) { return slots_[static_cast<std::size_t>(v)]; }
  const Slot& slot(NodeIndex v) const { return slots_[static_cast<std::size_t>(v)]; }
  bool stamped(NodeIndex v) const { return slot(v).epoch == epoch_; }

  std::vector<Slot> slots_;
  std::vector<NodeIndex> order_;  // visited nodes in discovery order
  Epoch epoch_ = 0;               // 0 = no execution has used a slot yet

  template <typename Sink>
  friend class BasicExecution;
};

// Disabled-observability sink: `enabled = false` compiles every hook call
// out of BasicExecution (the hooks below are never instantiated).  Custom
// sinks must provide the same member functions with `enabled = true`; see
// obs/trace.hpp for the recording sink.
struct NullQuerySink {
  static constexpr bool enabled = false;

  void on_begin(GraphView, const IdAssignment&, NodeIndex /*start*/) {}
  void on_query(GraphView, const IdAssignment&, NodeIndex /*w*/, Port /*j*/,
                NodeIndex /*u*/, bool /*fresh*/, std::int64_t /*layer*/,
                std::int64_t /*volume*/) {}
  void on_truncated(NodeIndex /*w*/, Port /*j*/) {}
  void on_end(std::int64_t /*volume*/, std::int64_t /*distance*/,
              std::int64_t /*queries*/) {}
};

template <typename Sink = NullQuerySink>
class BasicExecution {
 public:
  // Whether this execution records its queries (a trace must contain every
  // query, so recording sweeps never reuse answers across starts).
  static constexpr bool recording = Sink::enabled;

  // budget: hard cap on volume; exceeding it throws QueryBudgetExceeded
  // (used to truncate randomized algorithms per Remark 3.11 and to run
  // adversaries against budget-limited algorithms).  budget <= 0 = unlimited.
  //
  // The three-argument form owns a private scratch (one allocation); the
  // scratch-taking form borrows the caller's, making repeated executions
  // allocation-free.  Sinks are taken by value (recording sinks are thin
  // handles onto an externally owned trace buffer).
  BasicExecution(GraphView g, const IdAssignment& ids, NodeIndex start,
                 std::int64_t budget = 0, Sink sink = Sink{})
      : BasicExecution(g, ids, start, budget, nullptr, std::move(sink)) {}

  BasicExecution(GraphView g, const IdAssignment& ids, NodeIndex start,
                 std::int64_t budget, ExecutionScratch& scratch, Sink sink = Sink{})
      : BasicExecution(g, ids, start, budget, &scratch, std::move(sink)) {}

  ~BasicExecution() {
    if constexpr (Sink::enabled) {
      sink_.on_end(volume(), distance(), query_count());
    }
  }

  BasicExecution(const BasicExecution&) = delete;
  BasicExecution& operator=(const BasicExecution&) = delete;

  NodeIndex start() const { return start_; }
  GraphView graph() const { return g_; }

  bool visited(NodeIndex v) const { return g_.valid_node(v) && scratch_->stamped(v); }

  // Degree of a visited node is part of what its discovery revealed.
  int degree(NodeIndex v) const {
    require_visited(v);
    return g_.degree(v);
  }
  NodeId id(NodeIndex v) const {
    require_visited(v);
    return ids_->id_of(v);
  }

  // The query step.  Returns the discovered neighbor (which may already be
  // visited — re-discovery is free volume-wise).
  NodeIndex query(NodeIndex w, Port j) {
    require_visited(w);
    ++query_count_;
    const NodeIndex u = g_.neighbor_prevalidated(w, j);
    const std::int32_t candidate = scratch_->slot(w).layer + 1;
    ExecutionScratch::Slot& su = scratch_->slot(u);
    const bool fresh = su.epoch != scratch_->epoch_;
    if (fresh) {
      if (budget_ > 0 && volume() + 1 > budget_) {
        if constexpr (Sink::enabled) sink_.on_truncated(w, j);
        throw QueryBudgetExceeded("query budget exceeded at node " + std::to_string(w));
      }
      su = {scratch_->epoch_, candidate};
      scratch_->order_.push_back(u);
      max_layer_ = std::max<std::int64_t>(max_layer_, candidate);
    } else if (candidate < su.layer) {
      su.layer = candidate;  // tighter layer seen later; no propagation
    }
    if constexpr (Sink::enabled) {
      sink_.on_query(g_, *ids_, w, j, u, fresh, su.layer, volume());
    }
    return u;
  }

  // Guard for label reads: algorithms must only read inputs of visited nodes.
  void require_visited(NodeIndex v) const {
    if (!visited(v)) {
      throw std::logic_error("Execution: access to unvisited node " + std::to_string(v));
    }
  }

  std::int64_t volume() const { return static_cast<std::int64_t>(scratch_->order_.size()); }
  std::int64_t distance() const { return max_layer_; }
  std::int64_t query_count() const { return query_count_; }
  std::int64_t budget() const { return budget_; }

  // BFS layer of a visited node within the explored subgraph (what
  // distance() takes the max of).  Used by the trace replay oracle.
  std::int64_t layer_of(NodeIndex v) const {
    require_visited(v);
    return scratch_->slot(v).layer;
  }

  // Visited nodes in discovery order (the start node first).
  std::vector<NodeIndex> visited_nodes() const { return scratch_->order_; }

 private:
  BasicExecution(GraphView g, const IdAssignment& ids, NodeIndex start,
                 std::int64_t budget, ExecutionScratch* scratch, Sink sink)
      : g_(g),
        ids_(&ids),
        start_(start),
        budget_(budget),
        scratch_(scratch),
        sink_(std::move(sink)) {
    if (!g.valid_node(start)) throw std::out_of_range("Execution: bad start node");
    if (scratch_ == nullptr) {
      owned_ = std::make_unique<ExecutionScratch>(g.node_count());
      scratch_ = owned_.get();
    }
    scratch_->begin(g.node_count());
    scratch_->slot(start) = {scratch_->epoch_, 0};
    scratch_->order_.push_back(start);
    if constexpr (Sink::enabled) sink_.on_begin(g, ids, start);
  }

  GraphView g_;
  const IdAssignment* ids_;
  NodeIndex start_;
  std::int64_t budget_;
  std::unique_ptr<ExecutionScratch> owned_;
  ExecutionScratch* scratch_;
  std::int64_t max_layer_ = 0;
  std::int64_t query_count_ = 0;
  [[no_unique_address]] Sink sink_;
};

// The default, observability-free execution — the type every solver and test
// in the library is written against.  Identical layout and codegen to the
// pre-sink Execution: NullQuerySink is empty ([[no_unique_address]]) and all
// hook calls are compiled out.
using Execution = BasicExecution<NullQuerySink>;

// Convenience: explore the full ball N_v(r) through the query interface (the
// LOCAL-model simulation of Remark 2.3: a distance-T algorithm is one whose
// execution stays within N_v(T)).  Returns nodes in BFS order.
//
// Generic over the execution type so the test-only map-based reference runs
// the same exploration; freshness of a discovered node is detected through
// the volume meter, so no per-call visited set is allocated.
template <typename Exec>
std::vector<NodeIndex> explore_ball(Exec& exec, std::int64_t radius) {
  std::vector<NodeIndex> order{exec.start()};
  // Level windows [level_begin, level_end) track the current BFS depth, so no
  // per-node depth bookkeeping (or its allocations) is needed; the query
  // sequence is identical to per-node-depth BFS.
  std::size_t level_begin = 0, level_end = 1;
  for (std::int64_t d = 0; d < radius && level_begin < level_end; ++d) {
    for (std::size_t head = level_begin; head < level_end; ++head) {
      const NodeIndex v = order[head];
      const int deg = exec.degree(v);
      for (Port p = 1; p <= deg; ++p) {
        const std::int64_t before = exec.volume();
        const NodeIndex u = exec.query(v, p);
        if (exec.volume() > before) order.push_back(u);  // u was fresh
      }
    }
    level_begin = level_end;
    level_end = order.size();
  }
  return order;
}

}  // namespace volcal
