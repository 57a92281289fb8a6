// BallCensus(r) — report |N_v(r)|, the size of the radius-r ball (§2.2).
//
// Not one of the paper's separation families: its role in the registry is to
// pin the query model itself.  The solver is a bare explore_ball(exec, r), so
// its volume cost IS its output and its verifier recomputes the ball offline
// (graph/bfs.hpp ball(), a BFS whose visited set is sized to the ball, so a
// whole-graph verify is linear in n) with no execution in the loop — any
// disagreement means the metered exploration visited the wrong node set.
// It is also the family whose whole-graph sweeps re-explore maximally
// overlapping views, which makes it the one batchable plan (the batched
// backend) and the cheap-answer serving workload.
//
// Checkability radius is r: |N_v(r)| is a function of the radius-r ball.
#pragma once

#include <vector>

#include "graph/bfs.hpp"
#include "labels/instances.hpp"
#include "labels/tree_labeling.hpp"
#include "lcl/lcl.hpp"

namespace volcal {

class BallCensusProblem {
 public:
  using InstanceType = LeafColoringInstance;
  using Output = std::vector<int>;

  explicit BallCensusProblem(int radius) : radius_(radius) {}

  int radius() const { return radius_; }

  bool valid_at(const InstanceType& inst, const Output& out, NodeIndex v) const {
    return out[static_cast<std::size_t>(v)] ==
           static_cast<int>(ball(inst.graph, v, radius_).size());
  }

 private:
  int radius_;
};

}  // namespace volcal
