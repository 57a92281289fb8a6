// ProbePlan — the probe-plan IR between "what a family's sweep probes" and
// "how the engine executes it" (the plan → backend split).
//
// A whole-graph sweep is one probe pattern repeated from n starts, and for
// most of the paper's families that pattern is known *statically*: the
// BallCensus solver is exactly explore_ball(v, r) for a fixed r, so the
// engine does not need to re-discover the access pattern query by query.
// Each registry family declares a ProbePlan at registration time; the
// ParallelRunner dispatches on it (run_planned) and may hand batchable plans
// to the wave-synchronous BatchedExecution backend
// (runtime/batched_execution.hpp), which advances all starts of a worker's
// chunk level-by-level together and walks each node's adjacency once per
// wave instead of once per start — probe-level common-subexpression
// elimination across executions.
//
// Plan kinds:
//   IndependentStarts — no statically known structure; every start runs its
//                       own BasicExecution (the classic engine path).  The
//                       default, and always a correct fallback.
//   BatchedBall{r}    — the sweep's execution from v is explore_ball(v, r)
//                       and the output is the ball size |N_v(r)|.  The
//                       batched backend may fuse a chunk of starts into one
//                       multi-start BFS; per-start costs and outputs stay
//                       bit-identical to BasicExecution (the exactness
//                       argument lives in DESIGN.md "Probe plans and
//                       backends").
//
// The plan alone picks the backend: every runner starts on
// ExecBackend::Batched, so batchable plans batch and the rest run per start.
// set_backend(ExecBackend::Basic) forces the per-start loop everywhere — the
// reference of the differentials and of bench_runner's ablation.
#pragma once

#include <cstdint>

namespace volcal {

enum class PlanKind { IndependentStarts, BatchedBall };

constexpr const char* plan_kind_name(PlanKind k) {
  return k == PlanKind::BatchedBall ? "batched-ball" : "independent-starts";
}

struct ProbePlan {
  PlanKind kind = PlanKind::IndependentStarts;
  // Ball radius for BatchedBall; unused (0) otherwise.
  std::int64_t radius = 0;

  static constexpr ProbePlan independent() { return {}; }
  static constexpr ProbePlan batched_ball(std::int64_t radius) {
    return {PlanKind::BatchedBall, radius};
  }

  // Whether the batched backend can execute this plan at all.  Eligibility
  // of a concrete sweep is narrower (no query budget, not recording); the
  // runner checks that at dispatch time.
  constexpr bool batchable() const {
    return kind == PlanKind::BatchedBall && radius >= 0;
  }

  constexpr const char* name() const { return plan_kind_name(kind); }

  friend constexpr bool operator==(const ProbePlan&, const ProbePlan&) = default;
};

// Which execution backend a runner uses for plan-dispatched sweeps
// (run_planned).  Basic = always per-start BasicExecution; Batched (every
// runner's default) = use the wave-synchronous multi-start backend whenever
// the plan and the sweep are eligible, per-start otherwise.  Plain run_at
// sweeps carry no plan and never batch.
enum class ExecBackend { Basic, Batched };

constexpr const char* backend_name(ExecBackend b) {
  return b == ExecBackend::Basic ? "basic" : "batched";
}

}  // namespace volcal
