// volcal/runtime.hpp — the public execution surface.
//
// One include for everything needed to run a volume/distance-metered local
// algorithm: graphs and id assignments, the query-metered Execution (paper
// §2.2, Definitions 2.1-2.2), the parallel sweep engine with its
// SweepResult/SweepStats aggregates, the probe-plan IR with the batched
// multi-start backend, the per-node answer memo, and the shared randomness
// tape.  The fine-grained runtime/... headers remain valid
// includes but are considered internal layout; new code should include the
// volcal/ umbrella headers (see DESIGN.md "API surface and deprecations").
#pragma once

#include "graph/bfs.hpp"
#include "graph/graph.hpp"
#include "graph/mutation.hpp"
#include "labels/ids.hpp"
#include "plan/probe_plan.hpp"
#include "runtime/answer_memo.hpp"
#include "runtime/batched_execution.hpp"
#include "runtime/execution.hpp"
#include "runtime/parallel_runner.hpp"
#include "runtime/randomness.hpp"
#include "runtime/success.hpp"
#include "runtime/sweep_stats.hpp"
