// Parallel, allocation-free whole-graph sweep engine.
//
// A "solver" is a callable Label(Execution&) producing the initiating node's
// output; the engine executes it once per start node (each with a fresh
// Execution, as the model is stateless across nodes) and aggregates the costs
// of Definitions 2.1-2.2 into a SweepStats (runtime/sweep_stats.hpp):
//
//   DIST_n(A) = sup over start nodes of the distance cost,
//   VOL_n(A)  = sup over start nodes of the volume cost.
//
// Parallelism: a small worker pool (std::thread) pulls chunks of start nodes
// off an atomic counter.  Each worker owns one ExecutionScratch (reused
// across its executions — zero allocations per start node) and, when a
// RandomTape is supplied, one RandomTape::ScopedUsage ledger (lock-free bit
// accounting, merged when the worker finishes).
//
// Determinism: SweepResult is bit-identical regardless of thread count or
// scheduling, because
//   * each execution is a pure function of (instance, start, budget, tape)
//     — workers share nothing hot;
//   * per-start outputs/volumes/distances are written to disjoint
//     preassigned slots;
//   * sup-costs are reduced by a serial scan of those slots, and
//     truncated/total_queries/total_volume are sums of per-slot integers —
//     both order-independent;
//   * tape bit accounting merges by pointwise max — also order-independent.
// tests/parallel_runner_test.cpp asserts this at 1, 2 and 8 threads for
// every problem family.  (SweepStats::wall_seconds and the optional
// SweepProfile are wall-clock measurements and are the only non-deterministic
// outputs.)
//
// Observability: run_at_observed() is the engine core, parameterized on an
// execution factory so the obs layer can run the identical sweep loop with
// BasicExecution<RecordingSink> (see obs/trace.hpp: run_at_traced).  An
// optional SweepProfile collects per-start wall times and worker assignment
// for the Chrome-trace exporter and SweepMetrics; attaching one does not
// change any deterministic output.
//
// Plan dispatch: run_planned() takes a ProbePlan (plan/probe_plan.hpp) and
// routes batchable plans to the wave-synchronous BatchedBallExecutor
// (runtime/batched_execution.hpp) when the runner's backend allows it — same
// outputs and per-start costs, bit for bit, amortized graph traversal.  Every
// other combination falls back to the per-start loop below.
//
// Answer reuse: a sweep executes every start, repeats included.  Reusing
// answers is the query service's job (runtime/answer_memo.hpp), where the
// traffic actually repeats; whole-graph and sampled sweeps never do.
//
// Thread count: explicit constructor argument, else the VOLCAL_THREADS
// environment variable, else 1 (determinism-by-default; parallelism is an
// explicit opt-in).  Solvers run concurrently and so must be safe to invoke
// from multiple threads — true for every solver in this library, which
// construct their per-run state inside the call.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "plan/probe_plan.hpp"
#include "runtime/batched_execution.hpp"
#include "runtime/execution.hpp"
#include "runtime/randomness.hpp"
#include "runtime/sweep_stats.hpp"

namespace volcal {

template <typename Label>
struct SweepResult {
  std::vector<Label> output;
  std::vector<std::int64_t> volume;    // per start node
  std::vector<std::int64_t> distance;  // per start node
  std::vector<std::int64_t> queries;   // per start node
  SweepStats stats;                    // sup-costs + totals over the sweep
};

// Per-start wall-clock timing and worker assignment, filled by the engine
// when attached to a sweep.  Feeds the Chrome trace_event exporter and the
// per-worker breakdown in SweepMetrics; inherently non-deterministic (it is
// time), so it lives outside SweepResult.
//
// Batched sweeps amortize one batch's wall time uniformly over its starts
// (per-start times inside a fused BFS are not separable) and additionally
// fill the per-worker batch columns, from which batch occupancy — starts per
// wave — is derived (worker_batched_starts[w] / worker_waves[w]).
struct SweepProfile {
  std::vector<std::int64_t> begin_ns;  // per start, since sweep begin
  std::vector<std::int64_t> duration_ns;
  std::vector<int> worker;  // executing worker index

  // Per-worker batched-backend columns (empty for per-start sweeps).
  std::vector<std::int64_t> worker_batches;
  std::vector<std::int64_t> worker_batched_starts;
  std::vector<std::int64_t> worker_waves;

  void reset(std::size_t count) {
    begin_ns.assign(count, 0);
    duration_ns.assign(count, 0);
    worker.assign(count, 0);
    worker_batches.clear();
    worker_batched_starts.clear();
    worker_waves.clear();
  }
};

namespace detail {

// Implemented in parallel_runner.cpp (the non-template engine core).
int resolve_thread_count(int requested);
std::int64_t sweep_chunk(std::int64_t items, int workers);
// Runs body(0..workers-1), body(0) on the calling thread; joins all workers
// and rethrows the first captured exception (lowest worker index).
void run_on_workers(int workers, const std::function<void(int)>& body);

// The serial scan of the per-start slots into the sweep's sup-costs and
// totals (Defs. 2.1-2.2 over the swept starts).
inline void reduce_costs(const std::vector<std::int64_t>& volume,
                         const std::vector<std::int64_t>& distance,
                         const std::vector<std::int64_t>& queries, SweepStats& stats) {
  for (std::size_t i = 0; i < volume.size(); ++i) {
    stats.max_volume = std::max(stats.max_volume, volume[i]);
    stats.max_distance = std::max(stats.max_distance, distance[i]);
    stats.total_volume += volume[i];
    stats.total_queries += queries[i];
  }
}

}  // namespace detail

class ParallelRunner {
 public:
  // threads == 0: use VOLCAL_THREADS if set, else 1.
  explicit ParallelRunner(int threads = 0)
      : threads_(detail::resolve_thread_count(threads)) {}

  // Source compatibility for volbench, which builds its prepare-sweep runner
  // as ParallelRunner(1, CacheConfig{}).  Sweeps have no answer reuse, so any
  // policy but Off is refused.  Drop this with the next benchmark change.
  ParallelRunner(int threads, CacheConfig cache) : ParallelRunner(threads) {
    if (cache.policy != CachePolicy::Off) {
      throw std::invalid_argument("ParallelRunner: sweeps take no answer-reuse policy");
    }
  }

  int threads() const { return threads_; }

  // Execution backend for plan-dispatched sweeps (run_planned).  Batched
  // unless set: the batched backend is bit-identical by contract, so the plan
  // decides what batches.  Plain run_at sweeps carry no plan and never batch.
  void set_backend(ExecBackend backend) { backend_ = backend; }
  ExecBackend backend() const { return backend_; }

  // The engine core.  `make_exec(i, scratch)` builds the execution for start
  // slot i on the worker's scratch; the default factory (run_at below) makes
  // plain Executions, the obs layer substitutes recording ones.
  // `node_capacity` sizes the per-worker scratches (the graph's node count).
  // `tape` is optional and only used for worker-local bit-usage accounting
  // (values are read through the solver as usual).
  template <typename Solver, typename MakeExec>
  auto run_at_observed(NodeIndex node_capacity, std::span<const NodeIndex> starts,
                       Solver&& solver, RandomTape* tape, SweepProfile* profile,
                       MakeExec&& make_exec) const {
    using Exec = std::invoke_result_t<MakeExec&, std::int64_t, ExecutionScratch&>;
    using Label = std::decay_t<std::invoke_result_t<Solver&, Exec&>>;
    const auto sweep_begin = std::chrono::steady_clock::now();
    SweepResult<Label> result;
    const std::int64_t count = static_cast<std::int64_t>(starts.size());
    result.volume.resize(static_cast<std::size_t>(count));
    result.distance.resize(static_cast<std::size_t>(count));
    result.queries.resize(static_cast<std::size_t>(count));
    if (profile != nullptr) profile->reset(static_cast<std::size_t>(count));

    // std::vector<bool> packs bits — concurrent writes to neighboring slots
    // would race.  Buffer bool outputs per-byte and convert at the end.
    using OutputSlot = std::conditional_t<std::is_same_v<Label, bool>, std::uint8_t, Label>;
    std::vector<OutputSlot> output(static_cast<std::size_t>(count));

    const int workers =
        static_cast<int>(std::min<std::int64_t>(threads_, std::max<std::int64_t>(count, 1)));
    const std::int64_t chunk = detail::sweep_chunk(count, workers);
    std::atomic<std::int64_t> next{0};
    // Per-slot truncation flags (disjoint writes), summed into the stats.
    std::vector<std::uint8_t> truncated(static_cast<std::size_t>(count), 0);

    detail::run_on_workers(workers, [&](const int worker) {
      ExecutionScratch scratch(node_capacity);
      std::optional<RandomTape::ScopedUsage> usage;
      if (tape != nullptr) usage.emplace(*tape);
      for (std::int64_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
           begin < count; begin = next.fetch_add(chunk, std::memory_order_relaxed)) {
        const std::int64_t end = std::min(count, begin + chunk);
        for (std::int64_t i = begin; i < end; ++i) {
          const auto slot = static_cast<std::size_t>(i);
          const auto exec_begin = profile ? std::chrono::steady_clock::now() : sweep_begin;
          {
            Exec exec = make_exec(i, scratch);
            try {
              output[slot] = static_cast<OutputSlot>(solver(exec));
            } catch (const QueryBudgetExceeded&) {
              truncated[slot] = 1;
              // Arbitrary output per Remark 3.11.
              output[slot] = static_cast<OutputSlot>(Label{});
            }
            result.volume[slot] = exec.volume();
            result.distance[slot] = exec.distance();
            result.queries[slot] = exec.query_count();
          }  // exec destroyed here so recording sinks flush before profiling stamps
          if (profile != nullptr) {
            const auto exec_end = std::chrono::steady_clock::now();
            profile->begin_ns[slot] =
                std::chrono::duration_cast<std::chrono::nanoseconds>(exec_begin - sweep_begin)
                    .count();
            profile->duration_ns[slot] =
                std::chrono::duration_cast<std::chrono::nanoseconds>(exec_end - exec_begin)
                    .count();
            profile->worker[slot] = worker;
          }
        }
      }
    });

    result.stats.starts = count;
    for (const std::uint8_t t : truncated) result.stats.truncated += t;
    if constexpr (std::is_same_v<Label, bool>) {
      result.output.assign(output.begin(), output.end());
    } else {
      result.output = std::move(output);
    }
    detail::reduce_costs(result.volume, result.distance, result.queries, result.stats);
    result.stats.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - sweep_begin).count();
    return result;
  }

  // Sweep an explicit start list; result vectors are indexed by position in
  // `starts`.
  template <typename Solver>
  auto run_at(GraphView g, const IdAssignment& ids, std::span<const NodeIndex> starts,
              Solver&& solver, std::int64_t budget = 0, RandomTape* tape = nullptr,
              SweepProfile* profile = nullptr) const {
    return run_at_observed(g.node_count(), starts, std::forward<Solver>(solver), tape,
                           profile,
                           [g, &ids, starts, budget](std::int64_t i, ExecutionScratch& s) {
                             return Execution(g, ids, starts[static_cast<std::size_t>(i)],
                                              budget, s);
                           });
  }

  // Sweep every node of the graph; result vectors are indexed by NodeIndex.
  template <typename Solver>
  auto run_at_all_nodes(GraphView g, const IdAssignment& ids, Solver&& solver,
                        std::int64_t budget = 0, RandomTape* tape = nullptr,
                        SweepProfile* profile = nullptr) const {
    const NodeIndex n = g.node_count();
    std::vector<NodeIndex> starts(static_cast<std::size_t>(n));
    for (NodeIndex v = 0; v < n; ++v) starts[static_cast<std::size_t>(v)] = v;
    return run_at(g, ids, starts, std::forward<Solver>(solver), budget, tape, profile);
  }

  // Plan-dispatched sweep.  Batchable plans run on the wave-synchronous
  // backend when the runner's backend is Batched and the sweep is eligible:
  // no query budget (the truncating query must fire at the identical point,
  // so budgeted runs stay per-start), no random tape (a batchable plan's
  // solver is deterministic by promise), and an integral output (the plan's
  // contract is output == ball size).  Everything else takes the per-start
  // loop with the plan recorded in the stats.
  template <typename Solver>
  auto run_planned(GraphView g, const IdAssignment& ids,
                   std::span<const NodeIndex> starts, const ProbePlan& plan,
                   Solver&& solver, std::int64_t budget = 0, RandomTape* tape = nullptr,
                   SweepProfile* profile = nullptr) const {
    using Label = std::decay_t<std::invoke_result_t<Solver&, Execution&>>;
    if constexpr (std::is_integral_v<Label> && !std::is_same_v<Label, bool>) {
      if (backend_ == ExecBackend::Batched && plan.batchable() && budget == 0 &&
          tape == nullptr) {
        return run_batched_balls<Label>(g, starts, plan, profile);
      }
    }
    auto result =
        run_at(g, ids, starts, std::forward<Solver>(solver), budget, tape, profile);
    result.stats.plan = plan.kind;
    return result;
  }

 private:
  // The batched engine loop: workers pull 64-start batches of *consecutive*
  // starts (neighboring balls overlap most) off the atomic counter, fuse each
  // batch into one BatchedBallExecutor run, and write per-start meters to
  // disjoint slots.
  // Structure mirrors run_at_observed; the reduction is the same serial scan.
  template <typename Label>
  SweepResult<Label> run_batched_balls(GraphView g, std::span<const NodeIndex> starts,
                                       const ProbePlan& plan,
                                       SweepProfile* profile) const {
    const auto sweep_begin = std::chrono::steady_clock::now();
    SweepResult<Label> result;
    const std::int64_t count = static_cast<std::int64_t>(starts.size());
    result.output.resize(static_cast<std::size_t>(count));
    result.volume.resize(static_cast<std::size_t>(count));
    result.distance.resize(static_cast<std::size_t>(count));
    result.queries.resize(static_cast<std::size_t>(count));
    if (profile != nullptr) profile->reset(static_cast<std::size_t>(count));

    const int workers =
        static_cast<int>(std::min<std::int64_t>(threads_, std::max<std::int64_t>(count, 1)));
    constexpr std::int64_t kBatch = BatchedBallExecutor::kMaxBatch;
    std::atomic<std::int64_t> next{0};
    std::vector<BatchStats> worker_batch(static_cast<std::size_t>(workers));

    detail::run_on_workers(workers, [&](const int worker) {
      BatchedBallExecutor exec;
      exec.bind(g);
      BatchStats local;
      for (std::int64_t begin = next.fetch_add(kBatch, std::memory_order_relaxed);
           begin < count; begin = next.fetch_add(kBatch, std::memory_order_relaxed)) {
        const std::int64_t end = std::min(count, begin + kBatch);
        const auto batch_begin = profile ? std::chrono::steady_clock::now() : sweep_begin;
        exec.run(starts.subspan(static_cast<std::size_t>(begin),
                                static_cast<std::size_t>(end - begin)),
                 plan.radius);
        for (std::int64_t i = begin; i < end; ++i) {
          const auto slot = static_cast<std::size_t>(i);
          const Answer a = exec.answer(static_cast<int>(i - begin));
          result.output[slot] = static_cast<Label>(a.label);
          result.volume[slot] = a.volume;
          result.distance[slot] = a.distance;
          result.queries[slot] = a.queries;
        }
        ++local.batches;
        local.batched_starts += end - begin;
        local.waves += exec.waves();
        local.expanded_nodes += exec.expanded_nodes();
        if (profile != nullptr) {
          const auto batch_end = std::chrono::steady_clock::now();
          const std::int64_t begin_ns =
              std::chrono::duration_cast<std::chrono::nanoseconds>(batch_begin - sweep_begin)
                  .count();
          const std::int64_t per_start_ns =
              std::chrono::duration_cast<std::chrono::nanoseconds>(batch_end - batch_begin)
                  .count() /
              std::max<std::int64_t>(end - begin, 1);
          for (std::int64_t i = begin; i < end; ++i) {
            profile->begin_ns[static_cast<std::size_t>(i)] = begin_ns;
            profile->duration_ns[static_cast<std::size_t>(i)] = per_start_ns;
            profile->worker[static_cast<std::size_t>(i)] = worker;
          }
        }
      }
      worker_batch[static_cast<std::size_t>(worker)] = local;
    });

    result.stats.starts = count;
    detail::reduce_costs(result.volume, result.distance, result.queries, result.stats);
    result.stats.plan = plan.kind;
    result.stats.backend = ExecBackend::Batched;
    for (int w = 0; w < workers; ++w) {
      result.stats.batch += worker_batch[static_cast<std::size_t>(w)];
    }
    if (profile != nullptr) {
      profile->worker_batches.resize(static_cast<std::size_t>(workers));
      profile->worker_batched_starts.resize(static_cast<std::size_t>(workers));
      profile->worker_waves.resize(static_cast<std::size_t>(workers));
      for (int w = 0; w < workers; ++w) {
        const BatchStats& wb = worker_batch[static_cast<std::size_t>(w)];
        profile->worker_batches[static_cast<std::size_t>(w)] = wb.batches;
        profile->worker_batched_starts[static_cast<std::size_t>(w)] = wb.batched_starts;
        profile->worker_waves[static_cast<std::size_t>(w)] = wb.waves;
      }
    }
    result.stats.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - sweep_begin).count();
    return result;
  }

  int threads_;
  ExecBackend backend_ = ExecBackend::Batched;
};

// Whole-graph convenience wrapper over the sweep engine: serial (and
// allocation-free — one scratch reused across all starts) by default,
// parallel when VOLCAL_THREADS is set.  `tape` is optional: pass the
// solver's RandomTape to route its bit-usage accounting through
// worker-local ledgers (lock-free in parallel sweeps).
template <typename Solver>
auto run_at_all_nodes(GraphView g, const IdAssignment& ids, Solver&& solver,
                      std::int64_t budget = 0, RandomTape* tape = nullptr) {
  return ParallelRunner().run_at_all_nodes(g, ids, std::forward<Solver>(solver), budget,
                                           tape);
}

// Lemma 2.5 sanity check on a completed run:
// DIST <= VOL and VOL <= Δ^DIST + 1 (the latter evaluated with overflow
// guard).  Returns true iff both inequalities hold for every node.
template <typename Label>
bool satisfies_lemma_2_5(GraphView g, const SweepResult<Label>& r) {
  const double delta = std::max(2, g.max_degree());
  for (std::size_t i = 0; i < r.volume.size(); ++i) {
    // DIST <= VOL: a connected visited set of m nodes spans distance <= m.
    if (r.distance[i] > r.volume[i]) return false;
    // VOL <= Δ^DIST + 1 (paper's ball bound); guard the power vs. overflow —
    // when Δ^DIST would exceed 2^62 the inequality is vacuously true.
    const double bound_log = static_cast<double>(r.distance[i]) * std::log2(delta);
    if (bound_log < 62.0) {
      const auto bound =
          static_cast<std::int64_t>(std::pow(delta, static_cast<double>(r.distance[i]))) + 1;
      if (r.volume[i] > bound) return false;
    }
  }
  return true;
}

}  // namespace volcal
