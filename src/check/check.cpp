#include "check/check.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <span>
#include <sstream>
#include <vector>

#include <cstdio>
#include <filesystem>
#include <unistd.h>

#include "bench_util.hpp"
#include "graph/mutation.hpp"
#include "io/instance_io.hpp"
#include "lcl/registry.hpp"
#include "obs/histogram.hpp"
#include "obs/replay.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel_runner.hpp"
#include "runtime/answer_memo.hpp"
#include "runtime/reference_execution.hpp"

namespace volcal::check {
namespace {

CheckResult fail(std::string msg) { return {false, std::move(msg)}; }

std::string at_start(const char* what, std::size_t i, NodeIndex start) {
  std::ostringstream os;
  os << what << " (start slot " << i << ", node " << start << ")";
  return os.str();
}

// --- bench::sampled_starts contract ----------------------------------------

CheckResult check_sampled_starts(NodeIndex n, NodeIndex count,
                                 const std::vector<NodeIndex>& starts) {
  if (starts.empty()) return fail("sampled_starts: empty sample for n > 0, count > 0");
  if (starts.size() > static_cast<std::size_t>(count)) {
    return fail("sampled_starts: " + std::to_string(starts.size()) +
                " starts exceed requested count " + std::to_string(count));
  }
  if (starts.front() != 0) return fail("sampled_starts: sample does not begin at node 0");
  if (count == 1 && starts != std::vector<NodeIndex>{0}) {
    return fail("sampled_starts: count == 1 must yield exactly {0} (got " +
                std::to_string(starts.size()) + " starts)");
  }
  if (count >= 2 && n >= 2 && starts.back() != n - 1) {
    return fail("sampled_starts: count >= 2 must cover the last node");
  }
  for (std::size_t i = 0; i < starts.size(); ++i) {
    if (starts[i] >= n) return fail("sampled_starts: start out of range");
    if (i > 0 && starts[i] <= starts[i - 1]) {
      return fail("sampled_starts: sample not strictly increasing");
    }
  }
  return {};
}

// --- RandomTape invariants ---------------------------------------------------

CheckResult check_tape(const IdAssignment& ids, const FuzzCase& c, NodeIndex n) {
  RandomTape tape(ids, c.tape_seed, c.model);
  const NodeIndex probes[] = {0, n / 2, n - 1};
  const std::uint64_t positions[] = {0, 1, 63, 64, 65, 0x9000};

  // Words are 64-bit windows of the bit stream: bit j of word(i) is bit i+j.
  // (The historical implementation hashed words on a shifted bit position, so
  // words aliased far-away bits and adjacent words were inconsistent.)
  for (const NodeIndex v : probes) {
    for (const std::uint64_t i : positions) {
      const std::uint64_t w = tape.word_value(v, i);
      for (const std::uint64_t j : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{17},
                                    std::uint64_t{63}}) {
        if (((w >> j) & 1) != static_cast<std::uint64_t>(tape.bit_value(v, i + j))) {
          return fail("tape: bit " + std::to_string(j) + " of word_value(v=" +
                      std::to_string(v) + ", i=" + std::to_string(i) +
                      ") disagrees with bit_value at position " + std::to_string(i + j));
        }
      }
      const std::uint64_t next = tape.word_value(v, i + 1);
      const std::uint64_t expect =
          (w >> 1) | (static_cast<std::uint64_t>(tape.bit_value(v, i + 64)) << 63);
      if (next != expect) {
        return fail("tape: word_value(v, i+1) is not the bit stream shifted by one at i=" +
                    std::to_string(i));
      }
    }
  }

  // Model disciplines (§7.4).
  if (c.model == RandomnessModel::Public && n >= 2) {
    for (const std::uint64_t i : positions) {
      if (tape.bit_value(0, i) != tape.bit_value(n - 1, i)) {
        return fail("tape: public randomness must be node-independent");
      }
    }
  }
  if (c.model == RandomnessModel::Private && n >= 2) {
    bool distinct = false;
    for (std::uint64_t i = 0; i < 4 && !distinct; ++i) {
      distinct = tape.word_value(0, i) != tape.word_value(n - 1, i);
    }
    if (!distinct) return fail("tape: private per-node streams are identical");
  }
  if (c.model == RandomnessModel::Secret && n >= 2) {
    bool threw = false;
    try {
      (void)tape.bit(0, n - 1, 0);
    } catch (const std::logic_error&) {
      threw = true;
    }
    if (!threw) return fail("tape: secret model allowed a cross-node read");
  }

  // Accounting: a word consumes its true 64 positions, bits one position;
  // the high-water mark is over *accessed* positions.
  {
    RandomTape acct(ids, c.tape_seed + 1, c.model);
    (void)acct.word(0, 0, 10);
    if (acct.max_bits_used_anywhere() != 74) {
      return fail("tape: word at position 10 should account 74 bits, got " +
                  std::to_string(acct.max_bits_used_anywhere()));
    }
    (void)acct.bit(0, 0, 100);
    if (acct.max_bits_used_anywhere() != 101) {
      return fail("tape: bit at position 100 should raise the high-water mark to 101");
    }
  }

  // ScopedUsage ledgers merge to exactly the serial accounting.
  {
    RandomTape serial(ids, c.tape_seed + 2, c.model);
    RandomTape scoped(ids, c.tape_seed + 2, c.model);
    auto read_all = [&](RandomTape& t) {
      for (const NodeIndex v : probes) {
        (void)t.bit(v, v, 7);
        (void)t.word(v, v, 40);
      }
    };
    read_all(serial);
    {
      RandomTape::ScopedUsage usage(scoped);
      read_all(scoped);
    }
    for (const NodeIndex v : probes) {
      const NodeIndex key = c.model == RandomnessModel::Public ? 0 : v;
      if (serial.bits_used(key) != scoped.bits_used(key)) {
        return fail("tape: ScopedUsage merge disagrees with serial accounting at node " +
                    std::to_string(key));
      }
    }
  }
  return {};
}

// --- obs::Histogram cross-check ---------------------------------------------

// The one histogram type against an exact sort of the same per-start values.
CheckResult check_histogram(const std::vector<std::int64_t>& per_start) {
  obs::Histogram h;
  for (const std::int64_t v : per_start) h.add(v);
  std::vector<std::int64_t> sorted = per_start;
  std::sort(sorted.begin(), sorted.end());
  const auto cnt = static_cast<std::int64_t>(sorted.size());
  std::int64_t sum = 0;
  for (const std::int64_t v : sorted) sum += v;
  if (h.count != cnt || h.sum != sum) return fail("histogram: count or sum inexact");
  if (cnt == 0) return {};
  if (h.min != sorted.front() || h.max != sorted.back()) {
    return fail("histogram: min/max disagree with sorted data");
  }
  for (const double q : {0.50, 0.95, 0.99}) {
    const auto rank = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::ceil(q * static_cast<double>(cnt))));
    const std::int64_t exact = sorted[static_cast<std::size_t>(rank - 1)];
    if (std::abs(static_cast<double>(h.quantile(q) - exact)) >
        static_cast<double>(exact) / 32.0) {
      return fail("histogram: quantile " + std::to_string(q) +
                  " strays more than 1/32 from the nearest-rank value");
    }
  }
  return {};
}

// --- trace invariants + reference differential ------------------------------

CheckResult check_trace_invariants(const obs::ExecutionTrace& t, std::int64_t budget,
                                   std::size_t slot) {
  std::int64_t running = 1;  // the start node is visited before any probe
  for (std::size_t e = 0; e < t.events.size(); ++e) {
    const obs::TraceEvent& ev = t.events[e];
    if (ev.volume < running || ev.volume > running + 1) {
      return fail(at_start("trace: running volume not monotone (steps of 0 or 1)", slot,
                           t.start));
    }
    running = ev.volume;
    if (ev.layer < 0 || ev.layer > t.final_distance) {
      return fail(at_start("trace: event layer outside [0, final_distance]", slot, t.start));
    }
    if (ev.layer == 0 && ev.found != t.start) {
      return fail(at_start("trace: only the start node may sit at layer 0", slot, t.start));
    }
  }
  if (!t.events.empty() && t.events.back().volume != t.final_volume) {
    return fail(at_start("trace: final volume differs from the last probe's", slot, t.start));
  }
  const std::int64_t expected_queries =
      static_cast<std::int64_t>(t.events.size()) + (t.truncated ? 1 : 0);
  if (t.query_count != expected_queries) {
    return fail(at_start("trace: query_count != events + truncating probe", slot, t.start));
  }
  if (t.truncated) {
    if (budget <= 0) return fail(at_start("trace: truncation without a budget", slot, t.start));
    if (t.final_volume != budget) {
      return fail(at_start("trace: truncated execution must stop exactly at the budget", slot,
                           t.start));
    }
    if (t.truncated_at_node == kNoNode || t.truncated_at_port == kNoPort) {
      return fail(at_start("trace: truncation point not recorded", slot, t.start));
    }
  } else if (budget > 0 && t.final_volume > budget) {
    return fail(at_start("trace: volume exceeds the budget without truncating", slot, t.start));
  }
  return {};
}

// Feeds the recorded probe sequence to the historical map-based execution and
// demands identical revelations — the third leg of the differential (flat and
// traced executions are compared via SweepResults; this pins both against the
// reference semantics).
CheckResult check_against_reference(GraphView g, const IdAssignment& ids,
                                    const obs::ExecutionTrace& t, std::int64_t budget,
                                    std::size_t slot) {
  ReferenceMapExecution ref(g, ids, t.start, budget);
  for (std::size_t e = 0; e < t.events.size(); ++e) {
    const obs::TraceEvent& ev = t.events[e];
    if (!ref.visited(ev.queried)) {
      return fail(at_start("reference: probe from a node the reference has not visited", slot,
                           t.start));
    }
    NodeIndex u = kNoNode;
    try {
      u = ref.query(ev.queried, ev.port);
    } catch (const QueryBudgetExceeded&) {
      return fail(at_start("reference: truncated before the flat engine did", slot, t.start));
    }
    if (u != ev.found || ref.id(u) != ev.found_id || ref.degree(u) != ev.found_degree) {
      return fail(at_start("reference: probe revealed a different node", slot, t.start));
    }
    if (ref.volume() != ev.volume) {
      return fail(at_start("reference: running volume diverged from the flat engine", slot,
                           t.start));
    }
  }
  if (t.truncated) {
    bool threw = false;
    try {
      (void)ref.query(t.truncated_at_node, t.truncated_at_port);
    } catch (const QueryBudgetExceeded&) {
      threw = true;
    }
    if (!threw) {
      return fail(at_start("reference: recorded truncating probe did not truncate", slot,
                           t.start));
    }
  }
  if (ref.volume() != t.final_volume || ref.distance() != t.final_distance ||
      ref.query_count() != t.query_count) {
    return fail(at_start("reference: final costs diverged from the flat engine", slot,
                         t.start));
  }
  return {};
}

// The case's start set: whole graph when start_count == 0, else the sampled
// subset (validated separately by check_case's sampler checks).
std::vector<NodeIndex> case_starts(const FuzzCase& c, NodeIndex n) {
  if (c.start_count == 0) {
    std::vector<NodeIndex> starts(static_cast<std::size_t>(n));
    for (NodeIndex v = 0; v < n; ++v) starts[static_cast<std::size_t>(v)] = v;
    return starts;
  }
  return bench::sampled_starts(n, c.start_count);
}

// The case's starts followed by the same starts in reverse: every start
// repeats once, so answer reuse (CachePolicy::Shared) has work to do.
std::vector<NodeIndex> with_repeats(std::vector<NodeIndex> starts) {
  starts.insert(starts.end(), starts.rbegin(), starts.rend());
  return starts;
}

CacheConfig policy_config(CachePolicy p) {
  CacheConfig cfg;
  cfg.policy = p;
  return cfg;
}

// Which part of two graphs' CSR differs — "" when shape, offsets and
// adjacency are byte-identical.
std::string csr_difference(GraphView a, GraphView b) {
  if (a.node_count() != b.node_count()) return "node count";
  if (a.max_degree() != b.max_degree() || a.edge_count() != b.edge_count()) {
    return "graph shape (max degree / edge count)";
  }
  if (!std::equal(a.offsets_data(), a.offsets_data() + a.node_count() + 1, b.offsets_data())) {
    return "CSR offsets";
  }
  if (!std::equal(a.adjacency_data(), a.adjacency_data() + 2 * a.edge_count(),
                  b.adjacency_data())) {
    return "CSR adjacency";
  }
  return "";
}

bool same_ids(const IdAssignment& a, const IdAssignment& b) {
  return std::ranges::equal(a.span(), b.span());
}

}  // namespace

const char* model_name(RandomnessModel m) {
  switch (m) {
    case RandomnessModel::Public: return "public";
    case RandomnessModel::Secret: return "secret";
    default: return "private";
  }
}

bool model_from_name(const std::string& name, RandomnessModel* out) {
  if (name == "private") *out = RandomnessModel::Private;
  else if (name == "public") *out = RandomnessModel::Public;
  else if (name == "secret") *out = RandomnessModel::Secret;
  else return false;
  return true;
}

std::string describe(const FuzzCase& c) {
  std::ostringstream os;
  os << "family=" << c.family << " variant=" << c.variant << " n_target=" << c.n_target
     << " instance_seed=" << c.instance_seed << " model=" << model_name(c.model)
     << " budget=" << c.budget << " start_count=" << c.start_count
     << " tape_seed=" << c.tape_seed << " mutation_seed=" << c.mutation_seed
     << " mutation_rewires=" << c.mutation_rewires
     << " mutation_labels=" << c.mutation_labels;
  return os.str();
}

CheckResult check_case(const FuzzCase& c) {
  const RegistryEntry* entry = ProblemRegistry::global().find(c.family);
  if (entry == nullptr) return fail("unknown registry family: " + c.family);
  if (c.variant < 0 || c.variant >= entry->variants) {
    return fail("variant " + std::to_string(c.variant) + " out of range for " + c.family);
  }

  const ErasedInstance inst = entry->make_variant(c.n_target, c.instance_seed, c.variant);
  const NodeIndex n = inst.node_count();
  if (n <= 0) return fail("generator produced an empty instance");

  // Exercise the sampler's edge counts on every case (count == 1 is the one
  // the pre-fix implementation silently rounded up to 2), then build the
  // case's own start set.
  for (const NodeIndex count : {NodeIndex{1}, NodeIndex{2}, n, 2 * n}) {
    if (CheckResult r = check_sampled_starts(n, count, bench::sampled_starts(n, count)); !r) {
      return r;
    }
  }
  std::vector<NodeIndex> starts = case_starts(c, n);
  if (c.start_count != 0) {
    if (CheckResult r = check_sampled_starts(n, c.start_count, starts); !r) return r;
  }

  if (CheckResult r = check_tape(inst.ids(), c, n); !r) return r;

  RandomTape tape(inst.ids(), c.tape_seed, c.model);
  const std::span<const NodeIndex> span(starts);
  auto solve = [&](auto& exec) { return inst.solve(exec); };

  auto serial = ParallelRunner(1).run_at(inst.graph(), inst.ids(), span, solve, c.budget,
                                         &tape);
  auto threaded = ParallelRunner(8).run_at(inst.graph(), inst.ids(), span, solve, c.budget,
                                           &tape);
  if (serial.output != threaded.output) return fail("sweep: 8-thread outputs diverge");
  if (serial.volume != threaded.volume || serial.distance != threaded.distance ||
      serial.queries != threaded.queries) {
    return fail("sweep: 8-thread per-start costs diverge");
  }
  if (!same_costs(serial.stats, threaded.stats)) {
    return fail("sweep: 8-thread aggregate costs diverge");
  }

  obs::TraceRecorder recorder;
  auto traced = obs::run_at_traced(ParallelRunner(1), inst.graph(), inst.ids(), span, solve,
                                   recorder, c.budget, &tape);
  if (serial.output != traced.output) return fail("traced: outputs diverge from flat");
  if (serial.volume != traced.volume || serial.distance != traced.distance ||
      serial.queries != traced.queries || !same_costs(serial.stats, traced.stats)) {
    return fail("traced: costs diverge from flat");
  }

  std::int64_t truncated_traces = 0;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const std::int64_t vol = serial.volume[i];
    const std::int64_t dist = serial.distance[i];
    const std::int64_t q = serial.queries[i];
    if (vol < 1) return fail(at_start("invariant: volume < 1", i, starts[i]));
    if (dist + 1 > vol) {
      return fail(at_start("invariant: distance + 1 > volume", i, starts[i]));
    }
    if (vol > q + 1) {
      return fail(at_start("invariant: volume > queries + 1", i, starts[i]));
    }
    const obs::ExecutionTrace& t = recorder.traces()[i];
    if (t.start != starts[i]) return fail(at_start("trace: wrong start slot", i, starts[i]));
    if (t.final_volume != vol || t.final_distance != dist || t.query_count != q) {
      return fail(at_start("trace: recorded finals differ from SweepResult", i, starts[i]));
    }
    if (CheckResult r = check_trace_invariants(t, c.budget, i); !r) return r;
    if (t.truncated) ++truncated_traces;
    if (CheckResult r = check_against_reference(inst.graph(), inst.ids(), t, c.budget, i); !r) {
      return r;
    }
  }
  if (truncated_traces != serial.stats.truncated) {
    return fail("trace: truncation count differs from SweepStats.truncated");
  }

  if (const auto replay = obs::replay_sweep(inst.graph(), inst.ids(), recorder.traces(),
                                            c.budget);
      !replay.ok) {
    return fail("replay: " + replay.error);
  }

  // With no budget and a whole-graph start set the joint output must satisfy
  // the family's own LCL verifier (Def. 2.6).
  if (c.budget == 0 && c.start_count == 0) {
    const VerifyResult verdict = inst.verify(serial.output);
    if (!verdict.ok) {
      return fail("verify: " + std::to_string(verdict.violations) +
                  " violations, first at node " + std::to_string(verdict.first_bad));
    }
  }

  if (CheckResult r = check_histogram(serial.volume); !r) return r;
  if (CheckResult r = check_histogram(serial.distance); !r) return r;

  return {};
}

CheckResult check_cache_case(const FuzzCase& c) {
  const RegistryEntry* entry = ProblemRegistry::global().find(c.family);
  if (entry == nullptr) return fail("unknown registry family: " + c.family);
  if (c.variant < 0 || c.variant >= entry->variants) {
    return fail("variant " + std::to_string(c.variant) + " out of range for " + c.family);
  }
  const ErasedInstance inst = entry->make_variant(c.n_target, c.instance_seed, c.variant);
  const NodeIndex n = inst.node_count();
  if (n <= 0) return fail("generator produced an empty instance");
  const std::vector<NodeIndex> starts = with_repeats(case_starts(c, n));
  const std::span<const NodeIndex> span(starts);
  const auto distinct = static_cast<std::int64_t>(starts.size() / 2);

  RandomTape tape(inst.ids(), c.tape_seed, c.model);
  auto solve = [&](auto& exec) { return inst.solve(exec); };
  const auto baseline = ParallelRunner(1, policy_config(CachePolicy::Off))
                            .run_at(inst.graph(), inst.ids(), span, solve, c.budget, &tape);
  for (const int threads : {1, 8}) {
    const auto run = ParallelRunner(threads, policy_config(CachePolicy::Shared))
                         .run_at(inst.graph(), inst.ids(), span, solve, c.budget, &tape);
    const std::string where = "shared at " + std::to_string(threads) + " thread(s)";
    if (baseline.output != run.output) return fail("cache: outputs diverge under " + where);
    if (baseline.volume != run.volume || baseline.distance != run.distance ||
        baseline.queries != run.queries) {
      return fail("cache: per-start costs diverge under " + where);
    }
    if (!same_costs(baseline.stats, run.stats)) {
      return fail("cache: aggregate costs (truncation included) diverge under " + where);
    }
    if (run.stats.cache.policy != CachePolicy::Shared || run.stats.cache.hits != distinct ||
        run.stats.cache.misses != distinct) {
      return fail("cache: every repeated start must be reused exactly once under " + where);
    }
  }

  // Recording executions never reuse: identical results, every start traced
  // in full, and no reuse counted.
  obs::TraceRecorder recorder;
  const auto traced =
      obs::run_at_traced(ParallelRunner(2, policy_config(CachePolicy::Shared)), inst.graph(),
                         inst.ids(), span, solve, recorder, c.budget, &tape);
  if (baseline.output != traced.output || baseline.volume != traced.volume ||
      baseline.distance != traced.distance || baseline.queries != traced.queries ||
      !same_costs(baseline.stats, traced.stats)) {
    return fail("cache: traced sweep diverges from the plain sweep");
  }
  if (traced.stats.cache.hits != 0 || traced.stats.cache.misses != 0) {
    return fail("cache: traced sweep counted reuse (recording must execute every start)");
  }
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const obs::ExecutionTrace& t = recorder.traces()[i];
    if (t.start != starts[i] || t.query_count != baseline.queries[i]) {
      return fail(at_start("cache: traced sweep skipped a repeated start", i, starts[i]));
    }
  }
  return {};
}

CheckResult check_backend_case(const FuzzCase& c) {
  const RegistryEntry* entry = ProblemRegistry::global().find(c.family);
  if (entry == nullptr) return fail("unknown registry family: " + c.family);
  if (c.variant < 0 || c.variant >= entry->variants) {
    return fail("variant " + std::to_string(c.variant) + " out of range for " + c.family);
  }
  const ErasedInstance inst = entry->make_variant(c.n_target, c.instance_seed, c.variant);
  const NodeIndex n = inst.node_count();
  if (n <= 0) return fail("generator produced an empty instance");
  const std::vector<NodeIndex> starts = with_repeats(case_starts(c, n));
  const std::span<const NodeIndex> span(starts);
  const ProbePlan plan = entry->plan;

  auto solve = [&](auto& exec) { return inst.solve(exec); };

  // Reference row: Basic backend, cache off, serial, no budget / no tape (the
  // configuration in which a batchable plan is batched-eligible).
  ParallelRunner base_runner(1, policy_config(CachePolicy::Off));
  base_runner.set_backend(ExecBackend::Basic);
  const auto baseline = base_runner.run_planned(inst.graph(), inst.ids(), span, plan, solve);
  if (baseline.stats.backend != ExecBackend::Basic) {
    return fail("backend: basic sweep mis-tagged as batched");
  }
  if (baseline.stats.plan != plan.kind) {
    return fail("backend: basic sweep lost its plan tag");
  }

  for (const CachePolicy policy : {CachePolicy::Off, CachePolicy::Shared}) {
    for (const int threads : {1, 8}) {
      ParallelRunner runner(threads, policy_config(policy));
      runner.set_backend(ExecBackend::Batched);
      const auto run = runner.run_planned(inst.graph(), inst.ids(), span, plan, solve);
      const std::string where = std::string(plan.name()) + " under " +
                                cache_policy_name(policy) + " at " +
                                std::to_string(threads) + " thread(s)";
      if (baseline.output != run.output) {
        return fail("backend: outputs diverge for " + where);
      }
      if (baseline.volume != run.volume || baseline.distance != run.distance ||
          baseline.queries != run.queries) {
        return fail("backend: per-start costs diverge for " + where);
      }
      if (!same_costs(baseline.stats, run.stats)) {
        return fail("backend: aggregate costs diverge for " + where);
      }
      if (run.stats.plan != plan.kind) {
        return fail("backend: sweep tagged with the wrong plan for " + where);
      }
      if (plan.batchable()) {
        if (run.stats.backend != ExecBackend::Batched) {
          return fail("backend: batchable sweep did not take the batched path for " + where);
        }
        // Every start is either executed in a batch or copied from its
        // first occurrence — exactly once.
        if (run.stats.batch.batched_starts + run.stats.cache.hits !=
            static_cast<std::int64_t>(starts.size())) {
          return fail("backend: batch start accounting wrong for " + where);
        }
        if (!starts.empty() && run.stats.batch.batches < 1) {
          return fail("backend: batched sweep recorded zero batches for " + where);
        }
      } else if (run.stats.backend != ExecBackend::Basic) {
        return fail("backend: non-batchable plan tagged batched for " + where);
      }
    }
  }

  // A budget or an attached tape makes the sweep batched-ineligible: the
  // runner must fall back to the per-start basic path and stay bit-identical
  // to a Basic-backend runner under the same configuration.
  RandomTape base_tape(inst.ids(), c.tape_seed, c.model);
  ParallelRunner fb_base(1, policy_config(CachePolicy::Off));
  fb_base.set_backend(ExecBackend::Basic);
  const auto fb_baseline = fb_base.run_planned(inst.graph(), inst.ids(), span, plan, solve,
                                               c.budget, &base_tape);
  RandomTape tape(inst.ids(), c.tape_seed, c.model);
  ParallelRunner fb_runner(8, policy_config(CachePolicy::Off));
  fb_runner.set_backend(ExecBackend::Batched);
  const auto fallback = fb_runner.run_planned(inst.graph(), inst.ids(), span, plan, solve,
                                              c.budget, &tape);
  if (fallback.stats.backend != ExecBackend::Basic) {
    return fail("backend: taped sweep did not fall back to the basic path");
  }
  if (fb_baseline.output != fallback.output || fb_baseline.volume != fallback.volume ||
      fb_baseline.distance != fallback.distance ||
      fb_baseline.queries != fallback.queries ||
      !same_costs(fb_baseline.stats, fallback.stats)) {
    return fail("backend: taped fallback diverges from the basic backend");
  }
  return {};
}

CheckResult check_snapshot_case(const FuzzCase& c) {
  const RegistryEntry* entry = ProblemRegistry::global().find(c.family);
  if (entry == nullptr) return fail("unknown registry family: " + c.family);
  if (c.variant < 0 || c.variant >= entry->variants) {
    return fail("variant " + std::to_string(c.variant) + " out of range for " + c.family);
  }
  const ErasedInstance inst = entry->make_variant(c.n_target, c.instance_seed, c.variant);
  const NodeIndex n = inst.node_count();
  if (n <= 0) return fail("generator produced an empty instance");

  // Round-trip through a uniquely named temp file; the mapping survives the
  // unlink (POSIX), so the file is removed as soon as the load returns.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("volcal-fuzz-" + c.family + "-v" + std::to_string(c.variant) + "-n" +
        std::to_string(c.n_target) + "-s" + std::to_string(c.instance_seed) + "-p" +
        std::to_string(static_cast<long long>(::getpid())) + ".vsnap"))
          .string();
  ErasedInstance loaded = [&] {
    inst.save_snapshot(path);
    ErasedInstance l = io::load_instance(path);
    std::remove(path.c_str());
    return l;
  }();

  if (loaded.family() != inst.family()) {
    return fail("snapshot: family round-tripped as '" + loaded.family() + "'");
  }
  if (loaded.node_count() != n) {
    return fail("snapshot: node count round-tripped as " +
                std::to_string(loaded.node_count()));
  }
  const GraphView a = inst.graph();
  const GraphView b = loaded.graph();
  if (const std::string d = csr_difference(a, b); !d.empty()) {
    return fail("snapshot: " + d + " not bit-identical");
  }
  if (!same_ids(inst.ids(), loaded.ids())) return fail("snapshot: ID table diverged");

  // Differential sweeps: the loaded instance must be bit-identical to the
  // in-RAM one in outputs and costs, serial and 8-thread, and on the
  // family's planned backend.
  const std::vector<NodeIndex> starts = case_starts(c, n);
  const std::span<const NodeIndex> span(starts);
  auto solve_a = [&](auto& exec) { return inst.solve(exec); };
  auto solve_b = [&](auto& exec) { return loaded.solve(exec); };
  const auto base = ParallelRunner(1).run_at(a, inst.ids(), span, solve_a, c.budget);
  for (const int threads : {1, 8}) {
    const auto run =
        ParallelRunner(threads).run_at(b, loaded.ids(), span, solve_b, c.budget);
    const std::string where = "at " + std::to_string(threads) + " thread(s)";
    if (base.output != run.output) {
      return fail("snapshot: outputs diverge from the in-RAM instance " + where);
    }
    if (base.volume != run.volume || base.distance != run.distance ||
        base.queries != run.queries) {
      return fail("snapshot: per-start costs diverge from the in-RAM instance " + where);
    }
    if (!same_costs(base.stats, run.stats)) {
      return fail("snapshot: aggregate costs diverge from the in-RAM instance " + where);
    }
  }
  {
    ParallelRunner runner(8);
    runner.set_backend(ExecBackend::Batched);
    const auto planned =
        runner.run_planned(b, loaded.ids(), span, entry->plan, solve_b, c.budget);
    if (base.output != planned.output || base.volume != planned.volume ||
        base.distance != planned.distance || base.queries != planned.queries ||
        !same_costs(base.stats, planned.stats)) {
      return fail("snapshot: planned-backend sweep on the loaded instance diverges");
    }
  }

  // Self-verification through the loaded instance's own wiring.
  if (c.budget == 0) {
    const auto whole = run_at_all_nodes(b, loaded.ids(), solve_b);
    const VerifyResult verdict = loaded.verify(whole.output);
    if (!verdict.ok) {
      return fail("snapshot: loaded instance fails its verifier (" +
                  std::to_string(verdict.violations) + " violations, first at node " +
                  std::to_string(verdict.first_bad) + ")");
    }
  }

  // Two mutated generations of the loaded instance, whose ID table is
  // adopted from the mapping: the first must copy that table and the second
  // share the copy, and each must equal the same generation of the in-RAM
  // instance in CSR bytes, IDs, outputs and costs.
  if (c.mutation_rewires < 0 || c.mutation_labels < 0) {
    return fail("snapshot: negative mutation batch size in case");
  }
  ErasedInstance mi = inst;
  ErasedInstance ml = loaded;
  for (int gen = 0; gen < 2; ++gen) {
    const std::string where = " in mutated generation " + std::to_string(gen + 1);
    const MutationBatch batch =
        mi.propose_mutation(c.mutation_seed + static_cast<std::uint64_t>(gen),
                            c.mutation_rewires, c.mutation_labels);
    mi = mi.mutated(batch);
    ErasedInstance next = ml.mutated(batch);
    const bool copied = next.ids().span().data() != ml.ids().span().data();
    if (next.ids().adopted() || copied != (gen == 0)) {
      return fail("snapshot: the adopted ID table was not copied exactly once" + where);
    }
    ml = std::move(next);
    if (const std::string d = csr_difference(mi.graph(), ml.graph()); !d.empty()) {
      return fail("snapshot: " + d + " not bit-identical" + where);
    }
    if (!same_ids(mi.ids(), ml.ids())) return fail("snapshot: ID table diverged" + where);
    auto solve_mi = [&](auto& exec) { return mi.solve(exec); };
    auto solve_ml = [&](auto& exec) { return ml.solve(exec); };
    const ParallelRunner serial(1);
    const auto run_mi = serial.run_at(mi.graph(), mi.ids(), span, solve_mi, c.budget);
    const auto run_ml = serial.run_at(ml.graph(), ml.ids(), span, solve_ml, c.budget);
    if (run_mi.output != run_ml.output || run_mi.volume != run_ml.volume ||
        run_mi.distance != run_ml.distance || run_mi.queries != run_ml.queries ||
        !same_costs(run_mi.stats, run_ml.stats)) {
      return fail("snapshot: sweep of the mutated loaded instance diverges" + where);
    }
  }
  return {};
}

CheckResult check_mutation_case(const FuzzCase& c) {
  const RegistryEntry* entry = ProblemRegistry::global().find(c.family);
  if (entry == nullptr) return fail("unknown registry family: " + c.family);
  if (c.variant < 0 || c.variant >= entry->variants) {
    return fail("variant " + std::to_string(c.variant) + " out of range for " + c.family);
  }
  if (c.mutation_rewires < 0 || c.mutation_labels < 0) {
    return fail("mutation: negative batch size in case");
  }
  const ErasedInstance inst = entry->make_variant(c.n_target, c.instance_seed, c.variant);
  const NodeIndex n = inst.node_count();
  if (n <= 0) return fail("generator produced an empty instance");
  const GraphView g0 = inst.graph();

  // Pre-mutation CSR copies — the copy-on-write contract says the old
  // instance's storage is untouched by everything below.
  const std::vector<CsrIndex> offsets_before(g0.offsets_data(), g0.offsets_data() + n + 1);
  const std::vector<CsrIndex> adjacency_before(g0.adjacency_data(),
                                               g0.adjacency_data() + 2 * g0.edge_count());

  const MutationBatch batch =
      inst.propose_mutation(c.mutation_seed, c.mutation_rewires, c.mutation_labels);
  std::vector<NodeIndex> touched;
  const ErasedInstance mut = [&] {
    std::vector<NodeIndex> t;
    ErasedInstance m = inst.mutated(batch, &t);
    touched = std::move(t);
    return m;
  }();
  const ErasedInstance naive = inst.mutated_naive(batch);

  // --- representation differential: fast CSR path vs Builder rebuild -------
  const GraphView gm = mut.graph();
  const GraphView gn = naive.graph();
  if (mut.node_count() != n || naive.node_count() != n) {
    return fail("mutation: node count changed by a leaf rewire");
  }
  if (const std::string d = csr_difference(gm, gn); !d.empty()) {
    return fail("mutation: fast and naive " + d + " not bit-identical");
  }

  // --- fresh-storage and touched-set contracts -----------------------------
  // All three graphs are alive here, so distinct arrays have distinct data
  // pointers (an edgeless adjacency may have none to compare).
  const auto aliases = [](const GraphView& a, const GraphView& b) {
    return a.offsets_data() == b.offsets_data() ||
           (a.edge_count() > 0 && a.adjacency_data() == b.adjacency_data());
  };
  if (aliases(gm, g0) || aliases(gn, g0) || aliases(gm, gn)) {
    return fail("mutation: mutated instances must own fresh CSR arrays");
  }
  for (std::size_t i = 0; i < touched.size(); ++i) {
    if (touched[i] < 0 || touched[i] >= n) return fail("mutation: touched node out of range");
    if (i > 0 && touched[i] <= touched[i - 1]) {
      return fail("mutation: touched set not sorted/deduplicated");
    }
  }
  if (batch.rewires.empty() && !touched.empty()) {
    return fail("mutation: label-only batch reported structural endpoints");
  }
  for (const LeafRewire& r : batch.rewires) {
    if (!std::binary_search(touched.begin(), touched.end(), r.leaf) ||
        !std::binary_search(touched.begin(), touched.end(), r.new_parent)) {
      return fail("mutation: rewire endpoint missing from the touched set");
    }
  }
  if (!same_ids(mut.ids(), inst.ids())) return fail("mutation: ID table changed");

  // --- sweep differential: mutated vs naive-rebuilt, both backends, every
  // cache policy, 1 and 8 threads --------------------------------------------
  const std::vector<NodeIndex> starts = case_starts(c, n);
  const std::span<const NodeIndex> span(starts);
  auto solve_mut = [&](auto& exec) { return mut.solve(exec); };
  auto solve_naive = [&](auto& exec) { return naive.solve(exec); };
  const auto base_mut = ParallelRunner(1, policy_config(CachePolicy::Off))
                            .run_at(gm, mut.ids(), span, solve_mut, c.budget);
  const auto base_naive = ParallelRunner(1, policy_config(CachePolicy::Off))
                              .run_at(gn, naive.ids(), span, solve_naive, c.budget);
  if (base_mut.output != base_naive.output) {
    return fail("mutation: mutate-then-query diverges from rebuild-then-query");
  }
  if (base_mut.volume != base_naive.volume || base_mut.distance != base_naive.distance ||
      base_mut.queries != base_naive.queries ||
      !same_costs(base_mut.stats, base_naive.stats)) {
    return fail("mutation: mutate-then-query costs diverge from rebuild-then-query");
  }
  for (const CachePolicy policy : {CachePolicy::Off, CachePolicy::Shared}) {
    for (const int threads : {1, 8}) {
      ParallelRunner runner(threads, policy_config(policy));
      runner.set_backend(ExecBackend::Batched);
      const auto run =
          runner.run_planned(gm, mut.ids(), span, entry->plan, solve_mut, c.budget);
      const std::string where = std::string(cache_policy_name(policy)) + " at " +
                                std::to_string(threads) + " thread(s)";
      if (base_mut.output != run.output) {
        return fail("mutation: planned-backend outputs diverge under " + where);
      }
      if (base_mut.volume != run.volume || base_mut.distance != run.distance ||
          base_mut.queries != run.queries || !same_costs(base_mut.stats, run.stats)) {
        return fail("mutation: planned-backend costs diverge under " + where);
      }
    }
  }

  // --- answer memo: warm every node on the old graph, evict the batch's
  // region, and every kept answer must equal a cold run on the mutated
  // instance -----------------------------------------------------------------
  ExecutionScratch scratch;
  AnswerMemo memo(n);
  const AnswerMemo::Generation warm_gen = memo.generation();
  for (NodeIndex v = 0; v < n; ++v) memo.store(v, warm_gen, inst.answer_at(v, scratch));
  const std::size_t warm = memo.size();
  if (warm != static_cast<std::size_t>(n)) {
    return fail("mutation: the memo did not keep every warmed answer");
  }
  const std::vector<NodeIndex> changed = changed_nodes(batch, touched);
  const AnswerMemo::Eviction ev = memo.evict_region(g0, changed);
  if (ev.evicted + ev.retained != warm) {
    return fail("mutation: memo eviction accounting does not cover the warm set");
  }
  if (ev.evicted < changed.size()) {
    return fail("mutation: a changed node kept its own memoized answer");
  }
  const AnswerMemo::Generation gen = memo.generation();
  std::size_t kept = 0;
  for (NodeIndex v = 0; v < n; ++v) {
    const std::optional<Answer> hit = memo.lookup(v, gen);
    if (!hit) continue;
    ++kept;
    if (*hit != mut.answer_at(v, scratch)) {
      return fail("mutation: a memoized answer kept across the batch is stale at node " +
                  std::to_string(v));
    }
  }
  if (kept != ev.retained) {
    return fail("mutation: " + std::to_string(ev.retained) + " answers retained but " +
                std::to_string(kept) + " served after the batch");
  }

  // --- copy-on-write: the pre-mutation instance is byte-identical ----------
  if (!std::equal(offsets_before.begin(), offsets_before.end(), g0.offsets_data()) ||
      !std::equal(adjacency_before.begin(), adjacency_before.end(), g0.adjacency_data())) {
    return fail("mutation: the pre-mutation instance's CSR storage was modified");
  }
  return {};
}

CheckResult check_all(const FuzzCase& c) {
  CheckResult r = check_case(c);
  if (r.ok) r = check_cache_case(c);
  if (r.ok) r = check_backend_case(c);
  if (r.ok) r = check_snapshot_case(c);
  if (r.ok) r = check_mutation_case(c);
  return r;
}

}  // namespace volcal::check
