// SweepMetrics — aggregate observability for whole-graph sweeps.
//
// Where a trace (obs/trace.hpp) answers "what exactly did execution i do",
// metrics answer "what did the sweep look like in aggregate": histograms
// (obs/histogram.hpp) of per-start volume / distance / query counts, totals
// matching SweepStats, tape-bit high-water mark, and (when a SweepProfile was
// attached) wall time per start and per-worker busy time.
//
// Determinism: every field except the wall-time and reuse-counter ones is
// derived from the SweepResult's per-start slot vectors, which the engine guarantees are
// bit-identical at any thread count — so metrics aggregated over a parallel
// sweep equal the serial ones by construction (the same argument as the
// runner's sup-cost merge).  tests/obs_test.cpp asserts totals equal the
// legacy Cost fields.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "obs/histogram.hpp"
#include "perf/probe.hpp"
#include "runtime/parallel_runner.hpp"
#include "runtime/randomness.hpp"

namespace volcal::obs {

struct SweepMetrics {
  std::int64_t sweeps = 0;  // measure()/run_at calls folded in
  SweepStats stats;         // totals and sups across all folded sweeps
  Histogram volume_hist;
  Histogram distance_hist;
  Histogram queries_hist;
  // Wall-clock (non-deterministic) — only populated when a SweepProfile was
  // attached to the sweep.
  Histogram start_wall_us_hist;          // per-start execution wall micros
  std::array<std::int64_t, 256> worker_busy_ns{};  // per-worker total
  std::array<std::int64_t, 256> worker_starts{};
  int workers_seen = 0;
  // Batched-backend accounting: sweeps executed on the batched backend and,
  // when a SweepProfile was attached, the per-worker batch columns from
  // which occupancy (starts per wave) is derived.  stats.batch holds the
  // sweep-level totals.
  std::int64_t batched_sweeps = 0;
  std::array<std::int64_t, 256> worker_batches{};
  std::array<std::int64_t, 256> worker_batched_starts{};
  std::array<std::int64_t, 256> worker_waves{};
  // RandomTape high-water mark: max bits consumed at any node (§2.2 fn. 1).
  std::uint64_t tape_max_bits = 0;
  // Perf probes (wall-clock / process-global, non-deterministic like the
  // fields above): named phase accumulation fed by the bench Observer, plus
  // allocation counters and the RSS high-water mark sampled when the metrics
  // are serialized.  Alloc numbers only advance in binaries that link the
  // volcal_alloc_hook counting allocator.
  perf::PhaseTimer phases;

  // Folds one sweep in.  Per-start histograms come from the slot vectors;
  // totals from result.stats.
  template <typename Label>
  void observe(const SweepResult<Label>& result, const SweepProfile* profile = nullptr,
               const RandomTape* tape = nullptr) {
    ++sweeps;
    stats.starts += result.stats.starts;
    stats.max_volume = std::max(stats.max_volume, result.stats.max_volume);
    stats.max_distance = std::max(stats.max_distance, result.stats.max_distance);
    stats.total_queries += result.stats.total_queries;
    stats.total_volume += result.stats.total_volume;
    stats.truncated += result.stats.truncated;
    stats.wall_seconds += result.stats.wall_seconds;
    stats.cache += result.stats.cache;
    stats.batch += result.stats.batch;
    if (result.stats.backend == ExecBackend::Batched) ++batched_sweeps;
    for (std::size_t i = 0; i < result.volume.size(); ++i) {
      volume_hist.add(result.volume[i]);
      distance_hist.add(result.distance[i]);
      queries_hist.add(result.queries[i]);
    }
    if (profile != nullptr && profile->duration_ns.size() == result.volume.size()) {
      for (std::size_t i = 0; i < profile->duration_ns.size(); ++i) {
        start_wall_us_hist.add(profile->duration_ns[i] / 1000);
        const int w = profile->worker[i];
        if (w >= 0 && w < static_cast<int>(worker_busy_ns.size())) {
          worker_busy_ns[static_cast<std::size_t>(w)] += profile->duration_ns[i];
          ++worker_starts[static_cast<std::size_t>(w)];
          workers_seen = std::max(workers_seen, w + 1);
        }
      }
    }
    if (profile != nullptr) {
      const auto seen = static_cast<int>(
          std::min(profile->worker_batches.size(), worker_batches.size()));
      for (int w = 0; w < seen; ++w) {
        worker_batches[static_cast<std::size_t>(w)] +=
            profile->worker_batches[static_cast<std::size_t>(w)];
        worker_batched_starts[static_cast<std::size_t>(w)] +=
            profile->worker_batched_starts[static_cast<std::size_t>(w)];
        worker_waves[static_cast<std::size_t>(w)] +=
            profile->worker_waves[static_cast<std::size_t>(w)];
        workers_seen = std::max(workers_seen, w + 1);
      }
    }
    if (tape != nullptr) {
      tape_max_bits = std::max(tape_max_bits, tape->max_bits_used_anywhere());
    }
  }

  // JSON document (single object) — what `--metrics <path>` writes.
  std::string to_json(const std::string& tool) const;
  bool write_file(const std::string& path, const std::string& tool) const;
};

}  // namespace volcal::obs
