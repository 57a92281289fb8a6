#include "obs/metrics.hpp"

#include <cinttypes>
#include <cstdio>

#include "util/text_file.hpp"

namespace volcal::obs {

namespace {

void append_histogram(std::string& out, const char* name, const Histogram& h) {
  out += '"';
  out += name;
  out += "\": ";
  h.append_json(out);
}

}  // namespace

std::string SweepMetrics::to_json(const std::string& tool) const {
  char buf[512];
  std::string out = "{\"tool\": \"" + tool + "\", ";
  std::snprintf(buf, sizeof buf,
                "\"sweeps\": %" PRId64 ", \"totals\": {\"starts\": %" PRId64
                ", \"max_volume\": %" PRId64 ", \"max_distance\": %" PRId64
                ", \"total_queries\": %" PRId64 ", \"total_volume\": %" PRId64
                ", \"truncated\": %" PRId64 ", \"wall_seconds\": %.6f}, \"tape_max_bits\": %" PRIu64
                ", ",
                sweeps, stats.starts, stats.max_volume, stats.max_distance,
                stats.total_queries, stats.total_volume, stats.truncated, stats.wall_seconds,
                tape_max_bits);
  out += buf;
  append_histogram(out, "volume", volume_hist);
  out += ", ";
  append_histogram(out, "distance", distance_hist);
  out += ", ";
  append_histogram(out, "queries", queries_hist);
  out += ", ";
  append_histogram(out, "start_wall_us", start_wall_us_hist);
  out += ", \"workers\": [";
  for (int w = 0; w < workers_seen; ++w) {
    const auto ws = static_cast<std::size_t>(w);
    // Batch occupancy = batched starts per wave: how full the worker's
    // 64-slot frontier actually ran.
    const double occupancy =
        worker_waves[ws] > 0 ? static_cast<double>(worker_batched_starts[ws]) /
                                   static_cast<double>(worker_waves[ws])
                             : 0.0;
    std::snprintf(buf, sizeof buf,
                  "%s{\"worker\": %d, \"starts\": %" PRId64 ", \"busy_ns\": %" PRId64
                  ", \"batches\": %" PRId64 ", \"batched_starts\": %" PRId64
                  ", \"waves\": %" PRId64 ", \"batch_occupancy\": %.3f}",
                  w ? ", " : "", w, worker_starts[ws], worker_busy_ns[ws],
                  worker_batches[ws], worker_batched_starts[ws], worker_waves[ws],
                  occupancy);
    out += buf;
  }
  out += "], \"phases\": [";
  for (std::size_t i = 0; i < phases.phases().size(); ++i) {
    const auto& p = phases.phases()[i];
    std::snprintf(buf, sizeof buf, "%s{\"name\": \"%s\", \"wall_seconds\": %.6g}",
                  i ? ", " : "", p.name.c_str(), p.wall_seconds);
    out += buf;
  }
  std::snprintf(buf, sizeof buf,
                "], \"batch\": {\"batched_sweeps\": %" PRId64 ", \"batches\": %" PRId64
                ", \"batched_starts\": %" PRId64 ", \"waves\": %" PRId64
                ", \"expanded_nodes\": %" PRId64 "}",
                batched_sweeps, stats.batch.batches, stats.batch.batched_starts,
                stats.batch.waves, stats.batch.expanded_nodes);
  out += buf;
  // Process-global probe samples, taken at serialization time.
  const perf::AllocStats alloc = perf::alloc_snapshot();
  std::snprintf(buf, sizeof buf,
                ", \"alloc\": {\"instrumented\": %s, \"allocs\": %" PRIu64
                ", \"frees\": %" PRIu64 ", \"bytes\": %" PRIu64 ", \"peak_bytes\": %" PRIu64
                "}, \"rss_high_water_kb\": %" PRId64 "}\n",
                perf::alloc_hook_active() ? "true" : "false", alloc.allocs, alloc.frees,
                alloc.bytes, alloc.peak_bytes, perf::rss_high_water_kb());
  out += buf;
  return out;
}

bool SweepMetrics::write_file(const std::string& path, const std::string& tool) const {
  const std::string doc = to_json(tool);
  return write_text_file(path,
                         [&](std::FILE* f) { std::fwrite(doc.data(), 1, doc.size(), f); });
}

}  // namespace volcal::obs
