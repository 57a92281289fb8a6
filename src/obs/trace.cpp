#include "obs/trace.hpp"

#include <cinttypes>
#include <cstdio>

#include "util/text_file.hpp"

namespace volcal::obs {
namespace {

void escape_into(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  escape_into(out, s);
  return out;
}

}  // namespace

bool write_trace_jsonl(const std::string& path, std::span<const SweepTrace> sweeps) {
  return write_text_file(path, [&](std::FILE* f) {
    for (std::size_t s = 0; s < sweeps.size(); ++s) {
      const SweepTrace& sweep = sweeps[s];
      std::fprintf(f,
                   "{\"type\":\"sweep\",\"seq\":%zu,\"label\":\"%s\",\"n\":%" PRId64
                   ",\"plan\":\"%s\",\"starts\":%zu}\n",
                   s, escaped(sweep.label).c_str(), sweep.n, escaped(sweep.plan).c_str(),
                   sweep.traces.size());
      for (const ExecutionTrace& t : sweep.traces) {
        std::fprintf(f,
                     "{\"type\":\"exec\",\"sweep\":%zu,\"start\":%" PRId64
                     ",\"volume\":%" PRId64 ",\"distance\":%" PRId64
                     ",\"queries\":%" PRId64 ",\"truncated\":%s}\n",
                     s, t.start, t.final_volume, t.final_distance, t.query_count,
                     t.truncated ? "true" : "false");
        for (std::size_t e = 0; e < t.events.size(); ++e) {
          const TraceEvent& ev = t.events[e];
          std::fprintf(f,
                       "{\"type\":\"query\",\"sweep\":%zu,\"start\":%" PRId64
                       ",\"seq\":%zu,\"queried\":%" PRId64 ",\"port\":%d,\"found\":%" PRId64
                       ",\"found_id\":%" PRIu64 ",\"found_degree\":%d,\"layer\":%" PRId64
                       ",\"volume\":%" PRId64 "}\n",
                       s, t.start, e, ev.queried, ev.port, ev.found, ev.found_id,
                       ev.found_degree, ev.layer, ev.volume);
        }
      }
    }
  });
}

bool write_chrome_trace(const std::string& path, std::span<const SweepTrace> sweeps) {
  return write_text_file(path, [&](std::FILE* f) {
    std::fprintf(f, "{\"traceEvents\":[");
    bool first = true;
    // Sweeps without a profile are laid out sequentially on tid 0 with
    // synthetic 1us slots so the viewer still shows the probe structure.
    std::int64_t synthetic_us = 0;
    for (std::size_t s = 0; s < sweeps.size(); ++s) {
      const SweepTrace& sweep = sweeps[s];
      const bool profiled = sweep.profile.begin_ns.size() == sweep.traces.size();
      for (std::size_t i = 0; i < sweep.traces.size(); ++i) {
        const ExecutionTrace& t = sweep.traces[i];
        const double ts_us =
            profiled ? static_cast<double>(sweep.profile.begin_ns[i]) / 1000.0
                     : static_cast<double>(synthetic_us);
        const double dur_us =
            profiled ? static_cast<double>(sweep.profile.duration_ns[i]) / 1000.0 : 1.0;
        const int tid = profiled ? sweep.profile.worker[i] : 0;
        synthetic_us += 1;
        std::fprintf(f,
                     "%s{\"name\":\"start %" PRId64 "\",\"cat\":\"%s\",\"ph\":\"X\""
                     ",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%zu,\"tid\":%d,\"args\":{"
                     "\"volume\":%" PRId64 ",\"distance\":%" PRId64 ",\"queries\":%" PRId64
                     ",\"truncated\":%s}}",
                     first ? "" : ",", t.start, escaped(sweep.label).c_str(), ts_us, dur_us,
                     s, tid, t.final_volume, t.final_distance, t.query_count,
                     t.truncated ? "true" : "false");
        first = false;
      }
    }
    std::fprintf(f, "],\"displayTimeUnit\":\"ms\"}\n");
  });
}

}  // namespace volcal::obs
