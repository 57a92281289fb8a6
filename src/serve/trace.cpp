#include "serve/trace.hpp"

#include <cinttypes>
#include <cstdio>

#include "util/text_file.hpp"

namespace volcal::serve {
namespace {

void emit_slice(std::FILE* f, bool* first, const RequestSpan& s, const char* name,
                std::int64_t begin_ns, std::int64_t end_ns) {
  const double ts_us = static_cast<double>(begin_ns) / 1000.0;
  const double dur_us = static_cast<double>(end_ns - begin_ns < 0 ? 0 : end_ns - begin_ns) / 1000.0;
  std::fprintf(f,
               "%s{\"name\":\"%s\",\"cat\":\"serve\",\"ph\":\"X\",\"ts\":%.3f"
               ",\"dur\":%.3f,\"pid\":0,\"tid\":%d,\"args\":{\"seq\":%" PRIu64
               ",\"id\":%" PRIu64 ",\"node\":%" PRId64 ",\"wave\":%" PRIu64
               ",\"volume\":%" PRId64 ",\"cache_hit\":%s}}",
               *first ? "" : ",", name, ts_us, dur_us, s.worker < 0 ? 0 : s.worker,
               s.seq, s.client_id, s.node, s.wave, s.volume,
               s.cache_hit ? "true" : "false");
  *first = false;
}

}  // namespace

bool write_serve_chrome_trace(const std::string& path,
                              std::span<const RequestSpan> spans) {
  return write_text_file(path, [&](std::FILE* f) {
    std::fprintf(f, "{\"traceEvents\":[");
    bool first = true;
    for (const RequestSpan& s : spans) {
      emit_slice(f, &first, s, "queue", s.admit_ns, s.dequeue_ns);
      emit_slice(f, &first, s, "wave", s.dequeue_ns, s.exec_begin_ns);
      emit_slice(f, &first, s, "execute", s.exec_begin_ns, s.exec_end_ns);
      emit_slice(f, &first, s, "write", s.exec_end_ns, s.done_ns);
    }
    std::fprintf(f, "],\"displayTimeUnit\":\"ms\"}\n");
  });
}

bool write_slow_query_log(const std::string& path, std::span<const SlowQuery> slow) {
  return write_text_file(path, [&](std::FILE* f) {
    for (const SlowQuery& q : slow) {
      std::fprintf(f,
                   "{\"seq\":%" PRIu64 ",\"id\":%" PRIu64 ",\"node\":%" PRId64
                   ",\"wave\":%" PRIu64 ",\"latency_ns\":%" PRId64 ",\"volume\":%" PRId64
                   ",\"cache_hit\":%s,\"invalid\":%s}\n",
                   q.seq, q.client_id, q.node, q.wave, q.latency_ns, q.volume,
                   q.cache_hit ? "true" : "false", q.invalid ? "true" : "false");
    }
  });
}

}  // namespace volcal::serve
