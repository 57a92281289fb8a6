// Spans recorded from the benchmark's own files around each call into a
// volcal layer.  Nothing in the library is instrumented: a span measures the
// public call as its caller sees it.
//
// A span has a name, a start, an end, a parent (the span open on the same
// thread when it began) and an optional request id shared by the spans of
// one request.  A span opened with no parent is a phase.  Closing a span
// charges its self time (duration minus the time its children cover) to
// (phase, name), so a phase's self times plus its residual (the phase span's
// own self time) add up to the phase's wall time exactly.  The aggregate
// covers every span; raw spans are kept in memory up to a cap and written as
// Chrome trace_event JSON when the run ends.
//
// With no tracer installed (the untraced pass) a Span costs one branch.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace volbench {

class Tracer {
 public:
  // Prints every phase's layer table (self time per layer, the layer being
  // the span-name prefix before the first '.', plus the residual) and
  // returns false if any phase's columns do not add up to its wall time.
  bool print_layer_tables(std::FILE* out) const;

  // Writes the kept spans as Chrome trace_event JSON.
  bool write_chrome_trace(const std::string& path) const;

  std::size_t spans_kept() const;
  std::int64_t spans_dropped() const;

 private:
  friend class Span;

  struct Record {
    int name = 0;
    int tid = 0;
    std::int64_t parent = -1;  // index of the parent record, -1 for none
    std::uint64_t req = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  struct NameTotals {
    std::int64_t self_ns = 0;
    std::int64_t count = 0;
  };
  struct Phase {
    int name = 0;
    int tid = 0;
    std::int64_t wall_ns = 0;
    std::int64_t residual_ns = 0;
    bool closed = false;
    std::map<int, NameTotals> by_name;
  };

  int intern(const char* name);
  int intern(const std::string& name);
  int thread_id();
  std::int64_t open(int name, int tid, std::int64_t parent, std::uint64_t req,
                    std::int64_t start_ns, bool is_phase, std::int64_t* phase_key);
  void close(std::int64_t record, std::int64_t phase_key, bool is_phase, int name,
             std::int64_t start_ns, std::int64_t end_ns, std::int64_t self_ns);

  static constexpr std::size_t kSpanCap = 500000;  // raw spans kept for the Chrome trace

  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::unordered_map<const char*, int> by_ptr_;
  std::map<std::string, int> by_str_;
  std::vector<Record> records_;
  std::int64_t dropped_ = 0;
  std::vector<Phase> phases_;
  int threads_ = 0;
};

// The tracer of the traced pass; nullptr while untraced.  Installed and
// removed only while no span is open.
extern Tracer* g_tracer;

// RAII span.  The const char* form keys the name by pointer (string
// literals); the std::string form is for names built at run time.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t req = 0);
  explicit Span(const std::string& name, std::uint64_t req = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void begin(int name, std::uint64_t req);
  bool on_ = false;
};

}  // namespace volbench
