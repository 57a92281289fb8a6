// Process-level performance probes feeding the telemetry artifacts:
//
//   * PhaseTimer — named wall-clock phase accumulation ("generate", "sweep",
//     "verify", ...).  Phases keep first-seen order so artifacts diff
//     stably; re-entering a name accumulates.
//   * rss_high_water_kb() — the process RSS high-water mark (ru_maxrss).
//   * alloc_snapshot() — global allocation counters.  The counters are
//     defined here (always linkable) but only *advance* when the optional
//     hook translation unit (perf/alloc_hook.cpp, target volcal_alloc_hook)
//     is linked into the binary: it replaces global operator new/delete with
//     counting forwarders.  Bench and tool binaries link the hook; tests and
//     the library don't have to, and sanitizer builds compile the hook away
//     so ASan keeps its own allocator interception.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace volcal::perf {

// --- allocation counters ----------------------------------------------------

struct AllocCounters {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> frees{0};
  std::atomic<std::uint64_t> bytes{0};       // cumulative bytes requested
  std::atomic<std::uint64_t> live_bytes{0};  // currently outstanding
  std::atomic<std::uint64_t> peak_bytes{0};  // high-water of live_bytes
  std::atomic<bool> hook_linked{false};      // set by alloc_hook.cpp's initializer
};

AllocCounters& alloc_counters();

// Plain-value snapshot, subtractable for per-section deltas.
struct AllocStats {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t bytes = 0;
  std::uint64_t peak_bytes = 0;

  friend AllocStats operator-(const AllocStats& a, const AllocStats& b) {
    // peak is a high-water mark, not a flow: the delta keeps the later peak.
    return {a.allocs - b.allocs, a.frees - b.frees, a.bytes - b.bytes, a.peak_bytes};
  }
  friend bool operator==(const AllocStats&, const AllocStats&) = default;
};

AllocStats alloc_snapshot();

// True when the counting operator new/delete hook is linked in (and not
// compiled away by a sanitizer build) — lets artifacts distinguish "zero
// allocations" from "not instrumented".
bool alloc_hook_active();

// --- RSS --------------------------------------------------------------------

// Resident-set-size high-water mark in KiB (getrusage ru_maxrss); 0 where
// unsupported.
std::int64_t rss_high_water_kb();

// --- phase timing -----------------------------------------------------------

class PhaseTimer {
 public:
  struct Phase {
    std::string name;
    double wall_seconds = 0.0;

    friend bool operator==(const Phase&, const Phase&) = default;
  };

  // RAII scope: accumulates elapsed wall time into the named phase on
  // destruction.
  class Scope {
   public:
    Scope(PhaseTimer& timer, std::string name)
        : timer_(&timer), name_(std::move(name)),
          begin_(std::chrono::steady_clock::now()) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      timer_->add(name_, std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - begin_)
                             .count());
    }

   private:
    PhaseTimer* timer_;
    std::string name_;
    std::chrono::steady_clock::time_point begin_;
  };

  Scope scope(std::string name) { return Scope(*this, std::move(name)); }

  void add(const std::string& name, double seconds) {
    for (Phase& p : phases_) {
      if (p.name == name) {
        p.wall_seconds += seconds;
        return;
      }
    }
    phases_.push_back({name, seconds});
  }

  double total_seconds() const {
    double t = 0.0;
    for (const Phase& p : phases_) t += p.wall_seconds;
    return t;
  }

  bool empty() const { return phases_.empty(); }
  const std::vector<Phase>& phases() const { return phases_; }

 private:
  std::vector<Phase> phases_;
};

// --- environment fingerprint ------------------------------------------------

// Identifies where a measurement came from.  Purely informational: the diff
// tool prints mismatches but never fails on them (artifacts are expected to
// be compared across machines and commits).
struct EnvFingerprint {
  std::string git_sha;     // VOLCAL_GIT_SHA at configure time, else "unknown"
  std::string compiler;    // e.g. "gcc 13.2.0"
  std::string flags;       // CMAKE_CXX_FLAGS at configure time
  std::string build_type;  // CMAKE_BUILD_TYPE at configure time
  std::string os;
  int threads = 1;  // resolved sweep-engine worker count
  // Plan execution backend: "batched", every runner's default.  Cost curves
  // are backend-invariant, so artifacts that say "basic" (the committed
  // baselines) still diff clean; the diff reports the field as a note.
  std::string backend = "batched";
};

EnvFingerprint current_env(int threads);

}  // namespace volcal::perf
