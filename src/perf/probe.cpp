#include "perf/probe.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace volcal::perf {

AllocCounters& alloc_counters() {
  static AllocCounters counters;
  return counters;
}

AllocStats alloc_snapshot() {
  const AllocCounters& c = alloc_counters();
  AllocStats s;
  s.allocs = c.allocs.load(std::memory_order_relaxed);
  s.frees = c.frees.load(std::memory_order_relaxed);
  s.bytes = c.bytes.load(std::memory_order_relaxed);
  s.peak_bytes = c.peak_bytes.load(std::memory_order_relaxed);
  return s;
}

bool alloc_hook_active() {
  return alloc_counters().hook_linked.load(std::memory_order_relaxed);
}

std::int64_t rss_high_water_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return usage.ru_maxrss / 1024;  // bytes on macOS
#else
  return usage.ru_maxrss;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

EnvFingerprint current_env(int threads) {
  EnvFingerprint env;
#if defined(VOLCAL_GIT_SHA)
  env.git_sha = VOLCAL_GIT_SHA;
#else
  env.git_sha = "unknown";
#endif
#if defined(__clang__)
  env.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  env.compiler = "gcc " __VERSION__;
#else
  env.compiler = "unknown";
#endif
#if defined(VOLCAL_CXX_FLAGS)
  env.flags = VOLCAL_CXX_FLAGS;
#endif
#if defined(VOLCAL_BUILD_TYPE)
  env.build_type = VOLCAL_BUILD_TYPE;
#endif
#if defined(__linux__)
  env.os = "linux";
#elif defined(__APPLE__)
  env.os = "darwin";
#elif defined(_WIN32)
  env.os = "windows";
#else
  env.os = "unknown";
#endif
  env.threads = threads;
  return env;
}

}  // namespace volcal::perf
