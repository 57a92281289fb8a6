#include "runtime/parallel_runner.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <thread>

#include "util/env.hpp"

namespace volcal {

bool CacheConfig::policy_from_name(const char* name, CachePolicy* out) {
  if (name == nullptr || out == nullptr) return false;
  if (std::strcmp(name, "off") == 0 || name[0] == '\0' || std::strcmp(name, "0") == 0) {
    *out = CachePolicy::Off;
    return true;
  }
  if (std::strcmp(name, "shared") == 0) {
    *out = CachePolicy::Shared;
    return true;
  }
  return false;
}

CacheConfig CacheConfig::from_env() {
  CacheConfig config;
  if (const auto policy = env::raw("VOLCAL_CACHE")) {
    // Unrecognized values keep the safe default (Off) rather than aborting a
    // bench run over a typo — but loudly, exactly once: `VOLCAL_CACHE=sharde`
    // silently running without reuse wastes a whole measurement session.
    if (!policy_from_name(policy->c_str(), &config.policy)) {
      env::warn_invalid("VOLCAL_CACHE", *policy, "not one of off|shared", "policy off");
    }
  }
  return config;
}

}  // namespace volcal

namespace volcal::detail {

int resolve_thread_count(int requested) {
  if (requested > 0) return std::min(requested, 256);
  // Strict parse: `VOLCAL_THREADS=eight` used to run serial without a word.
  if (const auto parsed = env::positive_int("VOLCAL_THREADS", 256, "1 thread")) {
    return static_cast<int>(*parsed);
  }
  return 1;
}

std::int64_t sweep_chunk(std::int64_t items, int workers) {
  if (workers <= 1) return std::max<std::int64_t>(items, 1);
  // Aim for ~8 chunks per worker so a slow chunk cannot strand the pool,
  // capped so the atomic counter stays cold relative to the work per chunk.
  const std::int64_t target = items / (static_cast<std::int64_t>(workers) * 8);
  return std::clamp<std::int64_t>(target, 1, 1024);
}

void run_on_workers(int workers, const std::function<void(int)>& body) {
  if (workers <= 1) {
    body(0);
    return;
  }
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(workers));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers) - 1);
  for (int w = 1; w < workers; ++w) {
    pool.emplace_back([&body, &errors, w] {
      try {
        body(w);
      } catch (...) {
        errors[static_cast<std::size_t>(w)] = std::current_exception();
      }
    });
  }
  try {
    body(0);
  } catch (...) {
    errors[0] = std::current_exception();
  }
  for (auto& t : pool) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

std::vector<std::int64_t> first_occurrences(NodeIndex node_capacity,
                                            std::span<const NodeIndex> starts) {
  std::vector<std::int64_t> seen(static_cast<std::size_t>(node_capacity), -1);
  std::vector<std::int64_t> first(starts.size());
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const NodeIndex v = starts[i];
    first[i] = static_cast<std::int64_t>(i);
    if (v < 0 || v >= node_capacity) continue;  // the execution rejects it
    std::int64_t& f = seen[static_cast<std::size_t>(v)];
    if (f < 0) f = first[i];
    first[i] = f;
  }
  return first;
}

}  // namespace volcal::detail
