#include "util/env.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>

namespace volcal::env {

namespace {

std::mutex& warn_mu() {
  static std::mutex mu;
  return mu;
}

std::set<std::string>& warned_names() {
  static std::set<std::string> names;
  return names;
}

int warn_count = 0;

}  // namespace

void warn_invalid(const char* name, const std::string& value,
                  const std::string& reason, const std::string& fallback) {
  std::lock_guard lock(warn_mu());
  if (!warned_names().insert(name).second) return;
  ++warn_count;
  std::fprintf(stderr, "volcal: ignoring %s=\"%s\" (%s); using %s\n", name,
               value.c_str(), reason.c_str(), fallback.c_str());
}

std::optional<std::string> raw(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) return std::nullopt;
  return std::string(v);
}

std::optional<std::int64_t> positive_int(const char* name, std::int64_t max_value,
                                         const std::string& fallback_desc) {
  const char* v = std::getenv(name);
  if (v == nullptr) return std::nullopt;
  if (*v == '\0') {
    warn_invalid(name, v, "empty value", fallback_desc);
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0') {
    warn_invalid(name, v, "not an integer", fallback_desc);
    return std::nullopt;
  }
  if (errno == ERANGE || parsed > max_value) {
    warn_invalid(name, v, "exceeds maximum " + std::to_string(max_value),
                 fallback_desc);
    return std::nullopt;
  }
  if (parsed <= 0) {
    warn_invalid(name, v, "must be a positive integer", fallback_desc);
    return std::nullopt;
  }
  return parsed;
}

int warning_count_for_testing() {
  std::lock_guard lock(warn_mu());
  return warn_count;
}

void reset_warnings_for_testing() {
  std::lock_guard lock(warn_mu());
  warned_names().clear();
  warn_count = 0;
}

}  // namespace volcal::env
