#include "util/env.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

std::optional<std::int64_t> parse_int(const char* text, std::int64_t lo,
                                      std::int64_t hi) {
  if (*text == '\0') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (*end != '\0' || errno == ERANGE || v < lo || v > hi) return std::nullopt;
  return v;
}

std::optional<double> parse_double(const char* text, double lo, double hi) {
  if (*text == '\0') return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (*end != '\0' || !std::isfinite(v) || v < lo || v > hi) return std::nullopt;
  return v;
}

const char* flag_value(int argc, char** argv, int* i, const char* name) {
  const char* arg = argv[*i];
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return nullptr;
  if (arg[len] == '=') return arg + len + 1;
  if (arg[len] == '\0' && *i + 1 < argc) return argv[++*i];
  return nullptr;
}

std::int64_t int_flag(const char* tool, const char* flag, const char* text,
                      std::int64_t lo, std::int64_t hi) {
  if (const auto v = parse_int(text, lo, hi)) return *v;
  std::fprintf(stderr, "%s: invalid %s '%s' (want an integer in [%lld, %lld])\n", tool, flag,
               text, static_cast<long long>(lo), static_cast<long long>(hi));
  std::exit(2);
}

double number_flag(const char* tool, const char* flag, const char* text, double lo,
                   double hi) {
  if (const auto v = parse_double(text, lo, hi)) return *v;
  std::fprintf(stderr, "%s: invalid %s '%s' (want a number in [%g, %g])\n", tool, flag, text,
               lo, hi);
  std::exit(2);
}

std::optional<std::int64_t> positive_int(const char* name, std::int64_t max_value,
                                         const std::string& fallback_desc) {
  const char* v = std::getenv(name);
  if (v == nullptr) return std::nullopt;
  const auto parsed = parse_int(v, 1, max_value);
  if (!parsed) {
    // One warning per variable per process, whichever thread asks first.
    std::lock_guard lock(warn_mu());
    if (warned_names().insert(name).second) {
      ++warn_count;
      std::fprintf(stderr,
                   "volcal: ignoring %s=\"%s\" (not an integer in [1, %lld]); using %s\n",
                   name, v, static_cast<long long>(max_value), fallback_desc.c_str());
    }
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
