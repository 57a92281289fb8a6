// Strict number parsing: the whole string must be consumed and the value
// must be in range.  VOLCAL_THREADS, the one VOLCAL_* runtime knob, falls
// back with exactly one stderr warning naming the variable, the rejected
// value and the fallback, so `VOLCAL_THREADS=eight` never runs serial
// unannounced; the tools' numeric flags exit 2 instead.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace volcal::env {

// All of `text` as a base-10 integer in [lo, hi]; nullopt when it is empty,
// has trailing junk, overflows, or lies outside the range.
std::optional<std::int64_t> parse_int(const char* text, std::int64_t lo,
                                      std::int64_t hi);

// All of `text` as a finite number in [lo, hi]; nullopt otherwise.
std::optional<double> parse_double(const char* text, double lo, double hi);

// The value of command-line flag `name` at argv[*i], given as `name=value`
// or as `name value` (then *i moves onto the value); nullptr when argv[*i]
// is another argument or `name` ends argv.
const char* flag_value(int argc, char** argv, int* i, const char* name);

// Command-line flags: parse_int / parse_double of `text`, or
//   <tool>: invalid <flag> 'text' (want a value in [lo, hi])
// on stderr and exit 2.
std::int64_t int_flag(const char* tool, const char* flag, const char* text,
                      std::int64_t lo, std::int64_t hi);
double number_flag(const char* tool, const char* flag, const char* text, double lo,
                   double hi);

// getenv(name) parsed as an integer in [1, max_value].  Returns nullopt
// (after a one-time warning describing `fallback_desc`) when the variable is
// set but rejected; nullopt silently when unset.
std::optional<std::int64_t> positive_int(const char* name, std::int64_t max_value,
                                         const std::string& fallback_desc);

// Number of warnings emitted so far (test hook; counts each variable once).
int warning_count_for_testing();

// Forgets which variables have warned so tests can re-provoke warnings.
void reset_warnings_for_testing();

}  // namespace volcal::env
