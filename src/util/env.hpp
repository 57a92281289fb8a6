// Strict environment-variable parsing with loud (but one-time) fallback.
//
// Every VOLCAL_* knob used to have its own ad-hoc parser, and each one
// swallowed misconfiguration silently: `VOLCAL_CACHE=sharde` ran uncached
// and `VOLCAL_THREADS=eight` ran serial — both without a word.  These helpers
// parse strictly (whole string must be consumed, value must be in range) and
// emit exactly one stderr warning per variable per process naming the
// variable, the rejected value, and the fallback actually used.  A valid
// value never warns, and an unset variable is not a misconfiguration.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace volcal::env {

// getenv(name) parsed as a strictly positive integer <= max_value.  Returns
// nullopt (after a one-time warning describing `fallback_desc`) when the
// variable is set but empty, non-numeric, has trailing junk, is <= 0, or
// exceeds max_value; nullopt silently when unset.
std::optional<std::int64_t> positive_int(const char* name, std::int64_t max_value,
                                         const std::string& fallback_desc);

// getenv(name) as a raw string, or nullopt when unset.  Callers that parse
// enumerations combine this with warn_invalid on rejection.
std::optional<std::string> raw(const char* name);

// Records a misconfiguration of `name`: one warning per variable per process,
//   volcal: ignoring NAME="value" (reason); using fallback
// Safe to call from multiple threads; later calls for the same name are
// dropped.
void warn_invalid(const char* name, const std::string& value,
                  const std::string& reason, const std::string& fallback);

// Number of warnings emitted so far (test hook; counts each variable once).
int warning_count_for_testing();

// Forgets which variables have warned so tests can re-provoke warnings.
void reset_warnings_for_testing();

}  // namespace volcal::env
