// Strict environment parsing (util/env.hpp): whole-string integer parses,
// one-time-per-variable warnings on misconfiguration, and the strict
// behavior of the VOLCAL_THREADS / VOLCAL_CACHE / VOLCAL_BACKEND consumers.
#include <gtest/gtest.h>

#include <cstdlib>

#include "plan/probe_plan.hpp"
#include "util/env.hpp"
#include "volcal/runtime.hpp"

namespace volcal {
namespace {

class EnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env::reset_warnings_for_testing();
    ::unsetenv("VOLCAL_TEST_KNOB");
  }
  void TearDown() override {
    ::unsetenv("VOLCAL_TEST_KNOB");
    env::reset_warnings_for_testing();
  }
};

TEST_F(EnvTest, UnsetIsSilentlyAbsent) {
  EXPECT_EQ(env::positive_int("VOLCAL_TEST_KNOB", 100, "default"), std::nullopt);
  EXPECT_EQ(env::raw("VOLCAL_TEST_KNOB"), std::nullopt);
  EXPECT_EQ(env::warning_count_for_testing(), 0);
}

TEST_F(EnvTest, ValidValuesParseWithoutWarning) {
  ASSERT_EQ(setenv("VOLCAL_TEST_KNOB", "8", 1), 0);
  EXPECT_EQ(env::positive_int("VOLCAL_TEST_KNOB", 256, "default"), 8);
  ASSERT_EQ(setenv("VOLCAL_TEST_KNOB", "256", 1), 0);
  EXPECT_EQ(env::positive_int("VOLCAL_TEST_KNOB", 256, "default"), 256);
  EXPECT_EQ(env::warning_count_for_testing(), 0);
}

TEST_F(EnvTest, RejectsGarbageWithOneWarningPerVariable) {
  for (const char* bad : {"", "abc", "8 threads", "12junk", "0", "-3", "257",
                          "99999999999999999999"}) {
    env::reset_warnings_for_testing();
    ASSERT_EQ(setenv("VOLCAL_TEST_KNOB", bad, 1), 0);
    EXPECT_EQ(env::positive_int("VOLCAL_TEST_KNOB", 256, "default"), std::nullopt)
        << "value \"" << bad << "\" should be rejected";
    EXPECT_EQ(env::warning_count_for_testing(), 1) << "value \"" << bad << "\"";
    // The same variable never warns twice in one process.
    EXPECT_EQ(env::positive_int("VOLCAL_TEST_KNOB", 256, "default"), std::nullopt);
    EXPECT_EQ(env::warning_count_for_testing(), 1);
  }
}

TEST_F(EnvTest, CacheConfigFromEnvParsing) {
  ASSERT_EQ(setenv("VOLCAL_CACHE", "shared", 1), 0);
  EXPECT_EQ(CacheConfig::from_env().policy, CachePolicy::Shared);
  ASSERT_EQ(setenv("VOLCAL_CACHE", "off", 1), 0);
  EXPECT_EQ(CacheConfig::from_env().policy, CachePolicy::Off);
  ASSERT_EQ(setenv("VOLCAL_CACHE", "not-a-policy", 1), 0);
  EXPECT_EQ(CacheConfig::from_env().policy, CachePolicy::Off);  // safe default
  ASSERT_EQ(unsetenv("VOLCAL_CACHE"), 0);
  EXPECT_EQ(CacheConfig::from_env().policy, CachePolicy::Off);
}

// Misconfigured policies keep the safe default but warn exactly once per
// variable: a typo'd policy used to be swallowed silently, and the retired
// per-start policy is now a misconfiguration like any other.
TEST_F(EnvTest, CacheConfigFromEnvWarnsOnMisconfiguration) {
  for (const char* bad : {"sharde", "perstart", "per-start"}) {
    env::reset_warnings_for_testing();
    ASSERT_EQ(setenv("VOLCAL_CACHE", bad, 1), 0);
    EXPECT_EQ(CacheConfig::from_env().policy, CachePolicy::Off) << bad;
    EXPECT_EQ(env::warning_count_for_testing(), 1) << bad;
    // Re-reading does not warn again (one-time per variable per process).
    EXPECT_EQ(CacheConfig::from_env().policy, CachePolicy::Off);
    EXPECT_EQ(env::warning_count_for_testing(), 1);
  }
  env::reset_warnings_for_testing();
  ASSERT_EQ(unsetenv("VOLCAL_CACHE"), 0);
  EXPECT_EQ(CacheConfig::from_env().policy, CachePolicy::Off);
  EXPECT_EQ(env::warning_count_for_testing(), 0);  // unset is not an error
}

TEST_F(EnvTest, ThreadCountParsesStrictly) {
  // Explicit request wins regardless of the environment.
  ASSERT_EQ(setenv("VOLCAL_THREADS", "7", 1), 0);
  EXPECT_EQ(detail::resolve_thread_count(3), 3);
  EXPECT_EQ(detail::resolve_thread_count(0), 7);
  // Garbage falls back to serial — loudly (one warning), not silently.
  env::reset_warnings_for_testing();
  ASSERT_EQ(setenv("VOLCAL_THREADS", "eight", 1), 0);
  EXPECT_EQ(detail::resolve_thread_count(0), 1);
  EXPECT_EQ(env::warning_count_for_testing(), 1);
  ASSERT_EQ(unsetenv("VOLCAL_THREADS"), 0);
  EXPECT_EQ(detail::resolve_thread_count(0), 1);
}

TEST_F(EnvTest, BackendParsesStrictly) {
  ASSERT_EQ(setenv("VOLCAL_BACKEND", "basic", 1), 0);
  EXPECT_EQ(backend_from_env(), ExecBackend::Basic);
  env::reset_warnings_for_testing();
  ASSERT_EQ(setenv("VOLCAL_BACKEND", "basick", 1), 0);
  EXPECT_EQ(backend_from_env(), ExecBackend::Batched);  // safe default kept
  EXPECT_EQ(env::warning_count_for_testing(), 1);
  ASSERT_EQ(unsetenv("VOLCAL_BACKEND"), 0);
  EXPECT_EQ(backend_from_env(), ExecBackend::Batched);
}

}  // namespace
}  // namespace volcal
