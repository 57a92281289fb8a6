// Strict number parsing (util/env.hpp): whole-string parses in range,
// one-time-per-variable warnings on misconfiguration, and the strict
// behavior of the VOLCAL_THREADS consumer.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>

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

// The parsers behind the tools' numeric flags (volcal_serve, volcal_load).
TEST_F(EnvTest, FlagParsersTakeTheWholeStringInRange) {
  EXPECT_EQ(env::parse_int("256", 1, 256), 256);
  EXPECT_EQ(env::parse_int("0", 0, 4294967295), 0);
  for (const char* bad : {"", "abc", "xyz", "8 threads", "-1", "0", "257",
                          "99999999999999999999"}) {
    EXPECT_EQ(env::parse_int(bad, 1, 256), std::nullopt) << "\"" << bad << "\"";
  }
  const double max = std::numeric_limits<double>::max();
  EXPECT_EQ(env::parse_double("0", 0.0, max), 0.0);
  EXPECT_EQ(env::parse_double("2.5", 0.0, max), 2.5);
  for (const char* bad : {"", "abc", "1.5ms", "-5", "inf", "nan", "1e999"}) {
    EXPECT_EQ(env::parse_double(bad, 0.0, max), std::nullopt) << "\"" << bad << "\"";
  }
  EXPECT_EQ(env::warning_count_for_testing(), 0);  // only positive_int warns
}

// Every tool reads a flag's value as `--flag=value` or `--flag value`.
TEST_F(EnvTest, FlagValueTakesBothSpellings) {
  char* argv[] = {const_cast<char*>("tool"),    const_cast<char*>("--seed=5"),
                  const_cast<char*>("--seed"),  const_cast<char*>("6"),
                  const_cast<char*>("--seeds"), const_cast<char*>("--seed"), nullptr};
  int i = 1;
  EXPECT_STREQ(env::flag_value(6, argv, &i, "--seed"), "5");
  EXPECT_EQ(i, 1);
  i = 2;
  EXPECT_EQ(env::flag_value(6, argv, &i, "--max-n"), nullptr);
  EXPECT_STREQ(env::flag_value(6, argv, &i, "--seed"), "6");
  EXPECT_EQ(i, 3);  // moved onto the value
  i = 4;            // another flag sharing the prefix
  EXPECT_EQ(env::flag_value(6, argv, &i, "--seed"), nullptr);
  i = 5;            // the flag ends argv: no value
  EXPECT_EQ(env::flag_value(6, argv, &i, "--seed"), nullptr);
  EXPECT_EQ(i, 5);
}

}  // namespace
}  // namespace volcal
