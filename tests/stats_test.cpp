#include <gtest/gtest.h>

#include <cmath>

#include "stats/growth.hpp"
#include "stats/table.hpp"

namespace volcal::stats {
namespace {

std::vector<double> sweep() {
  std::vector<double> ns;
  for (double n = 256; n <= 1 << 20; n *= 4) ns.push_back(n);
  return ns;
}

TEST(LogStar, KnownValues) {
  EXPECT_DOUBLE_EQ(log_star(1), 0);
  EXPECT_DOUBLE_EQ(log_star(2), 1);
  EXPECT_DOUBLE_EQ(log_star(4), 2);
  EXPECT_DOUBLE_EQ(log_star(16), 3);
  EXPECT_DOUBLE_EQ(log_star(65536), 4);
}

TEST(LeastSquares, PerfectLine) {
  auto fit = least_squares({1, 2, 3, 4}, {3, 5, 7, 9});
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(LeastSquares, NeedsTwoPoints) {
  EXPECT_THROW(least_squares({1}, {1}), std::invalid_argument);
  EXPECT_THROW(least_squares({1, 2}, {1}), std::invalid_argument);
}

TEST(LogLogSlope, Sqrt) {
  std::vector<double> ns = sweep(), cs;
  for (double n : ns) cs.push_back(3 * std::sqrt(n));
  EXPECT_NEAR(loglog_slope(ns, cs), 0.5, 0.01);
}

TEST(ClassifyGrowth, Constant) {
  std::vector<double> ns = sweep(), cs(ns.size(), 7.0);
  EXPECT_EQ(classify_growth(ns, cs).cls, GrowthClass::Constant);
}

TEST(ClassifyGrowth, Logarithmic) {
  std::vector<double> ns = sweep(), cs;
  for (double n : ns) cs.push_back(4 * std::log2(n) + 3);
  auto fit = classify_growth(ns, cs);
  EXPECT_EQ(fit.cls, GrowthClass::Log) << fit.label;
}

TEST(ClassifyGrowth, Linear) {
  std::vector<double> ns = sweep(), cs;
  for (double n : ns) cs.push_back(0.5 * n + 10);
  auto fit = classify_growth(ns, cs);
  EXPECT_EQ(fit.cls, GrowthClass::Linear) << fit.label;
  EXPECT_NEAR(fit.exponent, 1.0, 0.1);
}

TEST(ClassifyGrowth, SquareRoot) {
  std::vector<double> ns = sweep(), cs;
  for (double n : ns) cs.push_back(2 * std::sqrt(n));
  auto fit = classify_growth(ns, cs);
  EXPECT_EQ(fit.cls, GrowthClass::PolyRoot) << fit.label;
  EXPECT_NEAR(fit.exponent, 0.5, 0.05);
}

TEST(ClassifyGrowth, CubeRoot) {
  std::vector<double> ns = sweep(), cs;
  for (double n : ns) cs.push_back(5 * std::cbrt(n));
  auto fit = classify_growth(ns, cs);
  EXPECT_EQ(fit.cls, GrowthClass::PolyRoot) << fit.label;
  EXPECT_NEAR(fit.exponent, 1.0 / 3.0, 0.05);
}

TEST(ClassifyGrowth, NoisyLogStaysLog) {
  std::vector<double> ns = sweep(), cs;
  int flip = 1;
  for (double n : ns) {
    cs.push_back(16 * std::log2(n) * (1.0 + 0.05 * flip));
    flip = -flip;
  }
  EXPECT_EQ(classify_growth(ns, cs).cls, GrowthClass::Log);
}

TEST(Table, RendersAligned) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"β", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("β"), std::string::npos);
  EXPECT_NE(out.find("--"), std::string::npos);
}

}  // namespace
}  // namespace volcal::stats
