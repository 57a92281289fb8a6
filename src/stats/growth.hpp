// Growth-class fitting: turns a measured cost curve {(n_i, cost_i)} into the
// Θ-class labels of Table 1.  We fit the candidate models the LCL literature
// distinguishes — Θ(1), Θ(log* n), Θ(log n), Θ(n^α) with 0 < α < 1, Θ(n) —
// by least squares on the appropriate transformed axes and pick the best R².
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace volcal::stats {

double log_star(double n);  // iterated log base 2

enum class GrowthClass {
  Constant,     // Θ(1)
  LogStar,      // Θ(log* n)
  Log,          // Θ(log n)
  PolyRoot,     // Θ(n^α), 0 < α < 1 (exponent reported)
  Linear,       // Θ(n)
};

std::string growth_name(GrowthClass g);

struct GrowthFit {
  GrowthClass cls = GrowthClass::Constant;
  double exponent = 0.0;   // α of the log-log fit (meaningful for PolyRoot/Linear)
  double r_squared = 0.0;  // of the winning model
  std::string label;       // human-readable, e.g. "Θ(log n)" or "Θ(n^0.34)"
};

// ns must be strictly increasing with >= 3 points; costs parallel, positive.
GrowthFit classify_growth(const std::vector<double>& ns, const std::vector<double>& costs);

// Least-squares slope/intercept/R² of y against x.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
};
LinearFit least_squares(const std::vector<double>& xs, const std::vector<double>& ys);

// Log-log slope: the empirical polynomial exponent of cost(n).
double loglog_slope(const std::vector<double>& ns, const std::vector<double>& costs);

}  // namespace volcal::stats
