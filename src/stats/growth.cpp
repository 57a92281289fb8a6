#include "stats/growth.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace volcal::stats {

double log_star(double n) {
  double count = 0;
  while (n > 1.0) {
    n = std::log2(n);
    ++count;
  }
  return count;
}

std::string growth_name(GrowthClass g) {
  switch (g) {
    case GrowthClass::Constant: return "Θ(1)";
    case GrowthClass::LogStar: return "Θ(log* n)";
    case GrowthClass::Log: return "Θ(log n)";
    case GrowthClass::PolyRoot: return "Θ(n^α)";
    case GrowthClass::Linear: return "Θ(n)";
  }
  return "?";
}

LinearFit least_squares(const std::vector<double>& xs, const std::vector<double>& ys) {
  if (xs.size() != ys.size() || xs.size() < 2) {
    throw std::invalid_argument("least_squares: need >= 2 paired points");
  }
  const double n = static_cast<double>(xs.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
    syy += ys[i] * ys[i];
  }
  const double denom = n * sxx - sx * sx;
  LinearFit fit;
  if (std::abs(denom) < 1e-12) {
    // Constant x cannot explain varying y: R² is 1 only if y is constant too.
    fit.slope = 0;
    fit.intercept = sy / n;
    const double mean_y = sy / n;
    double ss_tot = 0;
    for (double y : ys) ss_tot += (y - mean_y) * (y - mean_y);
    fit.r_squared = ss_tot < 1e-12 ? 1.0 : 0.0;
    return fit;
  }
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  double ss_res = 0, ss_tot = 0;
  const double mean_y = sy / n;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double pred = fit.slope * xs[i] + fit.intercept;
    ss_res += (ys[i] - pred) * (ys[i] - pred);
    ss_tot += (ys[i] - mean_y) * (ys[i] - mean_y);
  }
  fit.r_squared = ss_tot < 1e-12 ? 1.0 : 1.0 - ss_res / ss_tot;
  return fit;
}

double loglog_slope(const std::vector<double>& ns, const std::vector<double>& costs) {
  std::vector<double> lx, ly;
  lx.reserve(ns.size());
  ly.reserve(ns.size());
  for (std::size_t i = 0; i < ns.size(); ++i) {
    lx.push_back(std::log(ns[i]));
    ly.push_back(std::log(std::max(costs[i], 1e-9)));
  }
  return least_squares(lx, ly).slope;
}

GrowthFit classify_growth(const std::vector<double>& ns, const std::vector<double>& costs) {
  if (ns.size() != costs.size() || ns.size() < 3) {
    throw std::invalid_argument("classify_growth: need >= 3 paired points");
  }
  // Candidate feature transforms x(n); the model is cost ≈ a·x(n) + b.
  struct Candidate {
    GrowthClass cls;
    double (*transform)(double);
  };
  static const Candidate kCandidates[] = {
      {GrowthClass::LogStar, +[](double n) { return log_star(n); }},
      {GrowthClass::Log, +[](double n) { return std::log2(n); }},
      {GrowthClass::Linear, +[](double n) { return n; }},
  };
  GrowthFit best;
  best.r_squared = -1e18;
  // A flat curve defeats every fit: call it constant when the spread is tiny.
  {
    const double lo = *std::min_element(costs.begin(), costs.end());
    const double hi = *std::max_element(costs.begin(), costs.end());
    if (hi <= 1.3 * std::max(lo, 1e-9)) {
      best.cls = GrowthClass::Constant;
      best.r_squared = 1.0;
    }
  }
  for (const auto& cand : kCandidates) {
    // The flat-curve shortcut sets r_squared to exactly 1.0 today, but gate
    // on an epsilon so a future computed R² cannot dodge the break by
    // rounding (floating-point equality was the original bug here).
    if (best.cls == GrowthClass::Constant && best.r_squared >= 1.0 - 1e-9) break;
    std::vector<double> xs;
    xs.reserve(ns.size());
    for (double n : ns) xs.push_back(cand.transform(n));
    const LinearFit fit = least_squares(xs, costs);
    if (fit.r_squared > best.r_squared) {
      best.cls = cand.cls;
      best.r_squared = fit.r_squared;
    }
  }
  // Polynomial family via log-log slope; wins when the exponent is clearly
  // positive and the log-log fit explains the curve at least as well as the
  // raw-axis candidates (a small handicap keeps genuinely logarithmic curves,
  // whose log-log slope drifts to 0 as n grows, out of the poly family).
  {
    std::vector<double> lx, ly;
    for (std::size_t i = 0; i < ns.size(); ++i) {
      lx.push_back(std::log(ns[i]));
      ly.push_back(std::log(std::max(costs[i], 1e-9)));
    }
    const LinearFit ll = least_squares(lx, ly);
    // Take the poly family when it beats every raw-axis candidate outright,
    // or when it is close and no raw-axis candidate is convincing (genuinely
    // logarithmic curves fit their own transform near-perfectly, so they are
    // protected by the 0.985 gate).
    const bool poly_better = ll.r_squared > best.r_squared;
    const bool poly_close = ll.r_squared > best.r_squared - 0.05 && best.r_squared < 0.985;
    if (ll.slope > 0.15 && ll.r_squared > 0.9 && (poly_better || poly_close)) {
      best.cls = ll.slope > 0.9 ? GrowthClass::Linear : GrowthClass::PolyRoot;
      best.exponent = ll.slope;
      best.r_squared = ll.r_squared;
    } else {
      best.exponent = ll.slope;
    }
  }
  switch (best.cls) {
    case GrowthClass::PolyRoot: {
      char buf[48];
      std::snprintf(buf, sizeof buf, "Θ(n^%.2f)", best.exponent);
      best.label = buf;
      break;
    }
    default:
      best.label = growth_name(best.cls);
  }
  return best;
}

}  // namespace volcal::stats
