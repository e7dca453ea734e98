#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace bellamy::util {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return 0.0;
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile: p outside [0,100]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted[0];
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double min(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return *std::min_element(xs.begin(), xs.end());
}

double max(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return *std::max_element(xs.begin(), xs.end());
}

double coeff_of_variation(std::span<const double> xs) {
  const double m = mean(xs);
  if (m == 0.0) return 0.0;
  return stddev(xs) / m;
}

std::vector<double> ecdf(std::span<const double> xs, std::span<const double> thresholds) {
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> out;
  out.reserve(thresholds.size());
  for (double t : thresholds) {
    const auto it = std::upper_bound(sorted.begin(), sorted.end(), t);
    const auto cnt = static_cast<double>(std::distance(sorted.begin(), it));
    out.push_back(sorted.empty() ? 0.0 : cnt / static_cast<double>(sorted.size()));
  }
  return out;
}

}  // namespace bellamy::util
