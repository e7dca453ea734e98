#pragma once
// Descriptive statistics helpers used by the evaluation harness and the
// benchmark report generators (mean/median/stddev/percentiles/eCDF).

#include <span>
#include <vector>

namespace bellamy::util {

/// Arithmetic mean; returns 0 for an empty span.
double mean(std::span<const double> xs);

/// Unbiased sample variance (n-1 denominator); returns 0 for n < 2.
double variance(std::span<const double> xs);

/// Sample standard deviation.
double stddev(std::span<const double> xs);

/// Median (average of middle two for even n); returns 0 for empty input.
double median(std::span<const double> xs);

/// Linear-interpolation percentile, p in [0, 100].
double percentile(std::span<const double> xs, double p);

/// Min / max; both 0 for empty input.
double min(std::span<const double> xs);
double max(std::span<const double> xs);

/// Coefficient of variation (stddev / mean); 0 if mean is 0.
double coeff_of_variation(std::span<const double> xs);

/// Empirical CDF evaluated at the given thresholds: fraction of xs <= t.
std::vector<double> ecdf(std::span<const double> xs, std::span<const double> thresholds);

}  // namespace bellamy::util
