#pragma once

/// \file stat_gates.hpp
/// Shared statistical gates for the equivalence/robustness tests. The
/// engine-equivalence, perturbation, and latency suites all compare
/// sampled distributions against each other or against analytic
/// moments; the gates and their thresholds live here once so every
/// suite fails (and passes) for the same documented reason.
///
/// Thresholds:
///   - kKsGate = 0.45: two-sample KS distance bound for 30-40 vs 30-40
///     samples. The alpha = 0.001 critical value is
///     c(alpha) * sqrt((na+nb)/(na*nb)) with c(alpha) =
///     sqrt(ln(2/alpha)/2) ~ 1.95 — i.e. ~0.50 at 30v30 and ~0.44 at
///     40v40 — so 0.45 rejects only distributions that differ grossly
///     (false-positive rate well under 1e-3) while still catching a
///     one-pooled-sigma location shift with high power at these sizes
///     (see test_stat_gates.cpp, which measures both rates).
///   - mean_tolerance: two means agree when |ma - mb| is within the sum
///     of the two 95% CI half-widths plus a small absolute slack (the
///     slack absorbs quantization: engines that tick on epochs or
///     steps shift means by up to one grid cell).
///   - mean_z: the z-score form of the same moment gate,
///     |ma - mb| / sqrt(se_a^2 + se_b^2); kMeanZGate = 4.0 is a
///     two-sided ~6e-5 false-positive rate under equality.
///   - chi_square: Pearson's statistic of observed counts against the
///     cell probabilities a sampler should draw; chi_square_critical
///     places its gate at the upper tail of the chi-square law at the
///     same normal deviate (z = 4, ~3e-5 false-positive rate).

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "stats/quantiles.hpp"

namespace plurality::stat_gates {

/// Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|. Both ECDFs
/// are evaluated after consuming *all* occurrences of each distinct
/// value — engines that quantize times (sharded epochs, sequential
/// steps) produce exact cross-sample ties, which must not inflate D
/// (two identical samples have D = 0). Requires non-empty samples.
inline double ks_statistic(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  double d = 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const double value = std::min(a[i], b[j]);
    while (i < a.size() && a[i] == value) ++i;
    while (j < b.size() && b[j] == value) ++j;
    const double fa = static_cast<double>(i) / static_cast<double>(a.size());
    const double fb = static_cast<double>(j) / static_cast<double>(b.size());
    d = std::max(d, std::abs(fa - fb));
  }
  return d;
}

/// Asymptotic two-sample KS critical value at significance alpha:
/// D > ks_critical(...) rejects "same distribution" at level ~alpha.
inline double ks_critical(std::size_t na, std::size_t nb, double alpha) {
  const double c = std::sqrt(std::log(2.0 / alpha) / 2.0);
  const double a = static_cast<double>(na);
  const double b = static_cast<double>(nb);
  return c * std::sqrt((a + b) / (a * b));
}

/// The shared KS gate used by the engine/perturbation equivalence
/// suites (see the file comment for the derivation).
inline constexpr double kKsGate = 0.45;

/// Moment gate tolerance: two sampled means are declared equal when
/// |ma - mb| <= ci95_a + ci95_b + slack. Use with EXPECT_NEAR so gtest
/// reports both means on failure.
inline double mean_tolerance(const Summary& a, const Summary& b,
                             double slack = 1.0) {
  return a.ci95_halfwidth + b.ci95_halfwidth + slack;
}

/// Two-sample z-score of the difference of means (standard errors from
/// each sample's own stddev). Infinity when either side has no spread
/// but the means differ; 0 when the means are exactly equal.
inline double mean_z(const Summary& a, const Summary& b) {
  if (a.mean == b.mean) return 0.0;
  const double se_a =
      a.count > 0 ? a.stddev / std::sqrt(static_cast<double>(a.count)) : 0.0;
  const double se_b =
      b.count > 0 ? b.stddev / std::sqrt(static_cast<double>(b.count)) : 0.0;
  const double se = std::sqrt(se_a * se_a + se_b * se_b);
  if (se == 0.0) return std::numeric_limits<double>::infinity();
  return std::abs(a.mean - b.mean) / se;
}

/// The shared z-score gate paired with mean_z.
inline constexpr double kMeanZGate = 4.0;

/// Raw sample moments (population variance) plus the minimum — the
/// latency suite compares these against analytic sampler moments.
struct SampleMoments {
  double mean = 0.0;
  double variance = 0.0;
  double min = 0.0;
};

inline SampleMoments moments(const std::vector<double>& xs) {
  double sum = 0.0;
  double sum_sq = 0.0;
  double min = std::numeric_limits<double>::infinity();
  for (const double x : xs) {
    sum += x;
    sum_sq += x * x;
    min = std::min(min, x);
  }
  const double n = static_cast<double>(xs.size());
  SampleMoments m;
  m.mean = sum / n;
  m.variance = sum_sq / n - m.mean * m.mean;
  m.min = min;
  return m;
}

/// Pearson's chi-square statistic of `counts` against cell
/// probabilities proportional to `weights` (same length, every weight
/// > 0).
inline double chi_square(const std::vector<std::uint64_t>& counts,
                         const std::vector<double>& weights) {
  double draws = 0.0;
  for (const std::uint64_t c : counts) draws += static_cast<double>(c);
  double total = 0.0;
  for (const double w : weights) total += w;
  double chi2 = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double expected = draws * weights[i] / total;
    const double d = static_cast<double>(counts[i]) - expected;
    chi2 += d * d / expected;
  }
  return chi2;
}

/// Upper critical value of the chi-square law with `df` degrees of
/// freedom at normal deviate `z`, by Wilson & Hilferty's cube-root
/// approximation (PNAS 17(12), 1931), accurate to a few tenths of a
/// percent at df in the hundreds.
inline double chi_square_critical(std::size_t df, double z) {
  const double a = 2.0 / (9.0 * static_cast<double>(df));
  const double root = 1.0 - a + z * std::sqrt(a);
  return static_cast<double>(df) * root * root * root;
}

}  // namespace plurality::stat_gates
