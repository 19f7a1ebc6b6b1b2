#pragma once

/// \file distributions.hpp
/// Sampling primitives built on any 64-bit uniform bit generator.
/// Implemented in-library (not via <random> distributions) so that
/// results are identical across standard-library implementations, which
/// the reproducibility guarantees in docs/EXPERIMENTS.md rely on.

#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
#include <random>

#include "support/assert.hpp"

namespace plurality {

/// Any generator producing full-width uniform 64-bit words.
template <typename G>
concept BitGenerator64 =
    std::uniform_random_bit_generator<G> &&
    std::same_as<typename G::result_type, std::uint64_t> &&
    G::min() == 0 && G::max() == std::numeric_limits<std::uint64_t>::max();

/// Uniform integer in [0, bound) by Lemire's multiply-shift method with
/// rejection — unbiased and branch-light. Requires bound > 0. Every
/// neighbor draw goes through it, so it is always inlined: whether the
/// tick loop calls it must not hang on GCC's per-unit inline budget.
///
/// The 128-bit multiply is a localized GCC/Clang extension (Core
/// Guidelines P.2: encapsulate necessary extensions behind an interface).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpedantic"
template <BitGenerator64 G>
[[gnu::always_inline]] inline std::uint64_t uniform_below(
    G& gen, std::uint64_t bound) {
  PC_EXPECTS(bound > 0);
  using u128 = unsigned __int128;
  std::uint64_t x = gen();
  u128 m = static_cast<u128>(x) * static_cast<u128>(bound);
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = gen();
      m = static_cast<u128>(x) * static_cast<u128>(bound);
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}
#pragma GCC diagnostic pop

/// Uniform double in [0, 1) with 53 random bits.
template <BitGenerator64 G>
inline double uniform_unit(G& gen) {
  return static_cast<double>(gen() >> 11) * 0x1.0p-53;
}

/// Uniform double in (0, 1]; safe to pass to log().
template <BitGenerator64 G>
inline double uniform_open(G& gen) {
  return static_cast<double>((gen() >> 11) + 1) * 0x1.0p-53;
}

/// Exp(1) draw with no rate division: engines on the hot path hoist the
/// 1/rate scale out of the tick loop and multiply the unit draw instead.
template <BitGenerator64 G>
inline double exponential_unit(G& gen) {
  return -std::log(uniform_open(gen));
}

/// Exponential with the given rate (mean 1/rate). Requires rate > 0.
/// This is the inter-tick law of the paper's Poisson clocks (lambda = 1)
/// and of the response-delay extension.
template <BitGenerator64 G>
inline double exponential(G& gen, double rate) {
  PC_EXPECTS(rate > 0.0);
  return exponential_unit(gen) / rate;
}

namespace detail {

/// Knuth's product method; exact but O(mean), so reserved for small means.
template <BitGenerator64 G>
inline std::uint64_t poisson_knuth(G& gen, double mean) {
  const double limit = std::exp(-mean);
  std::uint64_t count = 0;
  double product = uniform_unit(gen);
  while (product > limit) {
    ++count;
    product *= uniform_unit(gen);
  }
  return count;
}

}  // namespace detail

/// Poisson(mean). Exact for every mean: small means use Knuth's method;
/// large means split recursively using the additivity of the Poisson law
/// (Poisson(a) + Poisson(b) ~ Poisson(a + b)). Requires mean >= 0.
template <BitGenerator64 G>
inline std::uint64_t poisson(G& gen, double mean) {
  PC_EXPECTS(mean >= 0.0);
  if (mean == 0.0) return 0;
  if (mean <= 32.0) return detail::poisson_knuth(gen, mean);
  const double half = mean / 2.0;
  return poisson(gen, half) + poisson(gen, mean - half);
}

/// Gamma(shape, 1) by Marsaglia & Tsang's squeeze method (2000), with the
/// standard boosting transform for shape < 1. Requires shape > 0.
template <BitGenerator64 G>
inline double gamma(G& gen, double shape) {
  PC_EXPECTS(shape > 0.0);
  if (shape < 1.0) {
    const double u = uniform_open(gen);
    return gamma(gen, shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = 0.0;
    double v = 0.0;
    do {
      // Normal(0,1) via Marsaglia polar method.
      double a = 0.0;
      double b = 0.0;
      double s = 0.0;
      do {
        a = 2.0 * uniform_unit(gen) - 1.0;
        b = 2.0 * uniform_unit(gen) - 1.0;
        s = a * a + b * b;
      } while (s >= 1.0 || s == 0.0);
      x = a * std::sqrt(-2.0 * std::log(s) / s);
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform_open(gen);
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v;
  }
}

/// Standard normal via Marsaglia polar method.
template <BitGenerator64 G>
inline double standard_normal(G& gen) {
  double a = 0.0;
  double b = 0.0;
  double s = 0.0;
  do {
    a = 2.0 * uniform_unit(gen) - 1.0;
    b = 2.0 * uniform_unit(gen) - 1.0;
    s = a * a + b * b;
  } while (s >= 1.0 || s == 0.0);
  return a * std::sqrt(-2.0 * std::log(s) / s);
}

}  // namespace plurality
