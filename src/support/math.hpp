#pragma once

/// \file math.hpp
/// Small numeric helpers shared across the library: guarded logarithms
/// used by the protocol schedules, a floored ceiling, and medians.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>

#include "support/assert.hpp"

namespace plurality {

/// Natural logarithm with a positivity precondition.
inline double safe_ln(double x) {
  PC_EXPECTS(x > 0.0);
  return std::log(x);
}

/// ln(ln(n)) floored at 1.0.
///
/// The paper's schedule lengths divide by log log n; for the small n used
/// in tests log log n dips below 1 and would inflate (or invert) block
/// lengths, so we floor the value. Requires n > 1.
inline double ln_ln(double n) {
  PC_EXPECTS(n > 1.0);
  const double inner = std::log(n);
  if (inner <= std::exp(1.0)) return 1.0;
  return std::max(1.0, std::log(inner));
}

/// ceil(x) as uint64, floored at `at_least` (default 1). Used to turn the
/// schedule's real-valued Theta(...) expressions into usable tick counts.
inline std::uint64_t ceil_at_least(double x, std::uint64_t at_least = 1) {
  PC_EXPECTS(x >= 0.0);
  const auto v = static_cast<std::uint64_t>(std::ceil(x));
  return std::max(v, at_least);
}

/// Lower median of a non-empty range; may reorder the input. For even
/// sizes this returns the lower of the two middle elements, matching the
/// tie-breaking the Sync Gadget tests assume.
///
/// Integer ranges of up to kRankSelectMax values (the gadget's per-node
/// samples) take a branchless rank selection instead of nth_element:
/// the lower median is the largest value with at most `mid` values
/// strictly below it. Both paths return the same value.
inline constexpr std::size_t kRankSelectMax = 32;

template <typename T>
T median_inplace(std::span<T> values) {
  PC_EXPECTS(!values.empty());
  const std::size_t mid = (values.size() - 1) / 2;
  if constexpr (std::is_integral_v<T>) {
    if (values.size() <= kRankSelectMax) {
      T best = std::numeric_limits<T>::lowest();
      for (const T candidate : values) {
        std::uint32_t below = 0;
        for (const T other : values) below += other < candidate;
        best = below <= mid && candidate > best ? candidate : best;
      }
      return best;
    }
  }
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  return values[mid];
}

}  // namespace plurality
