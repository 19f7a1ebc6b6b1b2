#pragma once

/// \file two_choices.hpp
/// The Two-Choices protocol (Cooper, Elsässer & Radzik, paper ref [2]):
/// sample two uniform random neighbors with replacement; adopt their
/// color iff the two samples coincide. Theorem 1.1 gives the clique
/// run time O(n/c1 * log n) under bias z*sqrt(n log n) — which is
/// Omega(k) when all minorities tie — and experiments E1–E3 reproduce
/// both sides. The rule is stated once; core/sampling.hpp derives its
/// synchronous, asynchronous, sharded and delayed forms. Delayed, the
/// two colors are read at query time and the rule falls back on the
/// node's color at delivery.

#include <array>

#include "core/sampling.hpp"

namespace plurality {

/// Adopt the two samples' color iff they coincide.
struct TwoChoicesRule {
  static constexpr std::size_t kSamples = 2;
  static ColorId next(ColorId own,
                      const std::array<ColorId, 2>& seen) noexcept {
    return seen[0] == seen[1] ? seen[0] : own;
  }
};

/// Synchronous Two-Choices: all nodes sample off the pre-round colors
/// and update simultaneously.
template <GraphTopology G>
using TwoChoicesSync = SamplingSync<G, TwoChoicesRule>;

/// Asynchronous Two-Choices: a ticking node samples two neighbors and
/// adopts on coincidence. Also serves as the endgame (part 2) of the
/// paper's main asynchronous protocol.
template <GraphTopology G>
using TwoChoicesAsync = SamplingAsync<G, TwoChoicesRule>;

}  // namespace plurality
