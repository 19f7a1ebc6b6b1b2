#pragma once

/// \file three_majority.hpp
/// The 3-Majority dynamics: sample three uniform random neighbors and
/// adopt the majority color among them; if all three differ, adopt the
/// first sample. A standard comparison point in the plurality-consensus
/// literature (Becchetti et al., SODA'16) with behavior close to
/// Two-Choices on the clique; included as an extra baseline for the
/// head-to-head experiments. The rule is stated once; core/sampling.hpp
/// derives its synchronous, asynchronous, sharded and delayed forms.

#include <array>

#include "core/sampling.hpp"

namespace plurality {

/// Majority of the three samples; the first when all three differ.
struct ThreeMajorityRule {
  static constexpr std::size_t kSamples = 3;
  static ColorId next(ColorId /*own*/,
                      const std::array<ColorId, 3>& seen) noexcept {
    // seen[0] covers a == b, a == c and the all-distinct fallback.
    return seen[1] == seen[2] ? seen[1] : seen[0];
  }
};

/// Synchronous 3-Majority.
template <GraphTopology G>
using ThreeMajoritySync = SamplingSync<G, ThreeMajorityRule>;

/// Asynchronous 3-Majority.
template <GraphTopology G>
using ThreeMajorityAsync = SamplingAsync<G, ThreeMajorityRule>;

}  // namespace plurality
