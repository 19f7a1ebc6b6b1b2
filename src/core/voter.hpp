#pragma once

/// \file voter.hpp
/// The classic voter model (single choice): adopt the color of one
/// uniformly sampled neighbor. It solves consensus but not *plurality*
/// consensus — the winner is proportional to initial support, and the
/// run time on the clique is Theta(n). Included as the canonical
/// baseline the Two-Choices literature (paper ref [2]) improves on.
/// The rule is stated once; core/sampling.hpp derives its synchronous,
/// asynchronous, sharded and delayed forms.

#include <array>

#include "core/sampling.hpp"

namespace plurality {

/// Copy the one sampled neighbor's color.
struct VoterRule {
  static constexpr std::size_t kSamples = 1;
  static ColorId next(ColorId /*own*/,
                      const std::array<ColorId, 1>& seen) noexcept {
    return seen[0];
  }
};

/// Synchronous voter: every node simultaneously copies a random
/// neighbor's (pre-round) color.
template <GraphTopology G>
using VoterSync = SamplingSync<G, VoterRule>;

/// Asynchronous voter: a ticking node copies a random neighbor's color.
template <GraphTopology G>
using VoterAsync = SamplingAsync<G, VoterRule>;

}  // namespace plurality
