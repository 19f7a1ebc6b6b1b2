#pragma once

/// \file observers.hpp
/// Observers are callables `void(double time, const Protocol&)` sampled
/// by the engines at a fixed cadence in parallel time (synchronous runs
/// use the round index as time). A1 (`delta_ablation`) tracks its worst
/// working-time dispersion through one, and the fingerprint tests hash
/// every sample; a run that watches nothing passes NullObserver.

namespace plurality {

/// The default observer: does nothing, optimizes away.
struct NullObserver {
  template <typename P>
  void operator()(double, const P&) const noexcept {}
};

}  // namespace plurality
