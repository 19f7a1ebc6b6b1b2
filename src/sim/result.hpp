#pragma once

/// \file result.hpp
/// Outcomes reported by the engine drivers.

#include <cstdint>

#include "graph/graph.hpp"

namespace plurality {

/// Outcome of a synchronous run.
struct SyncRunResult {
  std::uint64_t rounds = 0;  ///< rounds executed before stopping
  bool consensus = false;    ///< true iff all nodes agree
  ColorId winner = 0;        ///< the agreed color; valid iff consensus
};

/// Outcome of an asynchronous run (sequential or continuous).
struct AsyncRunResult {
  double time = 0.0;         ///< parallel time at stop (steps/n, or clock)
  std::uint64_t ticks = 0;   ///< total node activations executed
  bool consensus = false;    ///< true iff all nodes agree
  ColorId winner = 0;        ///< the agreed color; valid iff consensus
};

namespace detail {

/// Records whether `proto` ended in consensus, and on which color.
template <typename Result, typename P>
void record_consensus(Result& result, const P& proto) {
  result.consensus = proto.table().has_consensus();
  if (result.consensus) result.winner = proto.table().consensus_color();
}

}  // namespace detail

}  // namespace plurality
