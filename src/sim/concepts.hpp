#pragma once

/// \file concepts.hpp
/// The protocol interfaces the engines drive. Protocols own their state
/// (structure-of-arrays vectors plus an OpinionTable); engines are thin
/// generic drivers, so there is no virtual dispatch on the hot path.

#include <concepts>
#include <cstdint>

#include "graph/graph.hpp"
#include "opinion/table.hpp"
#include "rng/xoshiro256.hpp"

namespace plurality {

/// A protocol advanced one whole round at a time (all nodes update
/// simultaneously off a snapshot).
template <typename P>
concept SyncProtocol = requires(P p, const P cp, Xoshiro256& rng) {
  { p.execute_round(rng) };
  { cp.done() } -> std::convertible_to<bool>;
  { cp.table() } -> std::convertible_to<const OpinionTable&>;
};

/// A protocol advanced one node-tick at a time (the paper's sequential /
/// continuous asynchronous models). on_tick is the body of every
/// engine's inner loop, so the protocols mark it [[gnu::always_inline]]:
/// left to the compiler's per-file inlining budget, it goes out of line
/// in some engines of a translation unit that instantiates many.
template <typename P>
concept AsyncProtocol = requires(P p, const P cp, NodeId u, Xoshiro256& rng) {
  { p.on_tick(u, rng) };
  { cp.num_nodes() } -> std::convertible_to<std::uint64_t>;
  { cp.done() } -> std::convertible_to<bool>;
  { cp.table() } -> std::convertible_to<const OpinionTable&>;
};

}  // namespace plurality
