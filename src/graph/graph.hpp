#pragma once

/// \file graph.hpp
/// The Graph concept every protocol is generic over, plus the shared
/// node-id vocabulary. The paper's protocols only ever *sample a uniform
/// random neighbor*, so that single operation (plus sizes/degrees) is the
/// whole interface — edges are enumerated only by the placements, off
/// the hot path, through CsrTopology.

#include <concepts>
#include <cstdint>

#include "rng/xoshiro256.hpp"

namespace plurality {

/// Node index. 32 bits covers every laptop-scale population (n < 2^32)
/// and halves the memory traffic of the per-node state vectors.
using NodeId = std::uint32_t;

/// Opinion / color index, 0-based; color 0 is C1 in the paper's ordering
/// whenever a workload generator produced the assignment.
using ColorId = std::uint32_t;

/// A topology usable by the protocols: knows its size and can sample a
/// uniform random neighbor of a node. Two types model it: CompleteGraph
/// and CsrTopology (graph/csr.hpp), the rows every other family's
/// builder (graph/builders.hpp) writes.
template <typename G>
concept GraphTopology = requires(const G g, NodeId u, Xoshiro256& rng) {
  { g.num_nodes() } -> std::convertible_to<std::uint64_t>;
  { g.sample_neighbor(u, rng) } -> std::convertible_to<NodeId>;
  { g.degree(u) } -> std::convertible_to<std::uint64_t>;
};

}  // namespace plurality
