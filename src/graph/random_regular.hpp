#pragma once

/// \file random_regular.hpp
/// Random d-regular multigraph via the configuration model (stub
/// matching). A pairing with a self-loop or a duplicate edge is
/// resampled, up to 50 attempts; the 50th is kept whatever it holds,
/// with its self-loops and parallel edges as extra stubs (a neighbor
/// is drawn per stub, so sampling stays well-defined). A uniform
/// pairing is simple with probability about e^{-(d^2-1)/4}, so for
/// d >= 6 all but under 1% of builds keep their 50th attempt, with
/// about (d^2-1)/4 defective pairs: a configuration-model multigraph,
/// not a uniform simple regular graph. Each attempt is checked in
/// place and a rejected one stops at its first defect.

#include <cstdint>

#include "graph/adjacency.hpp"
#include "graph/graph.hpp"
#include "rng/xoshiro256.hpp"

namespace plurality {

class RandomRegularGraph {
 public:
  /// Samples a d-regular multigraph on n nodes. Requires n >= 2,
  /// d >= 1, d < n, and n*d even (handshake parity).
  RandomRegularGraph(std::uint64_t n, std::uint32_t d, Xoshiro256& rng);

  std::uint64_t num_nodes() const noexcept { return adjacency_.num_nodes(); }
  std::uint64_t degree(NodeId u) const { return adjacency_.degree(u); }

  /// Pairs of the kept attempt that are self-loops or repeat an earlier
  /// pair: 0 when an attempt came out simple, otherwise about
  /// (d^2-1)/4 (e.g. 12-22 at d = 8).
  std::uint64_t defects() const noexcept { return defects_; }

  std::span<const NodeId> neighbors(NodeId u) const {
    return adjacency_.neighbors(u);
  }

  /// The backing CSR storage (for graph/csr.hpp's borrowed flat view).
  const AdjacencyList& adjacency() const noexcept { return adjacency_; }

 private:
  AdjacencyList adjacency_;
  std::uint64_t defects_ = 0;
};

}  // namespace plurality
