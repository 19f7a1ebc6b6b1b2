#pragma once

/// \file erdos_renyi.hpp
/// G(n, p) random graph, generated with geometric edge skipping
/// (Batagelj & Brandes 2005) in expected O(n + m) time. Above the
/// connectivity threshold p ~ ln n / n it behaves like a sparse
/// expander, which experiment A2 contrasts against the clique.

#include <cstdint>

#include "graph/adjacency.hpp"
#include "graph/graph.hpp"
#include "rng/xoshiro256.hpp"

namespace plurality {

class ErdosRenyiGraph {
 public:
  /// Samples G(n, p). Requires n >= 2 and p in (0, 1].
  ErdosRenyiGraph(std::uint64_t n, double p, Xoshiro256& rng);

  std::uint64_t num_nodes() const noexcept { return adjacency_.num_nodes(); }
  std::uint64_t num_edges() const noexcept { return adjacency_.num_edges(); }
  std::uint64_t degree(NodeId u) const { return adjacency_.degree(u); }

  /// Number of isolated vertices (callers that need every node to have a
  /// neighbor should check this is zero, or choose p >= c ln n / n).
  std::uint64_t num_isolated() const noexcept { return isolated_; }

  std::span<const NodeId> neighbors(NodeId u) const {
    return adjacency_.neighbors(u);
  }

  /// The backing CSR storage (for graph/csr.hpp's borrowed flat view).
  const AdjacencyList& adjacency() const noexcept { return adjacency_; }

 private:
  AdjacencyList adjacency_;
  std::uint64_t isolated_ = 0;
};

}  // namespace plurality
