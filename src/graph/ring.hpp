#pragma once

/// \file ring.hpp
/// Cycle graph C_n: node u's neighbors are u-1 and u+1 (mod n). Used by
/// the topology-extension experiment (A2) as the extreme low-expansion
/// contrast to the clique.

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "support/assert.hpp"

namespace plurality {

class RingGraph {
 public:
  /// Requires n >= 3 so that the two neighbors are distinct.
  explicit RingGraph(std::uint64_t n) : n_(n) { PC_EXPECTS(n >= 3); }

  std::uint64_t num_nodes() const noexcept { return n_; }

  std::uint64_t degree(NodeId) const noexcept { return 2; }

  /// Appends the two ring neighbors of u (make_csr_view materializes
  /// these rows; the placement layer enumerates them).
  void append_neighbors(NodeId u, std::vector<NodeId>& out) const {
    PC_EXPECTS(u < n_);
    out.push_back(static_cast<NodeId>(u == 0 ? n_ - 1 : u - 1));
    const std::uint64_t v = u + 1;
    out.push_back(static_cast<NodeId>(v == n_ ? 0 : v));
  }

 private:
  std::uint64_t n_;
};

}  // namespace plurality
