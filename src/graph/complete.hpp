#pragma once

/// \file complete.hpp
/// The complete graph K_n — the paper's topology. Neighbor sampling is
/// O(1) with no stored edges: draw from [0, n-1) and skip over self.
/// Placements read it through CsrTopology::implicit_complete
/// (graph/csr.hpp), which draws bit-identically and enumerates a
/// node's neighbors in ascending order.

#include <cstdint>

#include "graph/graph.hpp"
#include "rng/distributions.hpp"
#include "support/assert.hpp"

namespace plurality {

class CompleteGraph {
 public:
  /// Requires n >= 2 (a single node has no neighbor to sample).
  explicit CompleteGraph(std::uint64_t n) : n_(n) { PC_EXPECTS(n >= 2); }

  std::uint64_t num_nodes() const noexcept { return n_; }

  std::uint64_t degree(NodeId) const noexcept { return n_ - 1; }

  /// Uniform neighbor of u, i.e. a uniform node != u. Always inlined,
  /// like the protocols' on_tick that calls it.
  [[gnu::always_inline]] NodeId sample_neighbor(NodeId u,
                                                Xoshiro256& rng) const {
    PC_EXPECTS(u < n_);
    const std::uint64_t draw = uniform_below(rng, n_ - 1);
    return static_cast<NodeId>(draw < u ? draw : draw + 1);
  }

 private:
  std::uint64_t n_;
};

}  // namespace plurality
