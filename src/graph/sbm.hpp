#pragma once

/// \file sbm.hpp
/// Stochastic block model G(n; B, p_in, p_out): n nodes split into B
/// contiguous, as-equal-as-possible blocks; each within-block pair is
/// an edge with probability p_in, each cross-block pair with p_out.
/// With p_in >> p_out this is the canonical community-structured
/// topology: dense local mixing separated by sparse, low-conductance
/// cuts — exactly the regime where *where* an opinion starts matters
/// as much as *how many* nodes hold it (Becchetti et al.'s
/// monochromatic-distance analysis, arXiv:1407.2565). Generated with
/// the same geometric edge skipping as Erdős–Rényi, in expected
/// O(n + m) time.
///
/// Blocks are contiguous node ranges, so `block_of(u)` is one indexed
/// load and the placement generators (opinion/placement.hpp) can treat
/// `communities()` as the ground-truth partition.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/adjacency.hpp"
#include "graph/graph.hpp"
#include "rng/xoshiro256.hpp"

namespace plurality {

class StochasticBlockModelGraph {
 public:
  /// Samples the model. Requires n >= 2, 1 <= blocks <= n,
  /// p_in in (0, 1], and p_out in [0, 1].
  StochasticBlockModelGraph(std::uint64_t n, std::uint32_t blocks,
                            double p_in, double p_out, Xoshiro256& rng);

  std::uint64_t num_nodes() const noexcept { return adjacency_.num_nodes(); }
  std::uint64_t num_edges() const noexcept { return adjacency_.num_edges(); }
  std::uint64_t degree(NodeId u) const { return adjacency_.degree(u); }

  std::span<const NodeId> neighbors(NodeId u) const {
    return adjacency_.neighbors(u);
  }

  /// The backing CSR storage (for graph/csr.hpp's borrowed flat view).
  const AdjacencyList& adjacency() const noexcept { return adjacency_; }

  std::uint32_t num_blocks() const noexcept {
    return static_cast<std::uint32_t>(communities_.size());
  }

  /// The block holding node u.
  std::uint32_t block_of(NodeId u) const {
    PC_EXPECTS(u < block_of_.size());
    return block_of_[u];
  }

  /// The ground-truth partition, one member list per block (members are
  /// contiguous, ascending node ids).
  const std::vector<std::vector<NodeId>>& communities() const noexcept {
    return communities_;
  }

  /// Edges with both endpoints in one block / spanning two blocks.
  std::uint64_t num_within_edges() const noexcept { return within_edges_; }
  std::uint64_t num_between_edges() const noexcept { return between_edges_; }

  /// Vertices that drew no edge at all (callers that need every node to
  /// have a neighbor should check this is zero, or keep p_in above the
  /// per-block connectivity threshold).
  std::uint64_t num_isolated() const noexcept { return isolated_; }

 private:
  AdjacencyList adjacency_;
  std::vector<std::vector<NodeId>> communities_;
  std::vector<std::uint32_t> block_of_;
  std::uint64_t within_edges_ = 0;
  std::uint64_t between_edges_ = 0;
  std::uint64_t isolated_ = 0;
};

}  // namespace plurality
