#pragma once

/// \file adjacency.hpp
/// Compressed sparse adjacency storage shared by the random-graph
/// topologies (Erdős–Rényi, random regular, SBM). Rows are contiguous,
/// so the CSR view (graph/csr.hpp) borrows them and samples a neighbor
/// with one uniform draw plus one indexed load.
/// Every family builds it the same way: from one flat list of edge
/// endpoint pairs, scattered straight into CSR with no per-node
/// staging.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "support/assert.hpp"

namespace plurality {

class AdjacencyList {
 public:
  AdjacencyList() = default;

  /// Builds CSR storage on n nodes from a flat endpoint-pair list
  /// (a0, b0, a1, b1, ...). Pair (a, b) appends b to row a, then a to
  /// row b, so every row lists its neighbors in pair order; a self-loop
  /// (a, a) puts a into row a twice.
  AdjacencyList(std::uint64_t n, std::span<const NodeId> pairs);

  std::uint64_t num_nodes() const noexcept { return offsets_.empty() ? 0 : offsets_.size() - 1; }

  std::uint64_t degree(NodeId u) const {
    PC_EXPECTS(u + 1 < offsets_.size());
    return offsets_[u + 1] - offsets_[u];
  }

  std::span<const NodeId> neighbors(NodeId u) const {
    PC_EXPECTS(u + 1 < offsets_.size());
    return {edges_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }

  std::uint64_t num_edges() const noexcept { return edges_.size() / 2; }

  /// Nodes with an empty row.
  std::uint64_t count_isolated() const noexcept;

  /// The raw CSR arrays (n+1 row offsets, concatenated neighbor rows),
  /// for components that want one flat view over every adjacency-backed
  /// family (graph/csr.hpp) without re-materializing the storage. The
  /// spans borrow this list's buffers and are invalidated with it.
  std::span<const std::uint64_t> row_offsets() const noexcept {
    return offsets_;
  }
  std::span<const NodeId> flat_edges() const noexcept { return edges_; }

 private:
  std::vector<std::uint64_t> offsets_;
  std::vector<NodeId> edges_;
};

}  // namespace plurality
