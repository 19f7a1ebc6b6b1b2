#pragma once

/// \file row_counts.hpp
/// Structural counts recomputed from a topology's CSR rows, for the
/// graph tests and the graph fingerprint table: isolated nodes, edges,
/// configuration-model defects, and within-/between-block edges of a
/// partitioned (SBM) topology.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/csr.hpp"

namespace plurality {

/// Nodes with an empty row.
inline std::uint64_t count_isolated(const CsrTopology& rows) {
  std::uint64_t isolated = 0;
  for (NodeId u = 0; u < rows.num_nodes(); ++u) {
    isolated += rows.degree(u) == 0 ? 1 : 0;
  }
  return isolated;
}

/// Undirected edges: every pair fills two row entries.
inline std::uint64_t count_edges(const CsrTopology& rows) {
  std::uint64_t entries = 0;
  for (NodeId u = 0; u < rows.num_nodes(); ++u) entries += rows.degree(u);
  return entries / 2;
}

/// Pairs that are self-loops (u appears twice in row u per loop) or
/// repeat an earlier pair {u, v}, u < v: the defects the configuration
/// model leaves in its kept attempt.
inline std::uint64_t count_defects(const CsrTopology& rows) {
  std::uint64_t defects = 0;
  for (NodeId u = 0; u < rows.num_nodes(); ++u) {
    const auto row = rows.neighbors(u);
    std::vector<NodeId> sorted(row.begin(), row.end());
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size();) {
      std::size_t j = i;
      while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
      const std::uint64_t multiplicity = j - i;
      if (sorted[i] == u) defects += multiplicity / 2;
      if (sorted[i] > u) defects += multiplicity - 1;
      i = j;
    }
  }
  return defects;
}

/// The block of every node under the topology's partition (all zero
/// without one).
inline std::vector<std::uint32_t> block_labels(const CsrTopology& rows) {
  std::vector<std::uint32_t> block(rows.num_nodes(), 0);
  const auto starts = rows.block_starts();
  for (std::uint32_t b = 0; b + 1 < starts.size(); ++b) {
    std::fill(block.begin() + starts[b], block.begin() + starts[b + 1], b);
  }
  return block;
}

struct BlockEdges {
  std::uint64_t within = 0;
  std::uint64_t between = 0;
};

/// Edges with both endpoints in one block / spanning two blocks.
inline BlockEdges count_block_edges(const CsrTopology& rows) {
  const std::vector<std::uint32_t> block = block_labels(rows);
  BlockEdges entries;
  for (NodeId u = 0; u < rows.num_nodes(); ++u) {
    for (const NodeId v : rows.neighbors(u)) {
      (block[u] == block[v] ? entries.within : entries.between) += 1;
    }
  }
  return {entries.within / 2, entries.between / 2};
}

}  // namespace plurality
