#include "graph/csr.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

namespace plurality {

CsrTopology CsrTopology::from_pairs(std::uint64_t n,
                                    std::span<const NodeId> pairs,
                                    std::vector<NodeId> block_starts) {
  PC_EXPECTS(pairs.size() % 2 == 0);
  std::vector<std::uint64_t> offsets(n + 1, 0);
  std::vector<NodeId> edges(pairs.size());
  // Degree counts at offsets[u + 1]; the prefix sum turns them into
  // row starts at offsets[u].
  for (const NodeId u : pairs) {
    PC_EXPECTS(u < n);
    ++offsets[u + 1];
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  // Scatter in pair order, using offsets[u] as row u's fill cursor;
  // afterwards each cursor sits at the next row's start, so shifting
  // the array right by one restores the row starts.
  for (std::size_t i = 0; i < pairs.size(); i += 2) {
    const NodeId a = pairs[i];
    const NodeId b = pairs[i + 1];
    edges[offsets[a]++] = b;
    edges[offsets[b]++] = a;
  }
  std::copy_backward(offsets.begin(), offsets.end() - 1, offsets.end());
  offsets[0] = 0;
  return owned(std::move(offsets), std::move(edges), std::move(block_starts));
}

void CsrTopology::append_neighbors(NodeId u, std::vector<NodeId>& out) const {
  if (complete_) {
    PC_EXPECTS(u < n_);
    for (std::uint64_t v = 0; v < n_; ++v) {
      if (v != u) out.push_back(static_cast<NodeId>(v));
    }
    return;
  }
  const auto row = neighbors(u);
  out.insert(out.end(), row.begin(), row.end());
}

}  // namespace plurality
