#include "graph/adjacency.hpp"

#include <algorithm>
#include <numeric>

namespace plurality {

AdjacencyList::AdjacencyList(std::uint64_t n, std::span<const NodeId> pairs)
    : offsets_(n + 1, 0), edges_(pairs.size()) {
  PC_EXPECTS(pairs.size() % 2 == 0);
  // Degree counts at offsets_[u + 1]; the prefix sum turns them into
  // row starts at offsets_[u].
  for (const NodeId u : pairs) {
    PC_EXPECTS(u < n);
    ++offsets_[u + 1];
  }
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  // Scatter in pair order, using offsets_[u] as row u's fill cursor;
  // afterwards each cursor sits at the next row's start, so shifting
  // the array right by one restores the row starts.
  for (std::size_t i = 0; i < pairs.size(); i += 2) {
    const NodeId a = pairs[i];
    const NodeId b = pairs[i + 1];
    edges_[offsets_[a]++] = b;
    edges_[offsets_[b]++] = a;
  }
  std::copy_backward(offsets_.begin(), offsets_.end() - 1, offsets_.end());
  offsets_[0] = 0;
}

std::uint64_t AdjacencyList::count_isolated() const noexcept {
  std::uint64_t isolated = 0;
  for (std::size_t u = 0; u + 1 < offsets_.size(); ++u) {
    if (offsets_[u + 1] == offsets_[u]) ++isolated;
  }
  return isolated;
}

}  // namespace plurality
