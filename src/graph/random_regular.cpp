#include "graph/random_regular.hpp"

#include <algorithm>
#include <vector>

#include "rng/distributions.hpp"
#include "support/assert.hpp"

namespace plurality {

RandomRegularGraph::RandomRegularGraph(std::uint64_t n, std::uint32_t d,
                                       Xoshiro256& rng) {
  PC_EXPECTS(n >= 2);
  PC_EXPECTS(d >= 1);
  PC_EXPECTS(d < n);
  PC_EXPECTS((n * d) % 2 == 0);

  // One entry per stub; a uniform random perfect matching of the stubs is
  // a Fisher-Yates shuffle paired off in order, so the shuffled array is
  // itself the endpoint-pair list.
  std::vector<NodeId> stubs;
  stubs.reserve(n * d);
  for (std::uint64_t u = 0; u < n; ++u) {
    for (std::uint32_t j = 0; j < d; ++j)
      stubs.push_back(static_cast<NodeId>(u));
  }

  // Scratch rows for the defect check: node u's partners so far sit at
  // partners[u * d, u * d + filled[u]). A pair is a defect when it is a
  // self-loop or its partner is already in the row.
  std::vector<NodeId> partners(stubs.size());
  std::vector<std::uint32_t> filled(n);
  constexpr int kMaxAttempts = 50;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    for (std::size_t i = stubs.size() - 1; i > 0; --i) {
      const std::size_t j =
          static_cast<std::size_t>(uniform_below(rng, i + 1));
      std::swap(stubs[i], stubs[j]);
    }
    // The last attempt is kept whatever it holds, so it counts every
    // defect; earlier attempts stop at their first.
    const bool last = attempt == kMaxAttempts - 1;
    std::fill(filled.begin(), filled.end(), 0);
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
      const NodeId a = stubs[i];
      const NodeId b = stubs[i + 1];
      NodeId* const row_a = partners.data() + std::size_t{a} * d;
      NodeId* const row_b = partners.data() + std::size_t{b} * d;
      if (a == b || std::find(row_a, row_a + filled[a], b) !=
                        row_a + filled[a]) {
        ++bad;
        if (!last) break;
      }
      row_a[filled[a]++] = b;
      row_b[filled[b]++] = a;
    }
    if (bad == 0 || last) {
      defects_ = bad;
      break;
    }
  }
  adjacency_ = AdjacencyList(n, stubs);
}

}  // namespace plurality
