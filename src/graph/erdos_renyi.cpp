#include "graph/erdos_renyi.hpp"

#include <cmath>
#include <vector>

#include "rng/distributions.hpp"
#include "support/assert.hpp"

namespace plurality {

ErdosRenyiGraph::ErdosRenyiGraph(std::uint64_t n, double p, Xoshiro256& rng) {
  PC_EXPECTS(n >= 2);
  PC_EXPECTS(p > 0.0 && p <= 1.0);

  // Endpoint pairs (v, w), w < v, in triangular-sweep order: row v
  // then gets its lower neighbors before its higher ones, ascending.
  std::vector<NodeId> pairs;
  const auto ni = static_cast<std::int64_t>(n);
  if (p >= 1.0) {
    pairs.reserve(n * (n - 1));
    for (std::int64_t v = 1; v < ni; ++v) {
      for (std::int64_t w = 0; w < v; ++w) {
        pairs.push_back(static_cast<NodeId>(v));
        pairs.push_back(static_cast<NodeId>(w));
      }
    }
  } else {
    // Geometric skipping over the n*(n-1)/2 candidate pairs: the gap to
    // the next present edge is Geometric(p).
    const double mean_edges =
        p * static_cast<double>(n) * static_cast<double>(n - 1) / 2.0;
    pairs.reserve(
        2 * static_cast<std::size_t>(mean_edges + 4.0 * std::sqrt(mean_edges)));
    const double log_q = std::log1p(-p);
    std::int64_t v = 1;
    std::int64_t w = -1;
    while (v < ni) {
      const double r = uniform_open(rng);
      w += 1 + static_cast<std::int64_t>(std::floor(std::log(r) / log_q));
      while (w >= v && v < ni) {
        w -= v;
        ++v;
      }
      if (v < ni) {
        pairs.push_back(static_cast<NodeId>(v));
        pairs.push_back(static_cast<NodeId>(w));
      }
    }
  }

  adjacency_ = AdjacencyList(n, pairs);
  isolated_ = adjacency_.count_isolated();
}

}  // namespace plurality
