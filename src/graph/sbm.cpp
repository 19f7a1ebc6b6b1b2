#include "graph/sbm.hpp"

#include <cmath>

#include "rng/distributions.hpp"
#include "support/assert.hpp"

namespace plurality {

namespace {

/// Calls fn(t) for every selected index t in [0, count): each index is
/// included independently with probability p, visited via geometric
/// gap skipping (Batagelj & Brandes 2005) so the cost is proportional
/// to the number of selected indices, not to count.
template <typename Fn>
void sample_indices(std::uint64_t count, double p, Xoshiro256& rng, Fn fn) {
  if (count == 0 || p <= 0.0) return;
  if (p >= 1.0) {
    for (std::uint64_t t = 0; t < count; ++t) fn(t);
    return;
  }
  const double log_q = std::log1p(-p);
  double t = -1.0;
  const auto limit = static_cast<double>(count);
  while (true) {
    const double r = uniform_open(rng);
    t += 1.0 + std::floor(std::log(r) / log_q);
    if (t >= limit) return;
    fn(static_cast<std::uint64_t>(t));
  }
}

}  // namespace

StochasticBlockModelGraph::StochasticBlockModelGraph(std::uint64_t n,
                                                     std::uint32_t blocks,
                                                     double p_in, double p_out,
                                                     Xoshiro256& rng) {
  PC_EXPECTS(n >= 2);
  PC_EXPECTS(blocks >= 1 && blocks <= n);
  PC_EXPECTS(p_in > 0.0 && p_in <= 1.0);
  PC_EXPECTS(p_out >= 0.0 && p_out <= 1.0);

  // Contiguous as-equal-as-possible blocks: the first n % B blocks get
  // one extra node, mirroring assign_equal's rounding discipline.
  std::vector<NodeId> starts(blocks + 1, 0);
  {
    const std::uint64_t base = n / blocks;
    const std::uint64_t extra = n % blocks;
    NodeId next = 0;
    for (std::uint32_t b = 0; b < blocks; ++b) {
      starts[b] = next;
      next += static_cast<NodeId>(base + (b < extra ? 1 : 0));
    }
    starts[blocks] = next;
  }
  communities_.resize(blocks);
  block_of_.resize(n);
  for (std::uint32_t b = 0; b < blocks; ++b) {
    communities_[b].reserve(starts[b + 1] - starts[b]);
    for (NodeId u = starts[b]; u < starts[b + 1]; ++u) {
      communities_[b].push_back(u);
      block_of_[u] = b;
    }
  }

  std::vector<NodeId> pairs;
  const auto add_edge = [&](NodeId u, NodeId v) {
    pairs.push_back(u);
    pairs.push_back(v);
  };

  // Within-block pairs: index t over the s*(s-1)/2 unordered pairs of
  // block b, decoded with the same triangular sweep Erdős–Rényi uses.
  for (std::uint32_t b = 0; b < blocks; ++b) {
    const std::uint64_t s = starts[b + 1] - starts[b];
    if (s < 2) continue;
    const NodeId base = starts[b];
    std::uint64_t v = 1;       // local row of the triangular index sweep
    std::uint64_t row_start = 0;  // first linear index of row v
    sample_indices(s * (s - 1) / 2, p_in, rng, [&](std::uint64_t t) {
      while (t >= row_start + v) {
        row_start += v;
        ++v;
      }
      const std::uint64_t w = t - row_start;
      add_edge(base + static_cast<NodeId>(v), base + static_cast<NodeId>(w));
      ++within_edges_;
    });
  }

  // Cross-block pairs: each ordered block pair (a < b) is an s_a x s_b
  // grid; index t decodes as (t / s_b, t % s_b).
  for (std::uint32_t a = 0; a + 1 < blocks; ++a) {
    const std::uint64_t sa = starts[a + 1] - starts[a];
    for (std::uint32_t b = a + 1; b < blocks; ++b) {
      const std::uint64_t sb = starts[b + 1] - starts[b];
      sample_indices(sa * sb, p_out, rng, [&](std::uint64_t t) {
        add_edge(starts[a] + static_cast<NodeId>(t / sb),
                 starts[b] + static_cast<NodeId>(t % sb));
        ++between_edges_;
      });
    }
  }

  adjacency_ = AdjacencyList(n, pairs);
  isolated_ = adjacency_.count_isolated();
}

}  // namespace plurality
