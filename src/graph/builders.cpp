#include "graph/builders.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "rng/distributions.hpp"
#include "support/assert.hpp"

namespace plurality {

namespace {

/// Row offsets of a d-regular closed-form family: row u starts at u*d.
std::vector<std::uint64_t> regular_offsets(std::uint64_t n, std::uint64_t d) {
  std::vector<std::uint64_t> offsets(n + 1);
  for (std::uint64_t u = 0; u <= n; ++u) offsets[u] = u * d;
  return offsets;
}

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

CsrTopology build_ring(std::uint64_t n) {
  PC_EXPECTS(n >= 3);
  std::vector<NodeId> edges;
  edges.reserve(2 * n);
  for (std::uint64_t u = 0; u < n; ++u) {
    edges.push_back(static_cast<NodeId>(u == 0 ? n - 1 : u - 1));
    edges.push_back(static_cast<NodeId>(u + 1 == n ? 0 : u + 1));
  }
  return CsrTopology::owned(regular_offsets(n, 2), std::move(edges));
}

CsrTopology build_torus(std::uint32_t width, std::uint32_t height) {
  PC_EXPECTS(width >= 3 && height >= 3);
  const std::uint64_t n = std::uint64_t{width} * height;
  const auto node_at = [width](std::uint32_t x, std::uint32_t y) {
    return static_cast<NodeId>(y * width + x);
  };
  std::vector<NodeId> edges;
  edges.reserve(4 * n);
  for (std::uint32_t y = 0; y < height; ++y) {
    for (std::uint32_t x = 0; x < width; ++x) {
      edges.push_back(node_at(x + 1 == width ? 0 : x + 1, y));
      edges.push_back(node_at(x == 0 ? width - 1 : x - 1, y));
      edges.push_back(node_at(x, y + 1 == height ? 0 : y + 1));
      edges.push_back(node_at(x, y == 0 ? height - 1 : y - 1));
    }
  }
  return CsrTopology::owned(regular_offsets(n, 4), std::move(edges));
}

CsrTopology build_erdos_renyi(std::uint64_t n, double p, Xoshiro256& rng) {
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
  return CsrTopology::from_pairs(n, pairs);
}

CsrTopology build_random_regular(std::uint64_t n, std::uint32_t d,
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
    // The last attempt is kept whatever it holds, so it needs no check.
    if (attempt == kMaxAttempts - 1) break;
    std::fill(filled.begin(), filled.end(), 0);
    bool simple = true;
    for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
      const NodeId a = stubs[i];
      const NodeId b = stubs[i + 1];
      NodeId* const row_a = partners.data() + std::size_t{a} * d;
      NodeId* const row_b = partners.data() + std::size_t{b} * d;
      if (a == b || std::find(row_a, row_a + filled[a], b) !=
                        row_a + filled[a]) {
        simple = false;
        break;
      }
      row_a[filled[a]++] = b;
      row_b[filled[b]++] = a;
    }
    if (simple) break;
  }
  return CsrTopology::from_pairs(n, stubs);
}

CsrTopology build_sbm(std::uint64_t n, std::uint32_t blocks, double p_in,
                      double p_out, Xoshiro256& rng) {
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
      });
    }
  }
  return CsrTopology::from_pairs(n, pairs, std::move(starts));
}

}  // namespace plurality
