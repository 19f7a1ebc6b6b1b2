#include "opinion/placement.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

#include "rng/distributions.hpp"

namespace plurality {

namespace {

std::uint64_t total_of(const std::vector<std::uint64_t>& counts) {
  return std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
}

/// Fisher–Yates, same sweep direction as assignment.cpp's materialize
/// so "uniformly shuffled" means the same thing everywhere.
template <typename T>
void shuffle(std::vector<T>& values, Xoshiro256& rng) {
  for (std::size_t i = values.size(); i-- > 1;) {
    const auto j = static_cast<std::size_t>(uniform_below(rng, i + 1));
    std::swap(values[i], values[j]);
  }
}

/// The color pool for `counts`, minus `fewer_c1` withheld color-0
/// entries: one entry per still-unplaced node.
std::vector<ColorId> color_pool(const std::vector<std::uint64_t>& counts,
                                std::uint64_t fewer_c1) {
  std::vector<ColorId> pool;
  pool.reserve(total_of(counts) - fewer_c1);
  for (ColorId c = 0; c < counts.size(); ++c) {
    const std::uint64_t copies = c == 0 ? counts[c] - fewer_c1 : counts[c];
    pool.insert(pool.end(), copies, c);
  }
  return pool;
}

Assignment finalize(std::vector<ColorId> colors,
                    std::vector<std::uint64_t> counts) {
  Assignment out;
  out.colors = std::move(colors);
  out.num_colors = static_cast<ColorId>(counts.size());
  out.counts = std::move(counts);
  return out;
}

}  // namespace

PlacementKind parse_placement_kind(const std::string& name) {
  if (name == "uniform") return PlacementKind::kUniform;
  if (name == "community") return PlacementKind::kCommunityAligned;
  if (name == "adversarial_boundary") {
    return PlacementKind::kAdversarialBoundary;
  }
  if (name == "clustered_bfs") return PlacementKind::kClusteredBfs;
  throw ContractViolation(
      "--placement=" + name +
      " is not one of uniform|community|adversarial_boundary|clustered_bfs");
}

void PlacementSpec::validate() const {
  if (!(fraction > 0.0 && fraction <= 1.0)) {
    throw ContractViolation(
        "--placement-fraction expects a fraction in (0, 1], got " +
        std::to_string(fraction));
  }
}

Assignment place_uniform(std::vector<std::uint64_t> counts, Xoshiro256& rng) {
  return assign_exact(std::move(counts), rng);
}

Assignment place_community_aligned(std::vector<std::uint64_t> counts,
                                   const CsrTopology& view, double fraction,
                                   Xoshiro256& rng) {
  PC_EXPECTS(!counts.empty());
  PC_EXPECTS(fraction > 0.0 && fraction <= 1.0);
  const std::span<const NodeId> starts = view.block_starts();
  PC_EXPECTS(!starts.empty());
  const std::uint64_t n = total_of(counts);
  PC_EXPECTS(n == view.num_nodes());
  const std::size_t blocks = starts.size() - 1;
  const auto size_of = [&](std::size_t b) -> std::uint64_t {
    return starts[b + 1] - starts[b];
  };

  // Target block: the largest community (first on ties).
  std::size_t target = 0;
  for (std::size_t b = 1; b < blocks; ++b) {
    if (size_of(b) > size_of(target)) target = b;
  }

  const std::uint64_t c1 = counts[0];
  const auto want = static_cast<std::uint64_t>(
      std::ceil(fraction * static_cast<double>(c1)));
  const std::uint64_t q = std::min({c1, want, size_of(target)});

  // q random slots of the target block hold color 0; every remaining
  // slot (target leftover + other blocks) draws from the shuffled rest
  // of the pool, so the residual placement is uniform.
  std::vector<NodeId> target_nodes(size_of(target));
  std::iota(target_nodes.begin(), target_nodes.end(), starts[target]);
  shuffle(target_nodes, rng);
  std::vector<ColorId> pool = color_pool(counts, q);
  shuffle(pool, rng);

  std::vector<ColorId> colors(n);
  std::size_t next = 0;
  for (std::size_t i = 0; i < target_nodes.size(); ++i) {
    colors[target_nodes[i]] = i < q ? 0 : pool[next++];
  }
  for (std::size_t b = 0; b < blocks; ++b) {
    if (b == target) continue;
    for (NodeId u = starts[b]; u < starts[b + 1]; ++u) colors[u] = pool[next++];
  }
  PC_ASSERT(next == pool.size());
  return finalize(std::move(colors), std::move(counts));
}

Assignment place_adversarial_boundary(std::vector<std::uint64_t> counts,
                                      const CsrTopology& view,
                                      Xoshiro256& rng) {
  PC_EXPECTS(!counts.empty());
  const std::uint64_t n = view.num_nodes();
  PC_EXPECTS(total_of(counts) == n);

  // Block labels if a (non-trivial) partition is known; the heuristic
  // works without one, falling back to pure low-degree ranking.
  const std::span<const NodeId> starts = view.block_starts();
  std::vector<std::uint32_t> block(n, 0);
  const bool has_blocks = starts.size() >= 3;
  if (has_blocks) {
    for (std::uint32_t b = 0; b + 1 < starts.size(); ++b) {
      std::fill(block.begin() + starts[b], block.begin() + starts[b + 1], b);
    }
  }

  // Boundary score: fraction of a node's edges that cross the cut.
  std::vector<double> cross_frac(n, 0.0);
  if (has_blocks) {
    std::vector<NodeId> scratch;
    for (NodeId u = 0; u < n; ++u) {
      scratch.clear();
      view.append_neighbors(u, scratch);
      if (scratch.empty()) continue;
      std::uint64_t cross = 0;
      for (const NodeId v : scratch) cross += block[v] != block[u] ? 1 : 0;
      cross_frac[u] =
          static_cast<double>(cross) / static_cast<double>(scratch.size());
    }
  }

  // Rank: most boundary-exposed first, then lowest degree (fewest
  // interior edges to defend with), random among ties.
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  shuffle(order, rng);
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (cross_frac[a] != cross_frac[b]) return cross_frac[a] > cross_frac[b];
    return view.degree(a) < view.degree(b);
  });

  // Minorities claim the top of the ranking in color order (the
  // strongest minority gets the strongest cut positions); the
  // plurality is pushed into the interior remainder.
  std::vector<ColorId> colors(n, 0);
  std::size_t pos = 0;
  for (ColorId c = 1; c < counts.size(); ++c) {
    for (std::uint64_t i = 0; i < counts[c]; ++i) colors[order[pos++]] = c;
  }
  return finalize(std::move(colors), std::move(counts));
}

Assignment place_clustered_bfs(std::vector<std::uint64_t> counts,
                               const CsrTopology& view, Xoshiro256& rng) {
  PC_EXPECTS(!counts.empty());
  const std::uint64_t n = view.num_nodes();
  PC_EXPECTS(total_of(counts) == n);

  // Seed preference order: one shuffle up front keeps the whole
  // placement a deterministic function of the stream.
  std::vector<NodeId> seed_order(n);
  std::iota(seed_order.begin(), seed_order.end(), NodeId{0});
  shuffle(seed_order, rng);
  std::size_t seed_cursor = 0;

  // Colors grow in descending count order so the plurality carves a
  // genuine ball before the minorities tile what is left.
  std::vector<ColorId> by_size(counts.size());
  std::iota(by_size.begin(), by_size.end(), ColorId{0});
  std::stable_sort(by_size.begin(), by_size.end(), [&](ColorId a, ColorId b) {
    return counts[a] > counts[b];
  });

  std::vector<ColorId> colors(n, 0);
  std::vector<bool> claimed(n, false);
  std::vector<NodeId> queue;
  std::vector<NodeId> scratch;
  for (const ColorId c : by_size) {
    std::uint64_t quota = counts[c];
    queue.clear();
    std::size_t head = 0;
    while (quota > 0) {
      if (head == queue.size()) {
        // Frontier exhausted (or first node of this color): restart
        // from the next unclaimed seed.
        while (claimed[seed_order[seed_cursor]]) ++seed_cursor;
        const NodeId seed = seed_order[seed_cursor];
        claimed[seed] = true;
        colors[seed] = c;
        --quota;
        queue.push_back(seed);
        continue;
      }
      const NodeId u = queue[head++];
      scratch.clear();
      view.append_neighbors(u, scratch);
      for (const NodeId v : scratch) {
        if (quota == 0) break;
        if (claimed[v]) continue;
        claimed[v] = true;
        colors[v] = c;
        --quota;
        queue.push_back(v);
      }
    }
  }
  return finalize(std::move(colors), std::move(counts));
}

}  // namespace plurality
