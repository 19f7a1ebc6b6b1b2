#pragma once

/// \file placement.hpp
/// Placement generators: *where* an initial configuration sits on the
/// topology, as an axis independent of *how many* nodes hold each
/// color. The count-profile generators in assignment.hpp fix the
/// support vector (c1, ..., ck); a placement maps that exact vector
/// onto nodes. The paper's worst-case guarantees are stated over all
/// initial configurations, yet a uniformly shuffled start is the
/// *easiest* placement — community-correlated and cut-seeded starts
/// shrink the effective bias a protocol sees (Becchetti et al.'s
/// monochromatic distance, arXiv:1407.2565) and are the configurations
/// an adversary would pick (Robinson–Scheideler–Setzer,
/// arXiv:1805.00774).
///
/// Invariants shared by every placement:
///   - counts are preserved *exactly*: the returned Assignment realizes
///     the requested support vector, only positions differ;
///   - randomness comes from the caller's stream only (fixed seed =>
///     fixed placement), placements own no RNG;
///   - color 0 keeps its meaning as the plurality color C1.
///
/// Every placement reads the topology through the same CsrTopology
/// view the protocols sample (graph/csr.hpp): its rows, or the
/// implicit clique's ascending enumeration, and the SBM's block
/// partition, which travels with its rows. Placements run once per
/// repetition, off the hot path.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/graph.hpp"
#include "opinion/assignment.hpp"
#include "rng/xoshiro256.hpp"
#include "support/assert.hpp"

namespace plurality {

/// The registered placement families, as selected by `--placement=`.
enum class PlacementKind : std::uint8_t {
  kUniform,              ///< exact counts, uniformly shuffled (the
                         ///< historical implicit behavior)
  kCommunityAligned,     ///< plurality concentrated inside one block
  kAdversarialBoundary,  ///< minorities seeded on high-conductance cuts
  kClusteredBfs,         ///< each color one (or few) BFS ball(s)
};

inline const char* placement_kind_name(PlacementKind kind) noexcept {
  switch (kind) {
    case PlacementKind::kUniform: return "uniform";
    case PlacementKind::kCommunityAligned: return "community";
    case PlacementKind::kAdversarialBoundary: return "adversarial_boundary";
    case PlacementKind::kClusteredBfs: return "clustered_bfs";
  }
  return "unknown";
}

/// Parses a `--placement=` value; throws ContractViolation (naming the
/// offending text) on anything unrecognized.
PlacementKind parse_placement_kind(const std::string& name);

/// The resolved `--placement=` / `--placement-fraction=` pair carried
/// by ExperimentContext; validated once on the main thread.
struct PlacementSpec {
  PlacementKind kind = PlacementKind::kUniform;
  double fraction = 1.0;  ///< share of c1 aimed at the target community
                          ///< (community placement only)

  /// Throws ContractViolation naming --placement-fraction when the
  /// fraction is outside (0, 1].
  void validate() const;
};

/// Exact counts, uniformly shuffled over nodes — byte-identical to the
/// historical assign_* behavior (same Fisher–Yates draws). All four
/// builders take the count profile by value and move it through to the
/// Assignment (one construction, no copies down the chain); pass
/// std::move(counts) when the profile is no longer needed.
Assignment place_uniform(std::vector<std::uint64_t> counts, Xoshiro256& rng);

/// Concentrates the plurality color inside one community: at least
/// ceil(fraction * c1) color-0 nodes land in the largest block of the
/// view's partition (capped by the block size and by c1 itself); every
/// other slot is filled uniformly from the remaining color pool.
/// Requires a non-empty partition, sum(counts) == view.num_nodes() and
/// fraction in (0, 1].
Assignment place_community_aligned(std::vector<std::uint64_t> counts,
                                   const CsrTopology& view, double fraction,
                                   Xoshiro256& rng);

/// Seeds the minority colors on the highest-conductance cut positions:
/// nodes are ranked by (descending cross-community neighbor fraction,
/// ascending degree, random tie-break) and colors 1..k-1 claim the top
/// of the ranking in color order; the plurality fills the interior
/// remainder. Without a partition of at least two blocks the cross
/// fraction is zero everywhere and the ranking degenerates to (low
/// degree, random). Requires sum(counts) == view.num_nodes().
Assignment place_adversarial_boundary(std::vector<std::uint64_t> counts,
                                      const CsrTopology& view,
                                      Xoshiro256& rng);

/// Grows one BFS ball per color (colors in descending count order, so
/// the plurality gets a genuine ball before the minorities tile the
/// rest): each color claims its exact count of nodes by breadth-first
/// expansion through still-unclaimed nodes from a random unclaimed
/// seed, re-seeding when a frontier exhausts (disconnected remainder).
/// Requires sum(counts) == view.num_nodes().
Assignment place_clustered_bfs(std::vector<std::uint64_t> counts,
                               const CsrTopology& view, Xoshiro256& rng);

}  // namespace plurality
