// Tests for the placement layer (opinion/placement.hpp): exact count
// preservation under every placement, the community-aligned fraction
// guarantee, boundary/BFS structure, fixed-seed determinism, and the
// strict parse/validate contracts behind --placement=.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/builders.hpp"
#include "graph/csr.hpp"
#include "opinion/assignment.hpp"
#include "opinion/placement.hpp"
#include "row_counts.hpp"
#include "support/assert.hpp"

namespace plurality {
namespace {

std::vector<std::uint64_t> realized_counts(const Assignment& a) {
  std::vector<std::uint64_t> counts(a.num_colors, 0);
  for (const ColorId c : a.colors) {
    EXPECT_LT(c, a.num_colors);
    ++counts[c];
  }
  return counts;
}

void expect_exact(const Assignment& a,
                  const std::vector<std::uint64_t>& wanted) {
  EXPECT_EQ(a.counts, wanted);
  EXPECT_EQ(realized_counts(a), wanted);
}

CsrTopology make_sbm(std::uint64_t n = 400, std::uint32_t blocks = 4,
                     double p_in = 0.3, double p_out = 0.05,
                     std::uint64_t seed = 7) {
  Xoshiro256 rng(seed);
  return build_sbm(n, blocks, p_in, p_out, rng);
}

/// The most color-0 nodes inside any one block of g's partition.
std::uint64_t best_block_c1(const CsrTopology& g, const Assignment& a) {
  const auto starts = g.block_starts();
  std::uint64_t best = 0;
  for (std::size_t b = 0; b + 1 < starts.size(); ++b) {
    std::uint64_t in_block = 0;
    for (NodeId u = starts[b]; u < starts[b + 1]; ++u) {
      in_block += a.colors[u] == 0 ? 1 : 0;
    }
    best = std::max(best, in_block);
  }
  return best;
}

TEST(Placement, UniformMatchesAssignExactDraws) {
  const std::vector<std::uint64_t> counts{30, 20, 14};
  Xoshiro256 a(11);
  Xoshiro256 b(11);
  const Assignment via_place = place_uniform(counts, a);
  const Assignment via_assign = assign_exact(counts, b);
  EXPECT_EQ(via_place.colors, via_assign.colors);
  expect_exact(via_place, counts);
}

TEST(Placement, EveryPlacementPreservesExactCountsOnSbm) {
  const CsrTopology g = make_sbm();
  const std::vector<std::uint64_t> counts{220, 100, 50, 30};

  Xoshiro256 rng(3);
  expect_exact(place_uniform(counts, rng), counts);
  expect_exact(place_community_aligned(counts, g, 1.0, rng), counts);
  expect_exact(place_adversarial_boundary(counts, g, rng), counts);
  expect_exact(place_clustered_bfs(counts, g, rng), counts);
}

TEST(Placement, EveryPlacementPreservesExactCountsOnClosedFormGraphs) {
  const std::vector<std::uint64_t> counts{40, 16, 8};

  const auto check = [&](const CsrTopology& view) {
    Xoshiro256 rng(5);
    expect_exact(place_adversarial_boundary(counts, view, rng), counts);
    expect_exact(place_clustered_bfs(counts, view, rng), counts);
  };
  check(CsrTopology::implicit_complete(64));
  check(build_ring(64));
  check(build_torus(8, 8));
}

TEST(Placement, CommunityAlignedConcentratesTheRequestedFraction) {
  const CsrTopology g = make_sbm(400, 4);
  // Block capacity is 100; c1 = 120 with fraction 0.75 asks for >= 90
  // color-0 nodes inside the target block.
  const std::vector<std::uint64_t> counts{120, 280};
  for (const double fraction : {0.25, 0.5, 0.75}) {
    Xoshiro256 rng(23);
    const Assignment a = place_community_aligned(counts, g, fraction, rng);
    const auto want = static_cast<std::uint64_t>(
        std::ceil(fraction * static_cast<double>(counts[0])));
    EXPECT_GE(best_block_c1(g, a), want) << "fraction=" << fraction;
  }
}

TEST(Placement, CommunityAlignedCapsAtBlockCapacity) {
  const CsrTopology g = make_sbm(400, 4);
  // c1 = 220 exceeds the 100-node target block: the placement must fill
  // the block rather than violate the capacity or the counts.
  const std::vector<std::uint64_t> counts{220, 180};
  Xoshiro256 rng(29);
  const Assignment a = place_community_aligned(counts, g, 1.0, rng);
  expect_exact(a, counts);
  EXPECT_EQ(best_block_c1(g, a), 100u);
}

TEST(Placement, AdversarialBoundaryPrefersLowDegreeWithoutCommunities) {
  // On a graph without a partition whose node degrees differ (the torus
  // is regular, so take Erdős–Rényi), the heuristic sees no boundary
  // and ranks purely by (degree, random): minorities must land on the
  // lowest-degree nodes.
  Xoshiro256 build_rng(13);
  const CsrTopology g = build_erdos_renyi(200, 0.25, build_rng);
  ASSERT_TRUE(g.block_starts().empty());
  const std::vector<std::uint64_t> counts{190, 10};
  Xoshiro256 rng(31);
  const Assignment a = place_adversarial_boundary(counts, g, rng);
  // The 10 minority nodes must all have degree <= the median degree.
  std::vector<std::uint64_t> degrees;
  for (NodeId u = 0; u < 200; ++u) degrees.push_back(g.degree(u));
  std::vector<std::uint64_t> sorted = degrees;
  std::sort(sorted.begin(), sorted.end());
  const std::uint64_t median = sorted[100];
  for (NodeId u = 0; u < 200; ++u) {
    if (a.colors[u] == 1) {
      EXPECT_LE(degrees[u], median);
    }
  }
}

TEST(Placement, AdversarialBoundarySeedsMinoritiesOnTheCut) {
  // Two cliques joined by few cross edges: the nodes with the highest
  // cross fraction are exactly the cut endpoints, so a small minority
  // must land on nodes that do have a cross edge.
  const CsrTopology g = make_sbm(200, 2, 1.0, 0.02, /*seed=*/17);
  const std::vector<std::uint32_t> block = block_labels(g);
  const std::vector<std::uint64_t> counts{190, 10};
  Xoshiro256 rng(37);
  const Assignment a = place_adversarial_boundary(counts, g, rng);
  for (NodeId u = 0; u < 200; ++u) {
    if (a.colors[u] != 1) continue;
    std::uint64_t cross = 0;
    for (const NodeId v : g.neighbors(u)) {
      cross += block[v] != block[u] ? 1 : 0;
    }
    EXPECT_GT(cross, 0u) << "minority node " << u << " is not on the cut";
  }
}

TEST(Placement, ClusteredBfsGrowsConnectedBallsOnTheRing) {
  // On a ring, a BFS ball is a contiguous arc: every color class must
  // form one arc (it never needs to re-seed on a connected remainder).
  const CsrTopology ring = build_ring(60);
  const std::vector<std::uint64_t> counts{30, 20, 10};
  Xoshiro256 rng(41);
  const Assignment a = place_clustered_bfs(counts, ring, rng);
  expect_exact(a, counts);
  // Each BFS ball is an arc, except that a later color may be split in
  // two by an earlier ball when its seed lands mid-remainder: with 3
  // colors that is between 3 and 4 maximal runs around the cycle
  // (uniform placement would give ~0.6 * n ~ 36 color changes).
  std::uint64_t changes = 0;
  for (NodeId u = 0; u < 60; ++u) {
    changes += a.colors[u] != a.colors[(u + 1) % 60] ? 1 : 0;
  }
  EXPECT_GE(changes, 3u);
  EXPECT_LE(changes, 4u);
}

TEST(Placement, FixedSeedIsDeterministic) {
  const CsrTopology g = make_sbm();
  const std::vector<std::uint64_t> counts{220, 100, 50, 30};
  const auto run_all = [&](std::uint64_t seed) {
    Xoshiro256 rng(seed);
    std::vector<std::vector<ColorId>> out;
    out.push_back(place_uniform(counts, rng).colors);
    out.push_back(place_community_aligned(counts, g, 0.8, rng).colors);
    out.push_back(place_adversarial_boundary(counts, g, rng).colors);
    out.push_back(place_clustered_bfs(counts, g, rng).colors);
    return out;
  };
  EXPECT_EQ(run_all(123), run_all(123));
  EXPECT_NE(run_all(123), run_all(124));
}

TEST(Placement, ParseRejectsUnknownNames) {
  EXPECT_EQ(parse_placement_kind("uniform"), PlacementKind::kUniform);
  EXPECT_EQ(parse_placement_kind("community"),
            PlacementKind::kCommunityAligned);
  EXPECT_EQ(parse_placement_kind("adversarial_boundary"),
            PlacementKind::kAdversarialBoundary);
  EXPECT_EQ(parse_placement_kind("clustered_bfs"),
            PlacementKind::kClusteredBfs);
  EXPECT_THROW(parse_placement_kind("random"), ContractViolation);
  EXPECT_THROW(parse_placement_kind(""), ContractViolation);
  try {
    parse_placement_kind("bogus");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--placement"), std::string::npos) << what;
    EXPECT_NE(what.find("bogus"), std::string::npos) << what;
  }
}

TEST(Placement, SpecValidatesFraction) {
  PlacementSpec spec;
  EXPECT_NO_THROW(spec.validate());
  spec.fraction = 0.0;
  EXPECT_THROW(spec.validate(), ContractViolation);
  spec.fraction = 1.5;
  EXPECT_THROW(spec.validate(), ContractViolation);
  try {
    spec.validate();
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("--placement-fraction"),
              std::string::npos)
        << e.what();
  }
}

TEST(Placement, MismatchedTotalsViolateContracts) {
  const CsrTopology g = make_sbm(100, 2);
  Xoshiro256 rng(2);
  const std::vector<std::uint64_t> short_counts{40, 20};  // sums to 60
  EXPECT_THROW(place_community_aligned(short_counts, g, 1.0, rng),
               ContractViolation);
  EXPECT_THROW(place_adversarial_boundary(short_counts, g, rng),
               ContractViolation);
  EXPECT_THROW(place_clustered_bfs(short_counts, g, rng), ContractViolation);
  // Community alignment needs a partition.
  const std::vector<std::uint64_t> ring_counts{40, 20};
  EXPECT_THROW(place_community_aligned(ring_counts, build_ring(60), 1.0, rng),
               ContractViolation);
}

}  // namespace
}  // namespace plurality
