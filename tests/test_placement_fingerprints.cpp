// Placement fingerprints: one 64-bit hash per (topology x placement x
// seed) case over the placed colors, in node order, and the placement
// generator's next draw — so a change that moves one node's color, or
// makes a placement draw one more or one fewer random number, fails
// the named case. Covers uniform, adversarial_boundary and
// clustered_bfs on the clique, a ring, a torus, a random 8-regular
// graph and an SBM, plus community-aligned on the SBM, each read
// through the CsrTopology view the protocols sample (the implicit
// clique for K_64).
//
// The random-regular and SBM rows come from their builders at a fixed
// build seed, so the table also depends on those builds (pinned on
// their own by test_graph_fingerprints). After a deliberate change to
// a placement regenerate the table: every failing case prints its
// replacement line.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fingerprint.hpp"
#include "graph/builders.hpp"
#include "graph/csr.hpp"
#include "opinion/assignment.hpp"
#include "opinion/placement.hpp"

namespace plurality {
namespace {

constexpr std::uint64_t kSeeds[] = {31, 32};

/// Hashes the placed colors, then the generator's next draw.
std::uint64_t hash_placement(const Assignment& placed, Xoshiro256& rng) {
  Fingerprint fp;
  fp.add(std::uint64_t{placed.colors.size()});
  for (const ColorId c : placed.colors) fp.add(std::uint64_t{c});
  fp.add(rng());
  return fp.value();
}

/// Three colors at 5 : 3 : 2 of n.
std::vector<std::uint64_t> counts_for(std::uint64_t n) {
  const std::uint64_t c1 = n / 2;
  const std::uint64_t c2 = (3 * n) / 10;
  return {c1, c2, n - c1 - c2};
}

// Recorded with GCC 12 on x86-64 Linux (glibc libm); see the file header.
constexpr Golden kGolden[] = {
    {"clique/uniform/seed31", 0xc16ec577a50c82e1ULL},
    {"clique/adversarial_boundary/seed31", 0xdac271367c9a7c38ULL},
    {"clique/clustered_bfs/seed31", 0xd103d74e2866a8bbULL},
    {"ring/uniform/seed31", 0x4c68487e369abf23ULL},
    {"ring/adversarial_boundary/seed31", 0x4115f02352ba5807ULL},
    {"ring/clustered_bfs/seed31", 0x29098ba8c3ebbfadULL},
    {"torus/uniform/seed31", 0x3fa14e6a0d873871ULL},
    {"torus/adversarial_boundary/seed31", 0x6b329be524231c52ULL},
    {"torus/clustered_bfs/seed31", 0xc5413e6dc14ba19bULL},
    {"regular/uniform/seed31", 0xbaf496fc46396acfULL},
    {"regular/adversarial_boundary/seed31", 0x9d09449b9407f090ULL},
    {"regular/clustered_bfs/seed31", 0x0733e9a5047cedc1ULL},
    {"sbm/uniform/seed31", 0x8b95d90e19784f7eULL},
    {"sbm/adversarial_boundary/seed31", 0x7ba3e8515f2c9bdfULL},
    {"sbm/clustered_bfs/seed31", 0xa5e4f7eaa7b50840ULL},
    {"sbm/community/seed31", 0x865a2c88bd64570dULL},
    {"clique/uniform/seed32", 0x074cdf50e6974ea9ULL},
    {"clique/adversarial_boundary/seed32", 0x9fa07130df84a959ULL},
    {"clique/clustered_bfs/seed32", 0x99c52557ecb3131fULL},
    {"ring/uniform/seed32", 0x73eac43c355cde18ULL},
    {"ring/adversarial_boundary/seed32", 0x5d0077b364363daeULL},
    {"ring/clustered_bfs/seed32", 0x5358027788ee39b5ULL},
    {"torus/uniform/seed32", 0xb77bcdf4dbbe08dbULL},
    {"torus/adversarial_boundary/seed32", 0x26d0486693bc761fULL},
    {"torus/clustered_bfs/seed32", 0xf995f2cfd5e08aefULL},
    {"regular/uniform/seed32", 0x73cbf58998bc34f9ULL},
    {"regular/adversarial_boundary/seed32", 0xc752767edece764eULL},
    {"regular/clustered_bfs/seed32", 0x8d1a19eb2ab38e91ULL},
    {"sbm/uniform/seed32", 0xffdca8170a18b924ULL},
    {"sbm/adversarial_boundary/seed32", 0xbe8873a5b73194bfULL},
    {"sbm/clustered_bfs/seed32", 0xfa1bab8fe8c52bb4ULL},
    {"sbm/community/seed32", 0x9b936e3f2b02a3bcULL},
};

TEST(PlacementFingerprints, EveryTopologyPlacementAndSeedMatches) {
  Xoshiro256 regular_rng(5);
  Xoshiro256 sbm_rng(6);
  struct Topology {
    const char* name;
    CsrTopology view;
  };
  const Topology topologies[] = {
      {"clique", CsrTopology::implicit_complete(64)},
      {"ring", build_ring(200)},
      {"torus", build_torus(12, 12)},
      {"regular", build_random_regular(256, 8, regular_rng)},
      {"sbm", build_sbm(400, 4, 0.3, 0.05, sbm_rng)},
  };

  std::size_t checked = 0;
  const auto check = [&](const std::string& name, const Assignment& placed,
                         Xoshiro256& rng) {
    if (check_fingerprint(kGolden, name, hash_placement(placed, rng))) {
      ++checked;
    }
  };
  for (const std::uint64_t seed : kSeeds) {
    const std::string s = "/seed" + std::to_string(seed);
    for (const Topology& t : topologies) {
      const std::string prefix = std::string(t.name) + "/";
      const auto counts = counts_for(t.view.num_nodes());
      {
        Xoshiro256 rng(seed);
        check(prefix + "uniform" + s, place_uniform(counts, rng), rng);
      }
      {
        Xoshiro256 rng(seed);
        check(prefix + "adversarial_boundary" + s,
              place_adversarial_boundary(counts, t.view, rng),
              rng);
      }
      {
        Xoshiro256 rng(seed);
        check(prefix + "clustered_bfs" + s,
              place_clustered_bfs(counts, t.view, rng), rng);
      }
      if (!t.view.block_starts().empty()) {
        Xoshiro256 rng(seed);
        check(prefix + "community" + s,
              place_community_aligned(counts, t.view, 0.8, rng), rng);
      }
    }
  }
  EXPECT_EQ(checked, std::size(kGolden));
}

}  // namespace
}  // namespace plurality
