// Cross-topology integration tests: the protocols run over the CSR view
// of every factory family, and on dense expanders (Erdős–Rényi above the
// connectivity threshold, random d-regular) neighbor sampling
// approximates uniform sampling well enough that the clique results
// carry over. Low-expansion graphs (ring) are exercised as the
// negative control.

#include <gtest/gtest.h>

#include <cmath>

#include "core/async_one_extra_bit.hpp"
#include "core/three_majority.hpp"
#include "core/two_choices.hpp"
#include "core/voter.hpp"
#include "graph/builders.hpp"
#include "graph/csr.hpp"
#include "opinion/assignment.hpp"
#include "rng/seed.hpp"
#include "sim/sequential_engine.hpp"
#include "sim/sync_driver.hpp"

namespace plurality {
namespace {

TEST(Topology, TwoChoicesConvergesOnDenseErdosRenyi) {
  const std::uint64_t n = 2048;
  Xoshiro256 rng(1);
  const double p = 5.0 * std::log(static_cast<double>(n)) /
                   static_cast<double>(n);
  const CsrTopology g = build_erdos_renyi(n, p, rng);
  for (NodeId u = 0; u < n; ++u) ASSERT_GT(g.degree(u), 0u);
  TwoChoicesAsync proto(g, assign_two_colors(n, (n * 3) / 4, rng));
  const auto result = run_sequential(proto, rng, 1e4);
  ASSERT_TRUE(result.consensus);
  EXPECT_EQ(result.winner, 0u);
}

TEST(Topology, TwoChoicesConvergesOnRandomRegular) {
  const std::uint64_t n = 2048;
  Xoshiro256 rng(2);
  const CsrTopology g = build_random_regular(n, 16, rng);
  TwoChoicesAsync proto(g, assign_two_colors(n, (n * 3) / 4, rng));
  const auto result = run_sequential(proto, rng, 1e4);
  ASSERT_TRUE(result.consensus);
  EXPECT_EQ(result.winner, 0u);
}

TEST(Topology, AsyncOneExtraBitWorksOnDenseExpander) {
  // The phased protocol only needs near-uniform neighbor samples; a
  // dense ER graph provides them. (Sparser graphs skew the two-choices
  // coincidence probabilities and void the analysis.)
  const std::uint64_t n = 2048;
  Xoshiro256 rng(3);
  const double p = 0.05;  // mean degree ~ 100
  const CsrTopology g = build_erdos_renyi(n, p, rng);
  for (NodeId u = 0; u < n; ++u) ASSERT_GT(g.degree(u), 0u);
  auto proto = AsyncOneExtraBit<CsrTopology>::make(
      g, assign_plurality_bias(n, 4, n / 4, rng));
  const auto result = run_sequential(proto, rng, 1e5);
  ASSERT_TRUE(result.consensus);
  EXPECT_EQ(result.winner, 0u);
}

TEST(Topology, ExpanderTimeTracksCliqueTime) {
  const std::uint64_t n = 2048;
  const SeedSequence seeds(4);
  auto mean_time = [&](const CsrTopology& g) {
    double total = 0.0;
    for (std::uint64_t rep = 0; rep < 5; ++rep) {
      Xoshiro256 rng = seeds.make_rng(rep);
      TwoChoicesAsync proto(g, assign_two_colors(n, (n * 3) / 4, rng));
      const auto result = run_sequential(proto, rng, 1e4);
      EXPECT_TRUE(result.consensus);
      total += result.time;
    }
    return total / 5.0;
  };
  Xoshiro256 build_rng(5);
  const CsrTopology regular = build_random_regular(n, 12, build_rng);
  const double clique_time = mean_time(CsrTopology::implicit_complete(n));
  const double regular_time = mean_time(regular);
  EXPECT_LT(regular_time, 4.0 * clique_time);
  EXPECT_LT(clique_time, 4.0 * regular_time);
}

TEST(Topology, RingIsDramaticallySlowerThanClique) {
  const std::uint64_t n = 512;
  Xoshiro256 rng(6);
  const CsrTopology ring = build_ring(n);
  const CsrTopology clique = CsrTopology::implicit_complete(n);

  TwoChoicesAsync on_clique(clique, assign_two_colors(n, (n * 3) / 4, rng));
  const auto clique_result = run_sequential(on_clique, rng, 1e4);
  ASSERT_TRUE(clique_result.consensus);

  TwoChoicesAsync on_ring(ring, assign_two_colors(n, (n * 3) / 4, rng));
  const auto ring_result =
      run_sequential(on_ring, rng, 20.0 * clique_result.time);
  // Within 20x the clique's time the ring should still be divided.
  EXPECT_FALSE(ring_result.consensus);
}

TEST(Topology, TorusVoterKeepsSupportInvariant) {
  const CsrTopology g = build_torus(16, 16);
  Xoshiro256 rng(7);
  VoterAsync proto(g, assign_equal(256, 4, rng));
  run_sequential(proto, rng, 50.0);
  std::uint64_t sum = 0;
  for (const auto s : proto.table().supports()) sum += s;
  EXPECT_EQ(sum, 256u);
}

TEST(Topology, SyncProtocolsRunOnEveryTopology) {
  Xoshiro256 rng(8);
  const std::uint64_t n = 256;
  auto check = [&](const CsrTopology& g) {
    TwoChoicesSync tc(g, assign_two_colors(n, (n * 7) / 8, rng));
    const auto result = run_sync(tc, rng, 4000);
    EXPECT_TRUE(result.consensus);
    ThreeMajoritySync tm(g, assign_two_colors(n, (n * 7) / 8, rng));
    EXPECT_NO_THROW(run_sync(tm, rng, 50));
  };
  check(CsrTopology::implicit_complete(n));
  check(build_torus(16, 16));
  Xoshiro256 build_rng(9);
  check(build_random_regular(n, 8, build_rng));
}

}  // namespace
}  // namespace plurality
