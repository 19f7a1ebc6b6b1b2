// Unit + statistical tests for the graph substrate.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <vector>

#include "graph/adjacency.hpp"
#include "graph/complete.hpp"
#include "graph/csr.hpp"
#include "graph/erdos_renyi.hpp"
#include "graph/factory.hpp"
#include "graph/graph.hpp"
#include "graph/random_regular.hpp"
#include "graph/ring.hpp"
#include "graph/sbm.hpp"
#include "graph/torus.hpp"
#include "support/assert.hpp"

namespace plurality {
namespace {

// The clique samples in closed form; every other family only builds
// and enumerates its rows, and protocols sample it through the CSR view.
static_assert(GraphTopology<CompleteGraph>);
static_assert(GraphTopology<CsrTopology>);
static_assert(!GraphTopology<RingGraph>);
static_assert(!GraphTopology<TorusGraph>);
static_assert(!GraphTopology<ErdosRenyiGraph>);
static_assert(!GraphTopology<RandomRegularGraph>);
static_assert(!GraphTopology<StochasticBlockModelGraph>);

TEST(CompleteGraph, NeverSamplesSelf) {
  const CompleteGraph g(10);
  Xoshiro256 rng(1);
  for (NodeId u = 0; u < 10; ++u) {
    for (int i = 0; i < 1000; ++i) {
      const NodeId v = g.sample_neighbor(u, rng);
      EXPECT_NE(v, u);
      EXPECT_LT(v, 10u);
    }
  }
}

TEST(CompleteGraph, CoversAllOtherNodesUniformly) {
  const CompleteGraph g(5);
  Xoshiro256 rng(2);
  std::array<int, 5> counts{};
  constexpr int kSamples = 40000;
  for (int i = 0; i < kSamples; ++i) ++counts[g.sample_neighbor(2, rng)];
  EXPECT_EQ(counts[2], 0);
  for (const NodeId v : {0u, 1u, 3u, 4u}) {
    EXPECT_NEAR(counts[v], kSamples / 4, 5 * std::sqrt(kSamples / 4.0));
  }
}

TEST(CompleteGraph, DegreeAndSize) {
  const CompleteGraph g(100);
  EXPECT_EQ(g.num_nodes(), 100u);
  EXPECT_EQ(g.degree(0), 99u);
  EXPECT_THROW(CompleteGraph(1), ContractViolation);
}

TEST(CompleteGraph, TwoNodesAlwaysSampleTheOther) {
  const CompleteGraph g(2);
  Xoshiro256 rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(g.sample_neighbor(0, rng), 1u);
    EXPECT_EQ(g.sample_neighbor(1, rng), 0u);
  }
}

TEST(RingGraph, OnlyAdjacentNodes) {
  const CsrTopology g = make_csr_view(RingGraph(7));
  Xoshiro256 rng(4);
  for (int i = 0; i < 1000; ++i) {
    const NodeId v = g.sample_neighbor(3, rng);
    EXPECT_TRUE(v == 2 || v == 4);
  }
}

TEST(RingGraph, WrapsAround) {
  const CsrTopology g = make_csr_view(RingGraph(5));
  Xoshiro256 rng(5);
  std::set<NodeId> seen0;
  std::set<NodeId> seen4;
  for (int i = 0; i < 500; ++i) {
    seen0.insert(g.sample_neighbor(0, rng));
    seen4.insert(g.sample_neighbor(4, rng));
  }
  EXPECT_EQ(seen0, (std::set<NodeId>{4, 1}));
  EXPECT_EQ(seen4, (std::set<NodeId>{3, 0}));
  EXPECT_THROW(RingGraph(2), ContractViolation);
}

TEST(TorusGraph, FourDistinctNeighbors) {
  const TorusGraph torus(4, 5);
  EXPECT_EQ(torus.num_nodes(), 20u);
  EXPECT_EQ(torus.degree(0), 4u);
  const CsrTopology g = make_csr_view(torus);
  Xoshiro256 rng(6);
  std::set<NodeId> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(g.sample_neighbor(5, rng));
  // Node 5 is (x=1, y=1): neighbors (2,1)=6, (0,1)=4, (1,2)=9, (1,0)=1.
  EXPECT_EQ(seen, (std::set<NodeId>{6, 4, 9, 1}));
}

TEST(TorusGraph, CornerWrapsBothAxes) {
  const CsrTopology g = make_csr_view(TorusGraph(3, 3));
  Xoshiro256 rng(7);
  std::set<NodeId> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(g.sample_neighbor(0, rng));
  // (0,0): east (1,0)=1, west (2,0)=2, south (0,1)=3, north (0,2)=6.
  EXPECT_EQ(seen, (std::set<NodeId>{1, 2, 3, 6}));
  EXPECT_THROW(TorusGraph(2, 5), ContractViolation);
}

TEST(AdjacencyList, CsrLayout) {
  const std::vector<NodeId> pairs{0, 1, 0, 2};
  const AdjacencyList adj(3, pairs);
  EXPECT_EQ(adj.num_nodes(), 3u);
  EXPECT_EQ(adj.degree(0), 2u);
  EXPECT_EQ(adj.degree(1), 1u);
  EXPECT_EQ(adj.num_edges(), 2u);
  const auto row = adj.neighbors(0);
  EXPECT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], 1u);
  EXPECT_EQ(row[1], 2u);
}

TEST(AdjacencyList, SampleFromEmptyRowViolatesContract) {
  // The view make_csr_view builds over an adjacency-backed family.
  const std::vector<NodeId> pairs{0, 1};
  const AdjacencyList adj(3, pairs);
  const CsrTopology view =
      CsrTopology::borrowed(adj.row_offsets(), adj.flat_edges());
  Xoshiro256 rng(8);
  EXPECT_THROW(view.sample_neighbor(2, rng), ContractViolation);
}

TEST(ErdosRenyi, FullProbabilityGivesClique) {
  Xoshiro256 rng(9);
  const ErdosRenyiGraph g(8, 1.0, rng);
  for (NodeId u = 0; u < 8; ++u) EXPECT_EQ(g.degree(u), 7u);
  EXPECT_EQ(g.num_isolated(), 0u);
  EXPECT_EQ(g.num_edges(), 28u);
}

TEST(ErdosRenyi, MeanDegreeMatchesNP) {
  Xoshiro256 rng(10);
  const std::uint64_t n = 2000;
  const double p = 0.01;
  const ErdosRenyiGraph g(n, p, rng);
  double total_degree = 0.0;
  for (NodeId u = 0; u < n; ++u) total_degree += g.degree(u);
  const double mean_degree = total_degree / n;
  const double expected = p * (n - 1);
  EXPECT_NEAR(mean_degree, expected, 1.0);
}

TEST(ErdosRenyi, SamplesAreActualNeighbors) {
  Xoshiro256 rng(11);
  const AnyGraph any = ErdosRenyiGraph(50, 0.3, rng);
  const CsrTopology g = make_csr_view(any);
  for (NodeId u = 0; u < 50; ++u) {
    if (g.degree(u) == 0) continue;
    for (int i = 0; i < 20; ++i) {
      const NodeId v = g.sample_neighbor(u, rng);
      EXPECT_NE(v, u);
      EXPECT_LT(v, 50u);
    }
  }
}

TEST(ErdosRenyi, SparseGraphReportsIsolatedNodes) {
  Xoshiro256 rng(12);
  const ErdosRenyiGraph g(500, 0.0005, rng);
  // Expected degree ~ 0.25: most nodes are isolated.
  EXPECT_GT(g.num_isolated(), 100u);
  EXPECT_THROW(ErdosRenyiGraph(2, 0.0, rng), ContractViolation);
}

TEST(RandomRegular, ExactDegrees) {
  Xoshiro256 rng(13);
  const RandomRegularGraph g(100, 4, rng);
  for (NodeId u = 0; u < 100; ++u) EXPECT_EQ(g.degree(u), 4u);
  EXPECT_EQ(g.defects(), 0u);
}

TEST(RandomRegular, DefectsMatchARecount) {
  // A uniform pairing at d = 8 is simple with probability about
  // e^{-63/4}, so the kept 50th attempt carries defects; recount them
  // from the rows: self-loop pairs (u appears twice in row u per loop)
  // plus every repeat of an unordered pair {u, v}, u < v.
  Xoshiro256 rng(25);
  const std::uint64_t n = 4096;
  const RandomRegularGraph g(n, 8, rng);
  std::uint64_t recount = 0;
  for (NodeId u = 0; u < n; ++u) {
    const auto row = g.neighbors(u);
    std::vector<NodeId> sorted(row.begin(), row.end());
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size();) {
      std::size_t j = i;
      while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
      const std::uint64_t multiplicity = j - i;
      if (sorted[i] == u) recount += multiplicity / 2;
      if (sorted[i] > u) recount += multiplicity - 1;
      i = j;
    }
  }
  EXPECT_GT(g.defects(), 0u);
  EXPECT_EQ(g.defects(), recount);
}

TEST(RandomRegular, OddDegreeTimesOddNodesRejected) {
  Xoshiro256 rng(14);
  EXPECT_THROW(RandomRegularGraph(5, 3, rng), ContractViolation);
  EXPECT_NO_THROW(RandomRegularGraph(6, 3, rng));
}

TEST(RandomRegular, NeighborsAreValid) {
  Xoshiro256 rng(15);
  const AnyGraph any = RandomRegularGraph(64, 6, rng);
  const CsrTopology g = make_csr_view(any);
  for (NodeId u = 0; u < 64; ++u) {
    for (int i = 0; i < 10; ++i) {
      EXPECT_LT(g.sample_neighbor(u, rng), 64u);
    }
  }
}

TEST(StochasticBlockModel, BlockSizesAreAsEqualAsPossible) {
  Xoshiro256 rng(16);
  const StochasticBlockModelGraph g(103, 4, 0.5, 0.1, rng);
  EXPECT_EQ(g.num_nodes(), 103u);
  EXPECT_EQ(g.num_blocks(), 4u);
  // 103 = 26 + 26 + 26 + 25: the first n % B blocks get the extra node.
  EXPECT_EQ(g.communities()[0].size(), 26u);
  EXPECT_EQ(g.communities()[1].size(), 26u);
  EXPECT_EQ(g.communities()[2].size(), 26u);
  EXPECT_EQ(g.communities()[3].size(), 25u);
  std::uint64_t covered = 0;
  for (std::uint32_t b = 0; b < g.num_blocks(); ++b) {
    for (const NodeId u : g.communities()[b]) {
      EXPECT_EQ(g.block_of(u), b);
      ++covered;
    }
  }
  EXPECT_EQ(covered, g.num_nodes());
}

TEST(StochasticBlockModel, EdgeRatesMatchPinAndPout) {
  Xoshiro256 rng(17);
  const std::uint64_t n = 2000;
  const std::uint32_t blocks = 4;
  const double p_in = 0.1;
  const double p_out = 0.01;
  const StochasticBlockModelGraph g(n, blocks, p_in, p_out, rng);

  // Within-pair count: B * s*(s-1)/2 with s = 500; between-pair count:
  // C(B,2) * s^2. Compare realized edge counts against Binomial moments
  // at 5 sigma.
  const double s = 500.0;
  const double within_pairs = blocks * s * (s - 1) / 2.0;
  const double between_pairs = 6.0 * s * s;
  const double within_mean = within_pairs * p_in;
  const double within_sd = std::sqrt(within_pairs * p_in * (1 - p_in));
  const double between_mean = between_pairs * p_out;
  const double between_sd =
      std::sqrt(between_pairs * p_out * (1 - p_out));
  EXPECT_NEAR(static_cast<double>(g.num_within_edges()), within_mean,
              5 * within_sd);
  EXPECT_NEAR(static_cast<double>(g.num_between_edges()), between_mean,
              5 * between_sd);
  EXPECT_EQ(g.num_edges(), g.num_within_edges() + g.num_between_edges());
}

TEST(StochasticBlockModel, SamplesAreActualNeighborsAcrossBlocks) {
  Xoshiro256 rng(18);
  const AnyGraph any = StochasticBlockModelGraph(120, 3, 0.5, 0.1, rng);
  const auto& sbm = std::get<StochasticBlockModelGraph>(any);
  const CsrTopology g = make_csr_view(any);
  std::set<NodeId> cross_sampled;
  for (NodeId u = 0; u < 120; ++u) {
    if (g.degree(u) == 0) continue;
    for (int i = 0; i < 20; ++i) {
      const NodeId v = g.sample_neighbor(u, rng);
      EXPECT_NE(v, u);
      EXPECT_LT(v, 120u);
      if (sbm.block_of(v) != sbm.block_of(u)) cross_sampled.insert(v);
    }
  }
  EXPECT_FALSE(cross_sampled.empty());
}

TEST(StochasticBlockModel, ConnectedAtTheDefaultSweepPoint) {
  // The default --graph=sbm sweep point (scaled down to n=1024):
  // blocks=4, p_in=0.3, p_out=0.01 must give one connected component,
  // or consensus experiments could never terminate.
  Xoshiro256 rng(19);
  const StochasticBlockModelGraph g(1024, 4, 0.3, 0.01, rng);
  EXPECT_EQ(g.num_isolated(), 0u);
  std::vector<bool> seen(1024, false);
  std::vector<NodeId> stack{0};
  seen[0] = true;
  std::uint64_t reached = 0;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    ++reached;
    for (const NodeId v : g.neighbors(u)) {
      if (!seen[v]) {
        seen[v] = true;
        stack.push_back(v);
      }
    }
  }
  EXPECT_EQ(reached, g.num_nodes());
}

TEST(StochasticBlockModel, RejectsOutOfRangeParameters) {
  Xoshiro256 rng(20);
  EXPECT_THROW(StochasticBlockModelGraph(100, 0, 0.5, 0.1, rng),
               ContractViolation);
  EXPECT_THROW(StochasticBlockModelGraph(100, 101, 0.5, 0.1, rng),
               ContractViolation);
  EXPECT_THROW(StochasticBlockModelGraph(100, 4, 0.0, 0.1, rng),
               ContractViolation);
  EXPECT_THROW(StochasticBlockModelGraph(100, 4, 0.5, 1.5, rng),
               ContractViolation);
}

TEST(GraphFactory, ParsesEveryRegisteredKind) {
  EXPECT_EQ(parse_graph_kind("complete"), GraphKind::kComplete);
  EXPECT_EQ(parse_graph_kind("ring"), GraphKind::kRing);
  EXPECT_EQ(parse_graph_kind("torus"), GraphKind::kTorus);
  EXPECT_EQ(parse_graph_kind("er"), GraphKind::kErdosRenyi);
  EXPECT_EQ(parse_graph_kind("regular"), GraphKind::kRandomRegular);
  EXPECT_EQ(parse_graph_kind("sbm"), GraphKind::kSbm);
  EXPECT_THROW(parse_graph_kind("smallworld"), ContractViolation);
  try {
    parse_graph_kind("smallworld");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--graph"), std::string::npos) << what;
    EXPECT_NE(what.find("smallworld"), std::string::npos) << what;
  }
}

TEST(GraphFactory, BuildsEveryKindWithTheRightSize) {
  Xoshiro256 rng(21);
  GraphSpec spec;
  for (const GraphKind kind :
       {GraphKind::kComplete, GraphKind::kRing, GraphKind::kTorus,
        GraphKind::kErdosRenyi, GraphKind::kRandomRegular, GraphKind::kSbm}) {
    spec.kind = kind;
    const AnyGraph g = make_graph(spec, 100, rng);
    // The torus rounds 100 down to 10x10 = 100; everything else is exact.
    EXPECT_EQ(num_nodes(g), 100u) << spec.label();
  }
  spec.kind = GraphKind::kTorus;
  EXPECT_EQ(num_nodes(make_graph(spec, 90, rng)), 81u);
}

TEST(GraphFactory, ValidationNamesTheFlag) {
  Xoshiro256 rng(22);
  GraphSpec spec;
  spec.kind = GraphKind::kSbm;
  spec.p_in = 1.5;
  try {
    make_graph(spec, 100, rng);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("--graph-pin"), std::string::npos)
        << e.what();
  }
  spec.p_in = 0.3;
  spec.p_out = -0.1;
  EXPECT_THROW(make_graph(spec, 100, rng), ContractViolation);
  spec.p_out = 0.01;
  spec.blocks = 0;
  EXPECT_THROW(spec.validate(), ContractViolation);
  spec.blocks = 101;  // more blocks than nodes
  EXPECT_THROW(make_graph(spec, 100, rng), ContractViolation);

  GraphSpec regular;
  regular.kind = GraphKind::kRandomRegular;
  regular.degree = 3;  // odd degree * odd n violates handshake parity
  try {
    make_graph(regular, 99, rng);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("--graph-degree"),
              std::string::npos)
        << e.what();
  }
}

TEST(GraphFactory, ErdosRenyiAutoProbabilityConnects) {
  Xoshiro256 rng(23);
  GraphSpec spec;
  spec.kind = GraphKind::kErdosRenyi;
  const AnyGraph g = make_graph(spec, 512, rng);  // er_p = 0 -> 3 ln n / n
  EXPECT_EQ(std::get<ErdosRenyiGraph>(g).num_isolated(), 0u);
}

TEST(GraphFactory, RejectsBuildsWithIsolatedNodes) {
  // In-range rates that strand nodes must fail at build time with the
  // flag named, not crash later inside sample_neighbor on a worker.
  Xoshiro256 rng(24);
  GraphSpec sparse_er;
  sparse_er.kind = GraphKind::kErdosRenyi;
  sparse_er.er_p = 0.0005;  // expected degree ~ 0.25: mostly isolated
  try {
    make_graph(sparse_er, 500, rng);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("--graph-p"), std::string::npos)
        << e.what();
  }

  GraphSpec sparse_sbm;
  sparse_sbm.kind = GraphKind::kSbm;
  sparse_sbm.blocks = 2;
  sparse_sbm.p_in = 0.001;
  sparse_sbm.p_out = 0.0;
  try {
    make_graph(sparse_sbm, 400, rng);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("--graph-pin"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace plurality
