// Unit + statistical tests for the graph substrate.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <vector>

#include "graph/builders.hpp"
#include "graph/complete.hpp"
#include "graph/csr.hpp"
#include "graph/factory.hpp"
#include "graph/graph.hpp"
#include "row_counts.hpp"
#include "support/assert.hpp"

namespace plurality {
namespace {

// The clique samples in closed form; every other family is the CSR
// rows its builder wrote.
static_assert(GraphTopology<CompleteGraph>);
static_assert(GraphTopology<CsrTopology>);

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

TEST(Ring, OnlyAdjacentNodes) {
  const CsrTopology g = build_ring(7);
  Xoshiro256 rng(4);
  for (int i = 0; i < 1000; ++i) {
    const NodeId v = g.sample_neighbor(3, rng);
    EXPECT_TRUE(v == 2 || v == 4);
  }
}

TEST(Ring, WrapsAround) {
  const CsrTopology g = build_ring(5);
  Xoshiro256 rng(5);
  std::set<NodeId> seen0;
  std::set<NodeId> seen4;
  for (int i = 0; i < 500; ++i) {
    seen0.insert(g.sample_neighbor(0, rng));
    seen4.insert(g.sample_neighbor(4, rng));
  }
  EXPECT_EQ(seen0, (std::set<NodeId>{4, 1}));
  EXPECT_EQ(seen4, (std::set<NodeId>{3, 0}));
  EXPECT_THROW(build_ring(2), ContractViolation);
}

TEST(Torus, FourDistinctNeighbors) {
  const CsrTopology g = build_torus(4, 5);
  EXPECT_EQ(g.num_nodes(), 20u);
  EXPECT_EQ(g.degree(0), 4u);
  Xoshiro256 rng(6);
  std::set<NodeId> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(g.sample_neighbor(5, rng));
  // Node 5 is (x=1, y=1): neighbors (2,1)=6, (0,1)=4, (1,2)=9, (1,0)=1.
  EXPECT_EQ(seen, (std::set<NodeId>{6, 4, 9, 1}));
}

TEST(Torus, CornerWrapsBothAxes) {
  const CsrTopology g = build_torus(3, 3);
  Xoshiro256 rng(7);
  std::set<NodeId> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(g.sample_neighbor(0, rng));
  // (0,0): east (1,0)=1, west (2,0)=2, south (0,1)=3, north (0,2)=6.
  EXPECT_EQ(seen, (std::set<NodeId>{1, 2, 3, 6}));
  EXPECT_THROW(build_torus(2, 5), ContractViolation);
}

TEST(CsrFromPairs, CsrLayout) {
  const std::vector<NodeId> pairs{0, 1, 0, 2};
  const CsrTopology adj = CsrTopology::from_pairs(3, pairs);
  EXPECT_EQ(adj.num_nodes(), 3u);
  EXPECT_EQ(adj.degree(0), 2u);
  EXPECT_EQ(adj.degree(1), 1u);
  EXPECT_EQ(count_edges(adj), 2u);
  EXPECT_TRUE(adj.block_starts().empty());
  const auto row = adj.neighbors(0);
  EXPECT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], 1u);
  EXPECT_EQ(row[1], 2u);
}

TEST(CsrFromPairs, SampleFromEmptyRowViolatesContract) {
  const std::vector<NodeId> pairs{0, 1};
  const AnyGraph any = CsrTopology::from_pairs(3, pairs);
  const CsrTopology view = make_csr_view(any);
  Xoshiro256 rng(8);
  EXPECT_THROW(view.sample_neighbor(2, rng), ContractViolation);
}

TEST(ErdosRenyi, FullProbabilityGivesClique) {
  Xoshiro256 rng(9);
  const CsrTopology g = build_erdos_renyi(8, 1.0, rng);
  for (NodeId u = 0; u < 8; ++u) EXPECT_EQ(g.degree(u), 7u);
  EXPECT_EQ(count_isolated(g), 0u);
  EXPECT_EQ(count_edges(g), 28u);
}

TEST(ErdosRenyi, MeanDegreeMatchesNP) {
  Xoshiro256 rng(10);
  const std::uint64_t n = 2000;
  const double p = 0.01;
  const CsrTopology g = build_erdos_renyi(n, p, rng);
  double total_degree = 0.0;
  for (NodeId u = 0; u < n; ++u) total_degree += g.degree(u);
  const double mean_degree = total_degree / n;
  const double expected = p * (n - 1);
  EXPECT_NEAR(mean_degree, expected, 1.0);
}

TEST(ErdosRenyi, SamplesAreActualNeighbors) {
  Xoshiro256 rng(11);
  const AnyGraph any = build_erdos_renyi(50, 0.3, rng);
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
  const CsrTopology g = build_erdos_renyi(500, 0.0005, rng);
  // Expected degree ~ 0.25: most nodes are isolated.
  EXPECT_GT(count_isolated(g), 100u);
  EXPECT_THROW(build_erdos_renyi(2, 0.0, rng), ContractViolation);
}

TEST(RandomRegular, ExactDegrees) {
  Xoshiro256 rng(13);
  const CsrTopology g = build_random_regular(100, 4, rng);
  for (NodeId u = 0; u < 100; ++u) EXPECT_EQ(g.degree(u), 4u);
  // At d = 4 an attempt is simple with probability about e^{-15/4};
  // at this seed one of the first 49 is, and it is kept.
  EXPECT_EQ(count_defects(g), 0u);
}

TEST(RandomRegular, KeptAttemptCarriesDefects) {
  // A uniform pairing at d = 8 is simple with probability about
  // e^{-63/4}, so the kept 50th attempt carries defects (self-loops
  // and repeated pairs) as extra stubs, every degree still 8.
  Xoshiro256 rng(25);
  const std::uint64_t n = 4096;
  const CsrTopology g = build_random_regular(n, 8, rng);
  for (NodeId u = 0; u < n; ++u) EXPECT_EQ(g.degree(u), 8u);
  EXPECT_GT(count_defects(g), 0u);
}

TEST(RandomRegular, OddDegreeTimesOddNodesRejected) {
  Xoshiro256 rng(14);
  EXPECT_THROW(build_random_regular(5, 3, rng), ContractViolation);
  EXPECT_NO_THROW(build_random_regular(6, 3, rng));
}

TEST(RandomRegular, NeighborsAreValid) {
  Xoshiro256 rng(15);
  const AnyGraph any = build_random_regular(64, 6, rng);
  const CsrTopology g = make_csr_view(any);
  for (NodeId u = 0; u < 64; ++u) {
    for (int i = 0; i < 10; ++i) {
      EXPECT_LT(g.sample_neighbor(u, rng), 64u);
    }
  }
}

TEST(StochasticBlockModel, BlockSizesAreAsEqualAsPossible) {
  Xoshiro256 rng(16);
  const CsrTopology g = build_sbm(103, 4, 0.5, 0.1, rng);
  EXPECT_EQ(g.num_nodes(), 103u);
  // 103 = 26 + 26 + 26 + 25: the first n % B blocks get the extra node.
  const auto starts = g.block_starts();
  EXPECT_EQ(std::vector<NodeId>(starts.begin(), starts.end()),
            (std::vector<NodeId>{0, 26, 52, 78, 103}));
}

TEST(StochasticBlockModel, EdgeRatesMatchPinAndPout) {
  Xoshiro256 rng(17);
  const std::uint64_t n = 2000;
  const std::uint32_t blocks = 4;
  const double p_in = 0.1;
  const double p_out = 0.01;
  const CsrTopology g = build_sbm(n, blocks, p_in, p_out, rng);

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
  const BlockEdges edges = count_block_edges(g);
  EXPECT_NEAR(static_cast<double>(edges.within), within_mean, 5 * within_sd);
  EXPECT_NEAR(static_cast<double>(edges.between), between_mean,
              5 * between_sd);
  EXPECT_EQ(count_edges(g), edges.within + edges.between);
}

TEST(StochasticBlockModel, SamplesAreActualNeighborsAcrossBlocks) {
  Xoshiro256 rng(18);
  const AnyGraph any = build_sbm(120, 3, 0.5, 0.1, rng);
  const CsrTopology g = make_csr_view(any);
  // The view carries the partition with the rows.
  const std::vector<std::uint32_t> block = block_labels(g);
  EXPECT_EQ(block[0], 0u);
  EXPECT_EQ(block[119], 2u);
  std::set<NodeId> cross_sampled;
  for (NodeId u = 0; u < 120; ++u) {
    if (g.degree(u) == 0) continue;
    for (int i = 0; i < 20; ++i) {
      const NodeId v = g.sample_neighbor(u, rng);
      EXPECT_NE(v, u);
      EXPECT_LT(v, 120u);
      if (block[v] != block[u]) cross_sampled.insert(v);
    }
  }
  EXPECT_FALSE(cross_sampled.empty());
}

TEST(StochasticBlockModel, ConnectedAtTheDefaultSweepPoint) {
  // The default --graph=sbm sweep point (scaled down to n=1024):
  // blocks=4, p_in=0.3, p_out=0.01 must give one connected component,
  // or consensus experiments could never terminate.
  Xoshiro256 rng(19);
  const CsrTopology g = build_sbm(1024, 4, 0.3, 0.01, rng);
  EXPECT_EQ(count_isolated(g), 0u);
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
  EXPECT_THROW(build_sbm(100, 0, 0.5, 0.1, rng), ContractViolation);
  EXPECT_THROW(build_sbm(100, 101, 0.5, 0.1, rng), ContractViolation);
  EXPECT_THROW(build_sbm(100, 4, 0.0, 0.1, rng), ContractViolation);
  EXPECT_THROW(build_sbm(100, 4, 0.5, 1.5, rng), ContractViolation);
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
  EXPECT_EQ(count_isolated(std::get<CsrTopology>(g)), 0u);
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
