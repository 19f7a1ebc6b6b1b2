// Tests for the flat CSR topology view (graph/csr.hpp): structural
// agreement with every concrete family it is built from, bit-identical
// sampling against CompleteGraph on the clique, and the GraphTopology
// contract the engines rely on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/complete.hpp"
#include "graph/csr.hpp"
#include "graph/factory.hpp"
#include "graph/ring.hpp"
#include "graph/torus.hpp"
#include "rng/xoshiro256.hpp"
#include "support/assert.hpp"

namespace plurality {
namespace {

static_assert(GraphTopology<CsrTopology>);

TEST(CsrView, CompleteStaysImplicitAndSamplesBitIdentically) {
  const std::uint64_t n = 257;
  const CompleteGraph g(n);
  const AnyGraph any = CompleteGraph(n);
  const CsrTopology csr = make_csr_view(any);
  EXPECT_TRUE(csr.is_implicit_complete());
  EXPECT_EQ(csr.num_nodes(), n);
  EXPECT_EQ(csr.degree(0), n - 1);
  // Identical draw sequence: the view must be a drop-in replacement
  // for CompleteGraph on the clique experiments' RNG streams.
  Xoshiro256 a(123);
  Xoshiro256 b(123);
  for (int i = 0; i < 200; ++i) {
    const NodeId u = static_cast<NodeId>(i % n);
    EXPECT_EQ(csr.sample_neighbor(u, a), g.sample_neighbor(u, b));
  }
}

TEST(CsrView, ImplicitCompleteNeverSamplesSelf) {
  const CsrTopology csr = make_csr_view(AnyGraph{CompleteGraph(5)});
  Xoshiro256 rng(7);
  for (int i = 0; i < 500; ++i) {
    const NodeId u = static_cast<NodeId>(i % 5);
    const NodeId v = csr.sample_neighbor(u, rng);
    EXPECT_NE(v, u);
    EXPECT_LT(v, 5u);
  }
}

TEST(CsrView, RingMaterializesBothNeighbors) {
  const std::uint64_t n = 9;
  const RingGraph g(n);
  const AnyGraph any = RingGraph(n);
  const CsrTopology csr = make_csr_view(any);
  EXPECT_FALSE(csr.is_implicit_complete());
  EXPECT_EQ(csr.num_nodes(), n);
  for (NodeId u = 0; u < n; ++u) {
    EXPECT_EQ(csr.degree(u), 2u);
    std::vector<NodeId> expected;
    g.append_neighbors(u, expected);
    const auto row = csr.neighbors(u);
    ASSERT_EQ(row.size(), expected.size());
    EXPECT_TRUE(std::equal(row.begin(), row.end(), expected.begin()));
  }
}

TEST(CsrView, TorusMaterializesAllFourNeighbors) {
  const TorusGraph g(4, 4);
  const AnyGraph any = TorusGraph(4, 4);
  const CsrTopology csr = make_csr_view(any);
  EXPECT_EQ(csr.num_nodes(), 16u);
  for (NodeId u = 0; u < 16; ++u) {
    EXPECT_EQ(csr.degree(u), 4u);
    std::vector<NodeId> expected;
    g.append_neighbors(u, expected);
    const auto row = csr.neighbors(u);
    ASSERT_EQ(row.size(), expected.size());
    EXPECT_TRUE(std::equal(row.begin(), row.end(), expected.begin()));
  }
}

TEST(CsrView, SampledNeighborsStayInsideTheStoredRow) {
  GraphSpec spec;
  spec.kind = GraphKind::kSbm;
  Xoshiro256 build_rng(3);
  const AnyGraph any = make_graph(spec, 256, build_rng);
  const CsrTopology csr = make_csr_view(any);
  Xoshiro256 rng(11);
  for (int i = 0; i < 500; ++i) {
    const NodeId u = static_cast<NodeId>(i % csr.num_nodes());
    const NodeId v = csr.sample_neighbor(u, rng);
    const auto row = csr.neighbors(u);
    EXPECT_NE(std::find(row.begin(), row.end(), v), row.end());
  }
}

TEST(CsrView, ImplicitCompleteRejectsRowEnumeration) {
  const CsrTopology csr = make_csr_view(AnyGraph{CompleteGraph(8)});
  EXPECT_THROW(csr.neighbors(0), ContractViolation);
}

TEST(CsrView, MoveTransfersOwnedStorageSafely) {
  const AnyGraph any = RingGraph(64);
  CsrTopology csr = make_csr_view(any);
  const CsrTopology moved = std::move(csr);
  EXPECT_EQ(moved.num_nodes(), 64u);
  EXPECT_EQ(moved.degree(0), 2u);
  const auto row = moved.neighbors(0);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], 63u);
  EXPECT_EQ(row[1], 1u);
}

}  // namespace
}  // namespace plurality
