// Tests for the CSR topology (graph/csr.hpp): the rows every family
// builder writes, the O(1) view make_csr_view takes of them (a borrow,
// partition included), bit-identical sampling against CompleteGraph on
// the implicit clique, the enumeration the placements read, and the
// GraphTopology contract the engines rely on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/builders.hpp"
#include "graph/complete.hpp"
#include "graph/csr.hpp"
#include "graph/factory.hpp"
#include "rng/xoshiro256.hpp"
#include "support/assert.hpp"

namespace plurality {
namespace {

static_assert(GraphTopology<CsrTopology>);

void expect_row(const CsrTopology& csr, NodeId u,
                const std::vector<NodeId>& expected) {
  const auto row = csr.neighbors(u);
  ASSERT_EQ(row.size(), expected.size()) << "row " << u;
  EXPECT_TRUE(std::equal(row.begin(), row.end(), expected.begin()))
      << "row " << u;
}

TEST(CsrView, CompleteStaysImplicitAndSamplesBitIdentically) {
  const std::uint64_t n = 257;
  const CompleteGraph g(n);
  const AnyGraph any = CompleteGraph(n);
  const CsrTopology csr = make_csr_view(any);
  EXPECT_TRUE(csr.is_implicit_complete());
  EXPECT_EQ(csr.num_nodes(), n);
  EXPECT_EQ(csr.degree(0), n - 1);
  EXPECT_EQ(csr.storage_bytes(), 0u);
  EXPECT_EQ(graph_storage_bytes(any), 0u);
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
  const AnyGraph any = CompleteGraph(5);
  const CsrTopology csr = make_csr_view(any);
  Xoshiro256 rng(7);
  for (int i = 0; i < 500; ++i) {
    const NodeId u = static_cast<NodeId>(i % 5);
    const NodeId v = csr.sample_neighbor(u, rng);
    EXPECT_NE(v, u);
    EXPECT_LT(v, 5u);
  }
}

TEST(CsrView, ImplicitCompleteEnumeratesAscendingSkippingSelf) {
  const CsrTopology csr = CsrTopology::implicit_complete(5);
  std::vector<NodeId> out{9};
  csr.append_neighbors(2, out);
  EXPECT_EQ(out, (std::vector<NodeId>{9, 0, 1, 3, 4}));
}

TEST(CsrView, RingRowsAreBothNeighbors) {
  const std::uint64_t n = 9;
  const CsrTopology csr = build_ring(n);
  EXPECT_FALSE(csr.is_implicit_complete());
  EXPECT_EQ(csr.num_nodes(), n);
  EXPECT_TRUE(csr.block_starts().empty());
  for (NodeId u = 0; u < n; ++u) {
    EXPECT_EQ(csr.degree(u), 2u);
    expect_row(csr, u,
               {static_cast<NodeId>((u + n - 1) % n),
                static_cast<NodeId>((u + 1) % n)});
  }
}

TEST(CsrView, TorusRowsAreEastWestSouthNorth) {
  const CsrTopology csr = build_torus(4, 4);
  EXPECT_EQ(csr.num_nodes(), 16u);
  EXPECT_EQ(csr.storage_bytes(),
            17 * sizeof(std::uint64_t) + 64 * sizeof(NodeId));
  for (NodeId u = 0; u < 16; ++u) {
    EXPECT_EQ(csr.degree(u), 4u);
    const NodeId x = u % 4;
    const NodeId y = u / 4;
    expect_row(csr, u,
               {y * 4 + (x + 1) % 4, y * 4 + (x + 3) % 4,
                ((y + 1) % 4) * 4 + x, ((y + 3) % 4) * 4 + x});
  }
}

TEST(CsrView, ViewBorrowsTheHeldRowsAndPartition) {
  GraphSpec spec;
  spec.kind = GraphKind::kSbm;
  Xoshiro256 build_rng(3);
  const AnyGraph any = make_graph(spec, 256, build_rng);
  const auto& rows = std::get<CsrTopology>(any);
  const CsrTopology csr = make_csr_view(any);
  EXPECT_EQ(csr.num_nodes(), 256u);
  EXPECT_EQ(csr.storage_bytes(), rows.storage_bytes());
  EXPECT_EQ(graph_storage_bytes(any), rows.storage_bytes());
  // No copy: the view reads the graph's own buffers.
  EXPECT_EQ(csr.neighbors(0).data(), rows.neighbors(0).data());
  EXPECT_EQ(csr.block_starts().data(), rows.block_starts().data());
  EXPECT_EQ(csr.block_starts().size(), spec.blocks + 1);
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
  const AnyGraph any = CompleteGraph(8);
  const CsrTopology csr = make_csr_view(any);
  EXPECT_THROW(csr.neighbors(0), ContractViolation);
}

TEST(CsrView, MoveTransfersOwnedStorageSafely) {
  CsrTopology csr = build_ring(64);
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
