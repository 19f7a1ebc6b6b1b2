// Build fingerprints of the graph layer: one 64-bit hash per (family x
// parameters x seed) case over the built graph's CSR rows (the row
// offsets and every neighbor entry, in row order), its defect /
// isolated-node / edge counts, recounted from those rows, and the
// build generator's next output — so a builder change that reorders a
// row, moves a defect, or draws one more or one fewer random number
// fails the named case. Every family's rows are read through
// make_csr_view, the one view on which the protocols sample and the
// placements enumerate a non-clique family.
//
// The table is pinned to the toolchain: Erdős–Rényi and SBM gap
// lengths go through libm (std::log), whose last-bit results may
// differ between libm versions. After a deliberate change to a builder
// regenerate the table: every failing case prints its replacement line.

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <string>

#include "fingerprint.hpp"
#include "graph/builders.hpp"
#include "graph/csr.hpp"
#include "graph/factory.hpp"
#include "row_counts.hpp"

namespace plurality {
namespace {

constexpr std::uint64_t kSeeds[] = {11, 12};

/// Hashes the rows of the flat view of `graph`, then `counts`, then
/// the generator's next draw.
std::uint64_t hash_build(const AnyGraph& graph,
                         std::initializer_list<std::uint64_t> counts,
                         Xoshiro256& rng) {
  const CsrTopology view = make_csr_view(graph);
  Fingerprint fp;
  fp.add(view.num_nodes());
  std::uint64_t offset = 0;
  for (NodeId u = 0; u < view.num_nodes(); ++u) {
    fp.add(offset);
    offset += view.degree(u);
  }
  fp.add(offset);
  for (NodeId u = 0; u < view.num_nodes(); ++u) {
    for (const NodeId v : view.neighbors(u)) fp.add(std::uint64_t{v});
  }
  for (const std::uint64_t c : counts) fp.add(c);
  fp.add(rng());
  return fp.value();
}

std::uint64_t regular(std::uint32_t d, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const AnyGraph g = build_random_regular(2048, d, rng);
  return hash_build(g, {count_defects(std::get<CsrTopology>(g))}, rng);
}

std::uint64_t erdos_renyi(std::uint64_t n, double p, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const AnyGraph g = build_erdos_renyi(n, p, rng);
  const auto& er = std::get<CsrTopology>(g);
  return hash_build(g, {count_isolated(er), count_edges(er)}, rng);
}

std::uint64_t sbm(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const AnyGraph g = build_sbm(2000, 4, 0.05, 0.002, rng);
  const auto& s = std::get<CsrTopology>(g);
  const BlockEdges edges = count_block_edges(s);
  return hash_build(g, {count_isolated(s), edges.within, edges.between},
                    rng);
}

std::uint64_t closed_form(const AnyGraph& g, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  return hash_build(g, {}, rng);
}

// Recorded with GCC 12 on x86-64 Linux (glibc libm); see the file header.
constexpr Golden kGolden[] = {
    {"regular/d1/seed11", 0x2bb6633826a43628ULL},
    {"regular/d3/seed11", 0x10aec40109d46d09ULL},
    {"regular/d4/seed11", 0x83923c1650aeb161ULL},
    {"regular/d8/seed11", 0xc727374f9f28fec2ULL},
    {"er/sparse/seed11", 0x8a5e2c2120873943ULL},
    {"er/p1/seed11", 0xcb687075d36d6e63ULL},
    {"sbm/seed11", 0x00984a0c0720ec1bULL},
    {"ring/seed11", 0x4f35ff9e0c10301aULL},
    {"torus/seed11", 0x464d553edcfc2ef5ULL},
    {"regular/d1/seed12", 0x155c71a38c14619bULL},
    {"regular/d3/seed12", 0x644db6e15d665e77ULL},
    {"regular/d4/seed12", 0x966becd0ad37665cULL},
    {"regular/d8/seed12", 0x317dbf9d89e59310ULL},
    {"er/sparse/seed12", 0x26e33011be417125ULL},
    {"er/p1/seed12", 0x0d5f1e7c0edbe885ULL},
    {"sbm/seed12", 0xa814a2a4d20eb92cULL},
    {"ring/seed12", 0x7e25ebec5a121dabULL},
    {"torus/seed12", 0x77db9f994e7b8a5bULL},
};

TEST(GraphFingerprints, EveryFamilyAndSeedMatches) {
  std::size_t checked = 0;
  const auto check = [&](const std::string& name, std::uint64_t hash) {
    if (check_fingerprint(kGolden, name, hash)) ++checked;
  };
  for (const std::uint64_t seed : kSeeds) {
    const std::string s = "/seed" + std::to_string(seed);
    for (const std::uint32_t d : {1u, 3u, 4u, 8u}) {
      check("regular/d" + std::to_string(d) + s, regular(d, seed));
    }
    check("er/sparse" + s, erdos_renyi(2000, 0.002, seed));
    check("er/p1" + s, erdos_renyi(1000, 1.0, seed));
    check("sbm" + s, sbm(seed));
    check("ring" + s, closed_form(build_ring(2000), seed));
    check("torus" + s, closed_form(build_torus(45, 45), seed));
  }
  EXPECT_EQ(checked, std::size(kGolden));
}

}  // namespace
}  // namespace plurality
