#pragma once

/// \file builders.hpp
/// The five non-clique families, each a builder that writes its rows
/// straight into an owned CsrTopology (graph/csr.hpp). The random
/// families draw every edge from the caller's generator and go through
/// the one CSR-from-pairs scatter (CsrTopology::from_pairs); the ring
/// and the torus write their closed-form rows directly. make_graph
/// (graph/factory.hpp) selects among them by `--graph=`.

#include <cstdint>

#include "graph/csr.hpp"
#include "rng/xoshiro256.hpp"

namespace plurality {

/// Cycle C_n: row u is (u-1, u+1) mod n, the extreme low-expansion
/// contrast to the clique. Requires n >= 3 so the two neighbors are
/// distinct.
CsrTopology build_ring(std::uint64_t n);

/// 2D torus (width x height grid with wrap-around, 4-neighborhood),
/// node (x, y) = y * width + x; row u is east, west, south, north.
/// Requires width >= 3 and height >= 3 so all four neighbors are
/// distinct nodes.
CsrTopology build_torus(std::uint32_t width, std::uint32_t height);

/// G(n, p), generated with geometric edge skipping (Batagelj & Brandes
/// 2005) in expected O(n + m) time. Above the connectivity threshold
/// p ~ ln n / n it behaves like a sparse expander. Row v lists its
/// lower neighbors before its higher ones, ascending. Requires n >= 2
/// and p in (0, 1]; the rows may leave nodes isolated (make_graph
/// rejects such builds).
CsrTopology build_erdos_renyi(std::uint64_t n, double p, Xoshiro256& rng);

/// Random d-regular multigraph via the configuration model (stub
/// matching). A pairing with a self-loop or a duplicate edge is
/// resampled, up to 50 attempts; the 50th is kept whatever it holds,
/// with its self-loops and parallel edges as extra stubs (a neighbor
/// is drawn per stub, so sampling stays well-defined). A uniform
/// pairing is simple with probability about e^{-(d^2-1)/4}, so for
/// d >= 6 all but under 1% of builds keep their 50th attempt, with
/// about (d^2-1)/4 defective pairs: a configuration-model multigraph,
/// not a uniform simple regular graph. Each earlier attempt is
/// checked in place and a rejected one stops at its first defect; the
/// 50th is kept unchecked. Requires n >= 2, d >= 1, d < n, and n*d
/// even (handshake parity).
CsrTopology build_random_regular(std::uint64_t n, std::uint32_t d,
                                 Xoshiro256& rng);

/// Stochastic block model G(n; B, p_in, p_out): n nodes split into B
/// contiguous, as-equal-as-possible blocks (the first n % B get one
/// extra node); each within-block pair is an edge with probability
/// p_in, each cross-block pair with p_out. With p_in >> p_out this is
/// the canonical community-structured topology: dense local mixing
/// separated by sparse, low-conductance cuts — the regime where
/// *where* an opinion starts matters as much as *how many* nodes hold
/// it (Becchetti et al.'s monochromatic-distance analysis,
/// arXiv:1407.2565). Generated with the same geometric edge skipping
/// as Erdős–Rényi. The blocks travel with the rows as the topology's
/// partition (CsrTopology::block_starts), the ground truth of the
/// community placements. Requires n >= 2, 1 <= blocks <= n,
/// p_in in (0, 1], and p_out in [0, 1].
CsrTopology build_sbm(std::uint64_t n, std::uint32_t blocks, double p_in,
                      double p_out, Xoshiro256& rng);

}  // namespace plurality
