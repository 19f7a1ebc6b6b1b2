#pragma once

/// \file csr.hpp
/// The one topology value of every non-clique family: flat CSR rows
/// (n + 1 row offsets and the concatenated neighbor rows) plus, for the
/// stochastic block model, its block partition. The family builders
/// (graph/builders.hpp) write their rows straight into an owned
/// CsrTopology; the protocols sample it and the placements
/// (opinion/placement.hpp) enumerate it, so each protocol and each
/// placement is instantiated once, whatever the family.
///
/// Forms:
///   - owned: the rows (and partition) a builder wrote, held here;
///   - borrowed: a view of another topology's rows and partition
///     (borrow(), or ChurnableCsr's rewired copy) — no copy, the
///     source must outlive the view;
///   - the implicit complete graph: no storage; a neighbor of u is a
///     uniform draw over [0, n-1) skipping u, the identical draw
///     sequence to CompleteGraph::sample_neighbor, so clique
///     experiments run on the view bit-identically.
///
/// Sampling is one uniform draw plus one indexed load in every form;
/// the topology is immutable after construction and safe to share
/// across shard worker threads.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro256.hpp"
#include "support/assert.hpp"

namespace plurality {

class CsrTopology {
 public:
  /// The implicit complete-graph view on n >= 2 nodes (no storage).
  static CsrTopology implicit_complete(std::uint64_t n) {
    PC_EXPECTS(n >= 2);
    CsrTopology view;
    view.n_ = n;
    view.complete_ = true;
    return view;
  }

  /// A view borrowing existing CSR storage (offsets.size() == n + 1),
  /// with no partition. The storage must outlive the view.
  static CsrTopology borrowed(std::span<const std::uint64_t> offsets,
                              std::span<const NodeId> edges) {
    PC_EXPECTS(!offsets.empty());
    CsrTopology view;
    view.n_ = offsets.size() - 1;
    view.offsets_ = offsets;
    view.edges_ = edges;
    return view;
  }

  /// Owned rows (offsets.size() == n + 1) and an optional partition:
  /// `block_starts` lists B + 1 ascending node ids, block b holding the
  /// contiguous nodes [block_starts[b], block_starts[b + 1]).
  static CsrTopology owned(std::vector<std::uint64_t> offsets,
                           std::vector<NodeId> edges,
                           std::vector<NodeId> block_starts = {}) {
    PC_EXPECTS(!offsets.empty());
    PC_EXPECTS(block_starts.empty() ||
               block_starts.back() == offsets.size() - 1);
    CsrTopology view;
    view.owned_offsets_ = std::move(offsets);
    view.owned_edges_ = std::move(edges);
    view.owned_blocks_ = std::move(block_starts);
    view.n_ = view.owned_offsets_.size() - 1;
    view.offsets_ = view.owned_offsets_;
    view.edges_ = view.owned_edges_;
    view.blocks_ = view.owned_blocks_;
    return view;
  }

  /// Owned rows on n nodes from a flat endpoint-pair list (a0, b0, a1,
  /// b1, ...), scattered straight into CSR with no per-node staging.
  /// Pair (a, b) appends b to row a, then a to row b, so every row
  /// lists its neighbors in pair order; a self-loop (a, a) puts a into
  /// row a twice.
  static CsrTopology from_pairs(std::uint64_t n,
                                std::span<const NodeId> pairs,
                                std::vector<NodeId> block_starts = {});

  // Move-only: a copy of the owned form would either alias the source's
  // buffers or need a deep copy nothing wants; vector moves keep their
  // heap buffer, so the spans survive a move intact.
  CsrTopology(CsrTopology&&) noexcept = default;
  CsrTopology& operator=(CsrTopology&&) noexcept = default;
  CsrTopology(const CsrTopology&) = delete;
  CsrTopology& operator=(const CsrTopology&) = delete;

  /// An O(1) view of this topology's rows and partition (this topology
  /// must outlive it, hence no temporaries); the implicit clique stays
  /// implicit.
  CsrTopology borrow() const&& = delete;
  CsrTopology borrow() const& {
    CsrTopology view;
    view.n_ = n_;
    view.complete_ = complete_;
    view.offsets_ = offsets_;
    view.edges_ = edges_;
    view.blocks_ = blocks_;
    return view;
  }

  std::uint64_t num_nodes() const noexcept { return n_; }

  bool is_implicit_complete() const noexcept { return complete_; }

  std::uint64_t degree(NodeId u) const {
    if (complete_) return n_ - 1;
    PC_EXPECTS(u + 1 < offsets_.size());
    return offsets_[u + 1] - offsets_[u];
  }

  /// Uniform random neighbor of u. Requires degree(u) > 0 (the factory
  /// rejects builds with isolated nodes). Always inlined, like the
  /// protocols' on_tick that calls it.
  [[gnu::always_inline]] NodeId sample_neighbor(NodeId u,
                                                Xoshiro256& rng) const {
    if (complete_) {
      // Bit-identical to CompleteGraph::sample_neighbor: a uniform draw
      // over the other n-1 nodes, skipping over u.
      PC_EXPECTS(u < n_);
      const std::uint64_t draw = uniform_below(rng, n_ - 1);
      return static_cast<NodeId>(draw < u ? draw : draw + 1);
    }
    PC_EXPECTS(u + 1 < offsets_.size());
    const std::uint64_t lo = offsets_[u];
    const std::uint64_t deg = offsets_[u + 1] - lo;
    PC_EXPECTS(deg > 0);
    return edges_[lo + uniform_below(rng, deg)];
  }

  /// The stored neighbor row of u. Contract: not available for the
  /// implicit complete view (it has no rows by design — enumerate via
  /// append_neighbors instead).
  std::span<const NodeId> neighbors(NodeId u) const {
    PC_EXPECTS(!complete_);
    PC_EXPECTS(u + 1 < offsets_.size());
    return edges_.subspan(offsets_[u], offsets_[u + 1] - offsets_[u]);
  }

  /// Appends u's neighbors to `out` (does not clear it): the stored row,
  /// or on the implicit clique every other node in ascending order.
  /// O(degree) — for the placements, which enumerate off the hot path.
  void append_neighbors(NodeId u, std::vector<NodeId>& out) const;

  /// The block partition (see owned()): B + 1 block boundaries, empty
  /// for every family without one (all but the SBM).
  std::span<const NodeId> block_starts() const noexcept { return blocks_; }

  /// The bytes of CSR structure behind this view — offsets + edge
  /// entries whether borrowed or owned, 0 for the implicit clique.
  /// Feeds the bytes_per_node accounting in every BENCH record.
  std::size_t storage_bytes() const noexcept {
    return offsets_.size() * sizeof(std::uint64_t) +
           edges_.size() * sizeof(NodeId);
  }

 private:
  CsrTopology() = default;

  std::uint64_t n_ = 0;
  bool complete_ = false;
  std::span<const std::uint64_t> offsets_;
  std::span<const NodeId> edges_;
  std::vector<std::uint64_t> owned_offsets_;
  std::vector<NodeId> owned_edges_;
  std::span<const NodeId> blocks_;
  std::vector<NodeId> owned_blocks_;
};

static_assert(GraphTopology<CsrTopology>);

}  // namespace plurality
