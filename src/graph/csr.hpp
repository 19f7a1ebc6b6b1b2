#pragma once

/// \file csr.hpp
/// One flat, cache-friendly topology view over every factory-built
/// graph, and the one neighbor sampler of every non-clique family: the
/// families themselves only build and enumerate their rows. Build the
/// view once per sweep point from any AnyGraph and instantiate each
/// protocol a single time over it, whatever the family.
///
/// Representation:
///   - the complete graph keeps its *implicit* no-storage form (a
///     neighbor of u is a uniform draw over [0, n-1) skipping u — the
///     identical draw sequence to CompleteGraph::sample_neighbor, so
///     converting clique experiments to the view is bit-stable);
///   - adjacency-backed families (Erdős–Rényi, random-regular, SBM)
///     *borrow* their AdjacencyList's CSR arrays — no copy, the source
///     graph must outlive the view;
///   - closed-form families (ring, torus) materialize their rows once
///     into owned CSR arrays (2n / 4n entries, built off the hot path).
///
/// Sampling is one uniform draw plus one indexed load in every case;
/// the view is immutable after construction and safe to share across
/// shard worker threads.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/factory.hpp"
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

  /// A view borrowing existing CSR storage (offsets.size() == n + 1).
  /// The storage must outlive the view.
  static CsrTopology borrowed(std::span<const std::uint64_t> offsets,
                              std::span<const NodeId> edges) {
    PC_EXPECTS(!offsets.empty());
    CsrTopology view;
    view.n_ = offsets.size() - 1;
    view.offsets_ = offsets;
    view.edges_ = edges;
    return view;
  }

  /// A view owning freshly materialized CSR storage (ring/torus rows).
  static CsrTopology owned(std::vector<std::uint64_t> offsets,
                           std::vector<NodeId> edges) {
    PC_EXPECTS(!offsets.empty());
    CsrTopology view;
    view.owned_offsets_ = std::move(offsets);
    view.owned_edges_ = std::move(edges);
    view.n_ = view.owned_offsets_.size() - 1;
    view.offsets_ = view.owned_offsets_;
    view.edges_ = view.owned_edges_;
    return view;
  }

  // Move-only: a copy of the owned form would either alias the source's
  // buffers or need a deep copy nothing wants; vector moves keep their
  // heap buffer, so the spans survive a move intact.
  CsrTopology(CsrTopology&&) noexcept = default;
  CsrTopology& operator=(CsrTopology&&) noexcept = default;
  CsrTopology(const CsrTopology&) = delete;
  CsrTopology& operator=(const CsrTopology&) = delete;

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
  /// CompleteGraph::append_neighbors on the source graph instead).
  std::span<const NodeId> neighbors(NodeId u) const {
    PC_EXPECTS(!complete_);
    PC_EXPECTS(u + 1 < offsets_.size());
    return edges_.subspan(offsets_[u], offsets_[u + 1] - offsets_[u]);
  }

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
};

static_assert(GraphTopology<CsrTopology>);

/// Builds the flat view of any factory-built topology. Borrows the
/// adjacency storage of Erdős–Rényi / random-regular / SBM graphs (the
/// AnyGraph must outlive the view), materializes ring/torus rows, and
/// keeps the complete graph implicit.
CsrTopology make_csr_view(const AnyGraph& graph);

/// The bytes of topology structure a factory-built graph holds: 0 for
/// the implicit complete graph, CSR offsets + edges for the
/// adjacency-backed and materialized families. The record-level
/// counterpart of CsrTopology::storage_bytes for graphs used directly.
std::size_t graph_storage_bytes(const AnyGraph& graph);

}  // namespace plurality
