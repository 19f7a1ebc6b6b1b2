#pragma once

/// \file two_choices.hpp
/// The Two-Choices protocol (Cooper, Elsässer & Radzik, paper ref [2]):
/// sample two uniform random neighbors with replacement; adopt their
/// color iff the two samples coincide. Theorem 1.1 gives the clique
/// run time O(n/c1 * log n) under bias z*sqrt(n log n) — which is
/// Omega(k) when all minorities tie — and experiments E1–E3 reproduce
/// both sides.

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "opinion/assignment.hpp"
#include "opinion/table.hpp"
#include "rng/xoshiro256.hpp"

namespace plurality {

/// Synchronous Two-Choices: all nodes sample off the pre-round snapshot
/// and update simultaneously.
template <GraphTopology G>
class TwoChoicesSync {
 public:
  TwoChoicesSync(const G& graph, Assignment assignment)
      : graph_(&graph),
        table_(std::move(assignment.colors), assignment.num_colors) {
    PC_EXPECTS(graph.num_nodes() == table_.num_nodes());
  }

  void execute_round(Xoshiro256& rng) {
    const auto n = static_cast<NodeId>(table_.num_nodes());
    table_.copy_colors_into(prev_);
    for (NodeId u = 0; u < n; ++u) {
      const NodeId v = graph_->sample_neighbor(u, rng);
      const NodeId w = graph_->sample_neighbor(u, rng);
      if (prev_[v] == prev_[w]) table_.set_color(u, prev_[v]);
    }
    ++rounds_;
  }

  bool done() const noexcept { return table_.has_consensus(); }
  const OpinionTable& table() const noexcept { return table_; }
  std::uint64_t rounds() const noexcept { return rounds_; }

 private:
  const G* graph_;
  OpinionTable table_;
  std::vector<ColorId> prev_;
  std::uint64_t rounds_ = 0;
};

/// Asynchronous Two-Choices: a ticking node samples two neighbors and
/// adopts on coincidence. Also serves as the endgame (part 2) of the
/// paper's main asynchronous protocol.
template <GraphTopology G>
class TwoChoicesAsync {
 public:
  TwoChoicesAsync(const G& graph, Assignment assignment)
      : graph_(&graph),
        table_(std::move(assignment.colors), assignment.num_colors) {
    PC_EXPECTS(graph.num_nodes() == table_.num_nodes());
  }

  [[gnu::always_inline]] void on_tick(NodeId u, Xoshiro256& rng) {
    const NodeId v = graph_->sample_neighbor(u, rng);
    const NodeId w = graph_->sample_neighbor(u, rng);
    const ColorId cv = table_.color(v);
    if (cv == table_.color(w)) table_.set_color(u, cv);
  }

  /// Sharded-engine form of on_tick, split in two (see
  /// sim/sharded_engine.hpp): sample() draws the two neighbors, decide()
  /// is the adopt-on-coincidence rule off a read view.
  std::array<NodeId, 2> sample(NodeId u, Xoshiro256& rng) const {
    const NodeId v = graph_->sample_neighbor(u, rng);
    return {v, graph_->sample_neighbor(u, rng)};
  }

  template <typename View>
  ColorId decide(NodeId u, const std::array<NodeId, 2>& s,
                 const View& view) const {
    const ColorId cv = view.color(s[0]);
    return cv == view.color(s[1]) ? cv : view.color(u);
  }

  /// Delayed form of the tick, split at the query/response boundary for
  /// the sharded engine's delivery queues (run_sharded_queued) and the
  /// messaging driver (DelayedResponses, core/delayed.hpp): the two
  /// neighbor colors are read at query time, and the
  /// adopt-on-coincidence rule is resolved against the node's *current*
  /// color when the answer is delivered.
  struct Query {
    ColorId first;
    ColorId second;
  };

  template <typename View>
  Query query(NodeId u, const View& view, Xoshiro256& rng) const {
    return Query{view.color(graph_->sample_neighbor(u, rng)),
                 view.color(graph_->sample_neighbor(u, rng))};
  }

  template <typename View>
  ColorId apply_query(NodeId u, const Query& q, const View& view) const {
    return q.first == q.second ? q.first : view.color(u);
  }

  std::uint64_t num_nodes() const noexcept { return table_.num_nodes(); }
  bool done() const noexcept { return table_.has_consensus(); }
  const OpinionTable& table() const noexcept { return table_; }
  OpinionTable& mutable_table() noexcept { return table_; }

 private:
  const G* graph_;
  OpinionTable table_;
};

}  // namespace plurality
