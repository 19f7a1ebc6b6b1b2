#pragma once

/// \file voter.hpp
/// The classic voter model (single choice): adopt the color of one
/// uniformly sampled neighbor. It solves consensus but not *plurality*
/// consensus — the winner is proportional to initial support, and the
/// run time on the clique is Theta(n). Included as the canonical
/// baseline the Two-Choices literature (paper ref [2]) improves on.

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "opinion/assignment.hpp"
#include "opinion/table.hpp"
#include "rng/xoshiro256.hpp"

namespace plurality {

/// Synchronous voter: every node simultaneously copies a random
/// neighbor's (pre-round) color.
template <GraphTopology G>
class VoterSync {
 public:
  VoterSync(const G& graph, Assignment assignment)
      : graph_(&graph),
        table_(std::move(assignment.colors), assignment.num_colors) {
    PC_EXPECTS(graph.num_nodes() == table_.num_nodes());
  }

  void execute_round(Xoshiro256& rng) {
    const auto n = static_cast<NodeId>(table_.num_nodes());
    table_.copy_colors_into(prev_);
    for (NodeId u = 0; u < n; ++u) {
      const NodeId v = graph_->sample_neighbor(u, rng);
      table_.set_color(u, prev_[v]);
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

/// Asynchronous voter: a ticking node copies a random neighbor's color.
template <GraphTopology G>
class VoterAsync {
 public:
  VoterAsync(const G& graph, Assignment assignment)
      : graph_(&graph),
        table_(std::move(assignment.colors), assignment.num_colors) {
    PC_EXPECTS(graph.num_nodes() == table_.num_nodes());
  }

  [[gnu::always_inline]] void on_tick(NodeId u, Xoshiro256& rng) {
    const NodeId v = graph_->sample_neighbor(u, rng);
    table_.set_color(u, table_.color(v));
  }

  /// Sharded-engine form of on_tick, split in two (see
  /// sim/sharded_engine.hpp): sample() draws the neighbor, decide()
  /// copies its color off a read view.
  std::array<NodeId, 1> sample(NodeId u, Xoshiro256& rng) const {
    return {graph_->sample_neighbor(u, rng)};
  }

  template <typename View>
  ColorId decide(NodeId /*u*/, const std::array<NodeId, 1>& s,
                 const View& view) const {
    return view.color(s[0]);
  }

  /// Delayed form of the tick, split at the query/response boundary for
  /// the sharded engine's delivery queues (run_sharded_queued): query()
  /// samples the neighbor's color at query time, apply_query() resolves
  /// the update when the answer is delivered.
  struct Query {
    ColorId sampled;
  };

  template <typename View>
  Query query(NodeId u, const View& view, Xoshiro256& rng) const {
    return Query{view.color(graph_->sample_neighbor(u, rng))};
  }

  template <typename View>
  ColorId apply_query(NodeId /*u*/, const Query& q,
                      const View& /*view*/) const {
    return q.sampled;
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
