#pragma once

/// \file three_majority.hpp
/// The 3-Majority dynamics: sample three uniform random neighbors and
/// adopt the majority color among them; if all three differ, adopt the
/// first sample. A standard comparison point in the plurality-consensus
/// literature (Becchetti et al., SODA'16) with behavior close to
/// Two-Choices on the clique; included as an extra baseline for the
/// head-to-head experiments.

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "opinion/assignment.hpp"
#include "opinion/table.hpp"
#include "rng/xoshiro256.hpp"

namespace plurality {

namespace detail {

/// Majority of three colors; falls back to `a` when all three differ.
inline ColorId majority_of_three(ColorId a, ColorId b, ColorId c) noexcept {
  if (b == c) return b;
  return a;  // covers a==b, a==c, and the all-distinct fallback
}

}  // namespace detail

/// Synchronous 3-Majority.
template <GraphTopology G>
class ThreeMajoritySync {
 public:
  ThreeMajoritySync(const G& graph, Assignment assignment)
      : graph_(&graph),
        table_(std::move(assignment.colors), assignment.num_colors) {
    PC_EXPECTS(graph.num_nodes() == table_.num_nodes());
  }

  void execute_round(Xoshiro256& rng) {
    const auto n = static_cast<NodeId>(table_.num_nodes());
    table_.copy_colors_into(prev_);
    for (NodeId u = 0; u < n; ++u) {
      const ColorId a = prev_[graph_->sample_neighbor(u, rng)];
      const ColorId b = prev_[graph_->sample_neighbor(u, rng)];
      const ColorId c = prev_[graph_->sample_neighbor(u, rng)];
      table_.set_color(u, detail::majority_of_three(a, b, c));
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

/// Asynchronous 3-Majority.
template <GraphTopology G>
class ThreeMajorityAsync {
 public:
  ThreeMajorityAsync(const G& graph, Assignment assignment)
      : graph_(&graph),
        table_(std::move(assignment.colors), assignment.num_colors) {
    PC_EXPECTS(graph.num_nodes() == table_.num_nodes());
  }

  [[gnu::always_inline]] void on_tick(NodeId u, Xoshiro256& rng) {
    const ColorId a = table_.color(graph_->sample_neighbor(u, rng));
    const ColorId b = table_.color(graph_->sample_neighbor(u, rng));
    const ColorId c = table_.color(graph_->sample_neighbor(u, rng));
    table_.set_color(u, detail::majority_of_three(a, b, c));
  }

  /// Sharded-engine form of on_tick, split in two (see
  /// sim/sharded_engine.hpp): sample() draws the three neighbors,
  /// decide() is the majority rule off a read view.
  std::array<NodeId, 3> sample(NodeId u, Xoshiro256& rng) const {
    const NodeId a = graph_->sample_neighbor(u, rng);
    const NodeId b = graph_->sample_neighbor(u, rng);
    return {a, b, graph_->sample_neighbor(u, rng)};
  }

  template <typename View>
  ColorId decide(NodeId /*u*/, const std::array<NodeId, 3>& s,
                 const View& view) const {
    return detail::majority_of_three(view.color(s[0]), view.color(s[1]),
                                     view.color(s[2]));
  }

  /// Delayed form of the tick, split at the query/response boundary for
  /// the sharded engine's delivery queues (run_sharded_queued) and the
  /// messaging driver (DelayedResponses, core/delayed.hpp): the three
  /// neighbor colors are read at query time, the majority rule is
  /// resolved at delivery.
  struct Query {
    ColorId a;
    ColorId b;
    ColorId c;
  };

  template <typename View>
  Query query(NodeId u, const View& view, Xoshiro256& rng) const {
    return Query{view.color(graph_->sample_neighbor(u, rng)),
                 view.color(graph_->sample_neighbor(u, rng)),
                 view.color(graph_->sample_neighbor(u, rng))};
  }

  template <typename View>
  ColorId apply_query(NodeId /*u*/, const Query& q,
                      const View& /*view*/) const {
    return detail::majority_of_three(q.a, q.b, q.c);
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
