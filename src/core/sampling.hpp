#pragma once

/// \file sampling.hpp
/// Sampling protocols: a node draws K uniform random neighbors (with
/// replacement), looks at their colors and picks its next color by a
/// fixed rule. Voter (K = 1), Two-Choices (K = 2) and 3-Majority
/// (K = 3) are each one rule struct (voter.hpp, two_choices.hpp,
/// three_majority.hpp). A rule is
///
///   struct Rule {
///     static constexpr std::size_t kSamples = K;
///     static ColorId next(ColorId own,
///                         const std::array<ColorId, K>& seen);
///   };
///
/// where `next` is pure: the node's color after it saw `seen` while
/// holding `own`. The two class templates below derive every engine
/// form from the rule and one K-neighbor draw:
///
///   - SamplingAsync::on_tick, the tick of the single-stream engines;
///   - SamplingAsync::sample()/decide(), the sharded stale body
///     (ShardableProtocol): sample() draws the K neighbors and
///     reads no color, decide() reads them off a view and applies the
///     rule;
///   - SamplingAsync::query()/apply_query(), the sharded delivery
///     queues and the messaging driver's DelayedResponses
///     (DelayedShardableProtocol): the K colors are read at query time,
///     and the rule is applied against the node's color at delivery;
///   - SamplingSync::execute_round, synchronous rounds in which every
///     node reads the pre-round colors.
///
/// Every form draws the K neighbors first, in order, and reads their
/// colors afterwards. Reading a color draws nothing, so a rule's
/// trajectories are the same whichever form reads them first.

#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "opinion/assignment.hpp"
#include "opinion/table.hpp"
#include "rng/xoshiro256.hpp"
#include "support/assert.hpp"

namespace plurality {

/// A sampling rule: K >= 1 samples and a pure next-color function.
template <typename R>
concept SamplingRule =
    R::kSamples >= 1 &&
    requires(ColorId own, const std::array<ColorId, R::kSamples>& seen) {
      { R::next(own, seen) } -> std::same_as<ColorId>;
    };

namespace detail {

// Both loops are unrolled so the K entries stay in registers. Rolled,
// GCC 12 kept the sample on the stack in the sharded stale body, which
// then reloaded two 4-byte stores as one 8-byte load: clique_big's wall
// time per tick grew by about a fifth on a 4-core Xeon VM.

/// The K neighbors of u a tick reads, drawn in order.
template <std::size_t K, GraphTopology G>
[[gnu::always_inline]] inline std::array<NodeId, K> draw_neighbors(
    const G& graph, NodeId u, Xoshiro256& rng) {
  std::array<NodeId, K> nodes{};
#pragma GCC unroll 8
  for (NodeId& v : nodes) v = graph.sample_neighbor(u, rng);
  return nodes;
}

/// The colors of `nodes` off `view` (anything with color(NodeId)).
template <std::size_t K, typename View>
[[gnu::always_inline]] inline std::array<ColorId, K> read_colors(
    const std::array<NodeId, K>& nodes, const View& view) {
  std::array<ColorId, K> colors{};
#pragma GCC unroll 8
  for (std::size_t i = 0; i < K; ++i) colors[i] = view.color(nodes[i]);
  return colors;
}

}  // namespace detail

/// The asynchronous form of a sampling rule: a ticking node draws K
/// neighbors and takes Rule::next of their current colors.
template <GraphTopology G, SamplingRule Rule>
class SamplingAsync {
 public:
  static constexpr std::size_t kSamples = Rule::kSamples;
  /// The colors a query read, carried to its delivery.
  using Query = std::array<ColorId, kSamples>;

  SamplingAsync(const G& graph, Assignment assignment)
      : graph_(&graph),
        table_(std::move(assignment.colors), assignment.num_colors) {
    PC_EXPECTS(graph.num_nodes() == table_.num_nodes());
  }

  [[gnu::always_inline]] void on_tick(NodeId u, Xoshiro256& rng) {
    table_.set_color(u, decide(u, sample(u, rng), table_));
  }

  [[gnu::always_inline]] std::array<NodeId, kSamples> sample(
      NodeId u, Xoshiro256& rng) const {
    return detail::draw_neighbors<kSamples>(*graph_, u, rng);
  }

  template <typename View>
  [[gnu::always_inline]] ColorId decide(
      NodeId u, const std::array<NodeId, kSamples>& s,
      const View& view) const {
    return Rule::next(view.color(u), detail::read_colors(s, view));
  }

  template <typename View>
  Query query(NodeId u, const View& view, Xoshiro256& rng) const {
    return detail::read_colors(sample(u, rng), view);
  }

  template <typename View>
  ColorId apply_query(NodeId u, const Query& q, const View& view) const {
    return Rule::next(view.color(u), q);
  }

  std::uint64_t num_nodes() const noexcept { return table_.num_nodes(); }
  bool done() const noexcept { return table_.has_consensus(); }
  const OpinionTable& table() const noexcept { return table_; }
  OpinionTable& mutable_table() noexcept { return table_; }

 private:
  const G* graph_;
  OpinionTable table_;
};

/// The synchronous form of a sampling rule: every node draws K
/// neighbors, in node order, and takes Rule::next of their pre-round
/// colors; all nodes update at once.
template <GraphTopology G, SamplingRule Rule>
class SamplingSync {
 public:
  SamplingSync(const G& graph, Assignment assignment)
      : graph_(&graph),
        table_(std::move(assignment.colors), assignment.num_colors) {
    PC_EXPECTS(graph.num_nodes() == table_.num_nodes());
  }

  void execute_round(Xoshiro256& rng) {
    const auto n = static_cast<NodeId>(table_.num_nodes());
    table_.copy_colors_into(prev_);
    const PreRound view{prev_.data()};
    for (NodeId u = 0; u < n; ++u) {
      const auto s = detail::draw_neighbors<Rule::kSamples>(*graph_, u, rng);
      table_.set_color(u, Rule::next(prev_[u], detail::read_colors(s, view)));
    }
    ++rounds_;
  }

  bool done() const noexcept { return table_.has_consensus(); }
  const OpinionTable& table() const noexcept { return table_; }
  std::uint64_t rounds() const noexcept { return rounds_; }

 private:
  struct PreRound {
    const ColorId* colors;
    ColorId color(NodeId v) const noexcept { return colors[v]; }
  };

  const G* graph_;
  OpinionTable table_;
  std::vector<ColorId> prev_;
  std::uint64_t rounds_ = 0;
};

}  // namespace plurality
