#pragma once

/// \file crash.hpp
/// Crash-stop fault injection. The paper assumes fault-free nodes; the
/// robustness probe (experiment B2) asks how the protocols degrade when
/// a fraction of nodes silently stops participating mid-run. A crashed
/// node keeps its current color (peers can still *read* it — its memory
/// is intact, its clock is dead), which is the adversarially
/// interesting case: stale minority colors stay visible forever.
///
/// CrashAdapter wraps any AsyncProtocol: each node has a crash deadline
/// measured in its own tick count; ticks after the deadline are
/// swallowed. Consensus *among live nodes* is tracked separately, since
/// global consensus may be unreachable once a crashed node pins a dead
/// color.

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "opinion/table.hpp"
#include "rng/xoshiro256.hpp"
#include "sim/concepts.hpp"
#include "support/assert.hpp"

namespace plurality {

/// Crash deadline meaning "this node never crashes".
inline constexpr std::uint64_t kNeverCrashes = ~std::uint64_t{0};

template <AsyncProtocol P>
class CrashAdapter {
 public:
  /// `crash_after_ticks[u]` = number of own ticks after which node u is
  /// dead (use kNeverCrashes for survivors). Requires one entry per
  /// node.
  CrashAdapter(P inner, std::vector<std::uint64_t> crash_after_ticks)
      : inner_(std::move(inner)),
        crash_after_(std::move(crash_after_ticks)),
        ticks_(inner_.num_nodes(), 0),
        crashed_support_(inner_.table().num_colors(), 0) {
    PC_EXPECTS(crash_after_.size() == inner_.num_nodes());
    // Deadline 0 means dead on arrival: count those up front so the
    // incremental counters start truthful.
    for (NodeId u = 0; u < crash_after_.size(); ++u) {
      if (crash_after_[u] == 0) mark_crashed(u);
    }
  }

  [[gnu::always_inline]] void on_tick(NodeId u, Xoshiro256& rng) {
    if (ticks_[u] >= crash_after_[u]) return;  // crashed: clock is dead
    ++ticks_[u];
    inner_.on_tick(u, rng);
    // Crash transition: the deadline tick just ran (the node dies
    // *after* it), so the color the tick left behind is the one frozen
    // forever — record it after inner_.on_tick, not before.
    if (ticks_[u] == crash_after_[u]) mark_crashed(u);
  }

  std::uint64_t num_nodes() const noexcept { return inner_.num_nodes(); }
  bool done() const noexcept { return inner_.done(); }
  const OpinionTable& table() const noexcept { return inner_.table(); }
  const P& inner() const noexcept { return inner_; }

  bool is_crashed(NodeId u) const {
    PC_EXPECTS(u < ticks_.size());
    return ticks_[u] >= crash_after_[u];
  }

  /// Number of currently crashed nodes (O(1): maintained on each crash
  /// transition; observers poll this every sample).
  std::uint64_t crashed_count() const noexcept { return crashed_count_; }

  /// Fraction of *live* nodes holding the live-plurality color; 1.0
  /// means the survivors agree even if crashed nodes pin others. O(k)
  /// in the number of colors, not O(n): a crashed node's color is
  /// frozen (its ticks are swallowed, nothing else writes through the
  /// adapter), so per-color crashed support only changes on crash
  /// transitions and live support is global minus crashed.
  double live_agreement() const {
    const std::uint64_t live = num_nodes() - crashed_count_;
    if (live == 0) return 1.0;  // vacuous: everyone crashed
    std::uint64_t best = 0;
    for (ColorId c = 0; c < crashed_support_.size(); ++c) {
      best = std::max(best, table().support(c) - crashed_support_[c]);
    }
    return static_cast<double>(best) / static_cast<double>(live);
  }

 private:
  void mark_crashed(NodeId u) {
    ++crashed_count_;
    ++crashed_support_[inner_.table().color(u)];
  }

  P inner_;
  std::vector<std::uint64_t> crash_after_;
  std::vector<std::uint64_t> ticks_;
  std::uint64_t crashed_count_ = 0;
  /// Support pinned by crashed nodes, per color (frozen at crash time).
  std::vector<std::uint64_t> crashed_support_;
};

/// Crash plan: a uniform random fraction of nodes dies after
/// `crash_after_ticks` own ticks; everyone else lives forever.
std::vector<std::uint64_t> crash_fraction_plan(std::uint64_t n,
                                               double fraction,
                                               std::uint64_t after_ticks,
                                               Xoshiro256& rng);

}  // namespace plurality
