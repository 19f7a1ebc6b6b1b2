#pragma once

/// \file table.hpp
/// OpinionTable: the color of every node plus O(1)-maintained aggregate
/// bookkeeping (per-color support, number of surviving colors, running
/// maximum support). Engines poll has_consensus() every step, so those
/// aggregates must never require a scan.
///
/// Storage is the packed SoA backend (opinion/packed.hpp): the per-node
/// color array is u8/u16/u32, the narrowest width that holds
/// num_colors - 1, selected at construction (or forced, for the width
/// equivalence tests). The color()/set_color() API is unchanged — width
/// never touches the RNG stream, so trajectories are bit-identical
/// across widths for a fixed seed.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "opinion/packed.hpp"
#include "support/assert.hpp"

namespace plurality {

class OpinionTable {
 public:
  /// Takes ownership of the initial assignment. `num_colors` is the size
  /// of the color universe; every entry of `colors` must be < num_colors.
  /// The packed width is the narrowest that holds num_colors - 1.
  OpinionTable(std::vector<ColorId> colors, ColorId num_colors)
      : OpinionTable(std::move(colors), num_colors,
                     color_width_for(num_colors)) {}

  /// Forced-width form (width equivalence tests and the packed unit
  /// tests); `width` must hold num_colors - 1.
  OpinionTable(std::vector<ColorId> colors, ColorId num_colors,
               ColorWidth width);

  std::uint64_t num_nodes() const noexcept { return packed_.size(); }
  ColorId num_colors() const noexcept { return num_colors_; }
  ColorWidth width() const noexcept { return packed_.width(); }

  ColorId color(NodeId u) const {
    PC_EXPECTS(u < packed_.size());
    return packed_.get(u);
  }

  /// Recolors node u, updating supports, survivor count and max support
  /// in O(1).
  void set_color(NodeId u, ColorId c) {
    PC_EXPECTS(u < packed_.size());
    PC_EXPECTS(c < num_colors_);
    const ColorId old = packed_.get(u);
    if (old == c) return;
    packed_.set(u, c);
    if (--support_[old] == 0) --surviving_;
    if (support_[c]++ == 0) ++surviving_;
    if (support_[c] > max_support_) max_support_ = support_[c];
    // max_support_ may now overestimate if `old` held the maximum; it is
    // only used as a monotone lower-bound accelerator for plurality
    // scans, never for correctness decisions (see plurality_color()).
  }

  /// Folds one shard's epoch into the aggregates. The sharded engine's
  /// shards write their own nodes' colors straight into the packed slab
  /// (mutable_packed_colors()) during an epoch; `delta` is the shard's
  /// per-color net support change over it. Updates supports, survivor
  /// count and max support in O(num_colors). Requires the deltas to sum
  /// to zero and to keep every support non-negative.
  void apply_support_deltas(std::span<const std::int64_t> delta);

  std::uint64_t support(ColorId c) const {
    PC_EXPECTS(c < num_colors_);
    return support_[c];
  }

  /// Number of colors with at least one supporter.
  ColorId surviving_colors() const noexcept { return surviving_; }

  /// True iff every node holds the same color.
  bool has_consensus() const noexcept { return surviving_ == 1; }

  /// The consensus color. Requires has_consensus().
  ColorId consensus_color() const;

  /// A color of maximum support (lowest index wins ties); O(k) scan.
  ColorId plurality_color() const;

  /// Supports of all colors (index = color).
  std::span<const std::uint64_t> supports() const noexcept {
    return support_;
  }

  /// The packed per-node color array (index = node) — the sharded
  /// engine's snapshot source.
  const PackedColors& packed_colors() const noexcept { return packed_; }

  /// The same slab, writable: the sharded engine's live buffer. Writes
  /// through it bypass the aggregates, which stay stale until the
  /// engine's apply_support_deltas() calls at the epoch boundary; nothing
  /// may read supports or call set_color() in between.
  PackedColors& mutable_packed_colors() noexcept { return packed_; }

  /// Widens every node's color into `out` (resized to n): the
  /// previous-round buffer of the synchronous protocols and the test
  /// helpers' view. O(n) — never call per tick.
  void copy_colors_into(std::vector<ColorId>& out) const {
    packed_.unpack_into(out);
  }

  /// Bytes of hot state per node held by the table itself (packed color
  /// array + support counters); the engines add their own buffers on
  /// top (the sharded engine's snapshot; see bench::run's bytes_per_node
  /// attribution).
  double state_bytes_per_node() const noexcept {
    const double n = static_cast<double>(packed_.size());
    return (static_cast<double>(packed_.storage_bytes()) +
            static_cast<double>(support_.size() * sizeof(std::uint64_t))) /
           n;
  }

 private:
  PackedColors packed_;
  std::vector<std::uint64_t> support_;
  ColorId num_colors_;
  ColorId surviving_ = 0;
  std::uint64_t max_support_ = 0;
};

}  // namespace plurality
