// Tests for the packed SoA opinion backend: PackedColors parity with a
// plain ColorId vector under random operation sequences at every
// width, the u8/u16/u32 width-selection boundaries (num_colors = 255,
// 256, 257), the packed merge path, and — the contract the sharded
// engine's width dispatch rests on — bit-identical consensus
// trajectories when the same run is forced through u8, u16, and u32
// storage.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/three_majority.hpp"
#include "core/two_choices.hpp"
#include "core/voter.hpp"
#include "graph/complete.hpp"
#include "opinion/assignment.hpp"
#include "opinion/packed.hpp"
#include "opinion/table.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro256.hpp"
#include "sim/sharded_engine.hpp"
#include "support/assert.hpp"

namespace plurality {
namespace {

TEST(ColorWidth, SelectionBoundaries) {
  // u8 holds 256 distinct colors (values 0..255); 257 colors need u16;
  // the u16/u32 boundary sits at 65536 the same way.
  EXPECT_EQ(color_width_for(1), ColorWidth::kU8);
  EXPECT_EQ(color_width_for(255), ColorWidth::kU8);
  EXPECT_EQ(color_width_for(256), ColorWidth::kU8);
  EXPECT_EQ(color_width_for(257), ColorWidth::kU16);
  EXPECT_EQ(color_width_for(65536), ColorWidth::kU16);
  EXPECT_EQ(color_width_for(65537), ColorWidth::kU32);
  EXPECT_EQ(color_width_bytes(ColorWidth::kU8), 1u);
  EXPECT_EQ(color_width_bytes(ColorWidth::kU16), 2u);
  EXPECT_EQ(color_width_bytes(ColorWidth::kU32), 4u);
}

TEST(PackedColors, MatchesReferenceVectorUnderRandomOps) {
  // Drive a PackedColors at each width and a plain vector<ColorId>
  // through the same random get/set sequence; they must never diverge.
  for (const ColorWidth width :
       {ColorWidth::kU8, ColorWidth::kU16, ColorWidth::kU32}) {
    const std::uint64_t n = 257;
    const ColorId max_color = 255;  // representable at every width
    Xoshiro256 rng(20240809);
    std::vector<ColorId> reference(n);
    for (auto& c : reference) {
      c = static_cast<ColorId>(uniform_below(rng, max_color + 1));
    }
    PackedColors packed(reference, width);
    for (int op = 0; op < 4096; ++op) {
      const auto u = static_cast<NodeId>(uniform_below(rng, n));
      if (uniform_below(rng, 2) == 0) {
        const auto c = static_cast<ColorId>(uniform_below(rng, max_color + 1));
        reference[u] = c;
        packed.set(u, c);
      } else {
        ASSERT_EQ(packed.get(u), reference[u]) << "width mismatch at node "
                                               << u;
      }
    }
    std::vector<ColorId> unpacked(n);
    packed.unpack_into(unpacked);
    EXPECT_EQ(unpacked, reference);
  }
}

TEST(PackedColors, ClonePreservesContents) {
  const std::vector<ColorId> colors = {3, 1, 4, 1, 5, 9, 2, 6};
  const PackedColors a(colors, ColorWidth::kU16);
  const PackedColors b = a.clone();
  EXPECT_EQ(b.width(), ColorWidth::kU16);
  for (NodeId u = 0; u < colors.size(); ++u) EXPECT_EQ(b.get(u), colors[u]);
}

TEST(OpinionTablePacked, WidthFollowsNumColorsAndAggregatesMatch) {
  // The same physical coloring through all three resolved widths: the
  // table-level API (color, support, surviving, plurality) must be
  // width-invariant.
  Xoshiro256 rng(7);
  const std::uint64_t n = 300;
  std::vector<ColorId> colors(n);
  for (auto& c : colors) c = static_cast<ColorId>(uniform_below(rng, 200));

  const OpinionTable narrow(colors, 256);
  const OpinionTable mid(colors, 257);
  const OpinionTable wide(colors, 70000);
  EXPECT_EQ(narrow.width(), ColorWidth::kU8);
  EXPECT_EQ(mid.width(), ColorWidth::kU16);
  EXPECT_EQ(wide.width(), ColorWidth::kU32);

  for (NodeId u = 0; u < n; ++u) {
    ASSERT_EQ(narrow.color(u), colors[u]);
    ASSERT_EQ(mid.color(u), colors[u]);
    ASSERT_EQ(wide.color(u), colors[u]);
  }
  for (ColorId c = 0; c < 200; ++c) {
    ASSERT_EQ(mid.support(c), narrow.support(c));
    ASSERT_EQ(wide.support(c), narrow.support(c));
  }
  EXPECT_EQ(mid.surviving_colors(), narrow.surviving_colors());
  EXPECT_EQ(wide.surviving_colors(), narrow.surviving_colors());
  EXPECT_EQ(mid.plurality_color(), narrow.plurality_color());
  EXPECT_EQ(wide.plurality_color(), narrow.plurality_color());

  // The packed footprint is what shrinks: 1/2/4 bytes of color state
  // per node plus the (width-independent) support counters.
  EXPECT_LT(narrow.state_bytes_per_node(), mid.state_bytes_per_node());
  EXPECT_LT(mid.state_bytes_per_node(), wide.state_bytes_per_node());
}

TEST(OpinionTablePacked, SetColorParityWithReferenceModel) {
  // Random set_color sequence vs a reference (vector + support
  // histogram) at a forced-u16 width.
  Xoshiro256 rng(99);
  const std::uint64_t n = 128;
  const ColorId k = 300;  // forces u16
  std::vector<ColorId> reference(n);
  for (auto& c : reference) c = static_cast<ColorId>(uniform_below(rng, k));
  OpinionTable table(reference, k);
  std::vector<std::uint64_t> support(k, 0);
  for (const ColorId c : reference) ++support[c];

  for (int op = 0; op < 2048; ++op) {
    const auto u = static_cast<NodeId>(uniform_below(rng, n));
    const auto c = static_cast<ColorId>(uniform_below(rng, k));
    --support[reference[u]];
    ++support[c];
    reference[u] = c;
    table.set_color(u, c);
  }
  std::uint64_t surviving = 0;
  std::uint64_t max_support = 0;
  for (ColorId c = 0; c < k; ++c) {
    ASSERT_EQ(table.support(c), support[c]);
    if (support[c] > 0) ++surviving;
    max_support = std::max(max_support, support[c]);
  }
  for (NodeId u = 0; u < n; ++u) ASSERT_EQ(table.color(u), reference[u]);
  EXPECT_EQ(table.surviving_colors(), surviving);
  EXPECT_EQ(table.support(table.plurality_color()), max_support);
}

/// Runs one sharded two-choices consensus with the table forced to
/// `num_colors` declared colors (only 2 are populated); returns the
/// trajectory fingerprint. Inflating num_colors moves the resolved
/// width without touching a single RNG draw, so all three widths must
/// produce bit-identical results.
AsyncRunResult run_forced_width(ColorId declared_colors,
                                ColorWidth expect_width) {
  const std::uint64_t n = 256;
  const CompleteGraph g(n);
  Xoshiro256 rng(11);
  Assignment assignment = assign_two_colors(n, (n * 3) / 4, rng);
  assignment.num_colors = declared_colors;
  assignment.counts.resize(declared_colors, 0);
  TwoChoicesAsync proto(g, std::move(assignment));
  EXPECT_EQ(proto.table().width(), expect_width);
  return run_sharded(proto, /*seed=*/42, /*num_shards=*/3, 1e6);
}

TEST(OpinionTablePacked, ShardedConsensusBitIdenticalAcrossWidths) {
  const AsyncRunResult u8 = run_forced_width(2, ColorWidth::kU8);
  const AsyncRunResult u16 = run_forced_width(300, ColorWidth::kU16);
  const AsyncRunResult u32 = run_forced_width(70000, ColorWidth::kU32);
  EXPECT_TRUE(u8.consensus);
  EXPECT_EQ(u8.ticks, u16.ticks);
  EXPECT_EQ(u8.ticks, u32.ticks);
  EXPECT_DOUBLE_EQ(u8.time, u16.time);
  EXPECT_DOUBLE_EQ(u8.time, u32.time);
  EXPECT_EQ(u8.winner, u16.winner);
  EXPECT_EQ(u8.winner, u32.winner);
  EXPECT_EQ(u8.consensus, u16.consensus);
  EXPECT_EQ(u8.consensus, u32.consensus);
}

TEST(OpinionTablePacked, QueuedConsensusBitIdenticalAcrossWidths) {
  // The delivery-queue driver width-dispatches independently; pin it
  // to the same bit-stability contract.
  const auto run_once = [](ColorId declared_colors) {
    const std::uint64_t n = 128;
    const CompleteGraph g(n);
    Xoshiro256 rng(13);
    Assignment assignment = assign_two_colors(n, (n * 3) / 4, rng);
    assignment.num_colors = declared_colors;
    assignment.counts.resize(declared_colors, 0);
    ThreeMajorityAsync proto(g, std::move(assignment));
    const ZeroLatency latency;
    return run_sharded_queued(proto, latency, QueryDiscipline::kBlocking,
                              /*seed=*/21, /*num_shards=*/2, /*max_time=*/1e6);
  };
  const AsyncRunResult u8 = run_once(2);
  const AsyncRunResult u16 = run_once(300);
  EXPECT_EQ(u8.ticks, u16.ticks);
  EXPECT_DOUBLE_EQ(u8.time, u16.time);
  EXPECT_EQ(u8.winner, u16.winner);
  EXPECT_EQ(u8.consensus, u16.consensus);
}

TEST(OpinionTablePacked, RejectsWidthNarrowerThanNumColors) {
  const std::vector<ColorId> colors = {0, 1, 2};
  EXPECT_THROW(OpinionTable(colors, 300, ColorWidth::kU8), ContractViolation);
}

}  // namespace
}  // namespace plurality
