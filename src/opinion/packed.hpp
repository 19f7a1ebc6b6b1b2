#pragma once

/// \file packed.hpp
/// Packed SoA storage for the opinion hot path. A plurality run at k
/// colors needs ceil(log2 k) bits of state per node (Becchetti et al.'s
/// gossip-model bound), so storing a 4-byte ColorId per node wastes 4x
/// (k <= 256) of the memory bandwidth the big-n engines are bound by.
/// PackedColors selects the narrowest of u8/u16/u32 that holds
/// num_colors - 1 at construction time and keeps the whole array in one
/// 64-byte-aligned slab; OpinionTable and the sharded engine's
/// live/snapshot buffers are built on it.
///
/// Width selection never touches the RNG stream, so a run's trajectory
/// is bit-identical across forced widths for a fixed (seed, shards) —
/// the equivalence tests/test_packed_table.cpp pins.
///
/// ShardDeltaSlab is the companion for the epoch merges: one per-shard
/// support-delta row per shard, each row starting on its own cache line
/// so concurrent shard workers never false-share counter updates.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <vector>

#ifdef __linux__
#include <sys/mman.h>
#endif

#include "graph/graph.hpp"
#include "support/assert.hpp"

namespace plurality {

/// Storage width of one packed color entry, in bytes.
enum class ColorWidth : std::uint8_t { kU8 = 1, kU16 = 2, kU32 = 4 };

constexpr std::size_t color_width_bytes(ColorWidth width) noexcept {
  return static_cast<std::size_t>(width);
}

/// The narrowest width that holds every color of a universe of
/// `num_colors` (stored values are < num_colors): 255 colors still fit
/// u8, 256 colors store values up to 255 and also fit u8; 257 colors
/// need u16. Requires num_colors >= 1.
constexpr ColorWidth color_width_for(ColorId num_colors) noexcept {
  if (num_colors <= (1u << 8)) return ColorWidth::kU8;
  if (num_colors <= (1u << 16)) return ColorWidth::kU16;
  return ColorWidth::kU32;
}

namespace detail {

/// 64-byte-aligned slab allocation: one cache line of alignment so the
/// hot arrays never straddle a line at their base.
inline constexpr std::align_val_t kSlabAlign{64};

struct SlabDeleter {
  void operator()(std::byte* p) const noexcept {
    ::operator delete[](p, kSlabAlign);
  }
};

using Slab = std::unique_ptr<std::byte[], SlabDeleter>;

/// Allocates `bytes` of 64-byte-aligned, *uninitialized* storage. Slabs
/// big enough to span several huge pages request transparent-huge-page
/// backing (Linux madvise; kernels in `madvise` THP mode never promote
/// heap pages unasked): at 10^8+ nodes the tick loop is one random
/// access per tick over the slab, and 4 KiB pages overrun the dTLB
/// long before the LLC is exhausted. Best-effort — placement and
/// determinism are unaffected when the madvise is refused.
inline Slab allocate_slab(std::size_t bytes) {
  if (bytes == 0) return Slab{};
  auto* p = static_cast<std::byte*>(::operator new[](bytes, kSlabAlign));
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  constexpr std::size_t kHugePage = 2u << 20;
  if (bytes >= 4 * kHugePage) {
    const auto addr = reinterpret_cast<std::uintptr_t>(p);
    const std::uintptr_t lo = (addr + kHugePage - 1) & ~(kHugePage - 1);
    const std::uintptr_t hi = (addr + bytes) & ~(kHugePage - 1);
    if (hi > lo) {
      (void)madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
    }
  }
#endif
  return Slab(p);
}

}  // namespace detail

/// A packed array of node colors: n entries of u8/u16/u32 (fixed at
/// construction) in one 64-byte-aligned slab. Move-only like the CSR
/// view; copies are explicit via clone() so a gigabyte buffer can never
/// be duplicated by accident.
class PackedColors {
 public:
  PackedColors() = default;

  /// Packs `colors` at the given width. Every entry must fit the width.
  PackedColors(std::span<const ColorId> colors, ColorWidth width)
      : PackedColors(uninitialized(colors.size(), width)) {
    fill_from(colors);
  }

  /// An *uninitialized* packed array: the caller owns the first write
  /// to every entry.
  static PackedColors uninitialized(std::uint64_t n, ColorWidth width) {
    PackedColors out;
    out.n_ = n;
    out.width_ = width;
    out.data_ = detail::allocate_slab(n * color_width_bytes(width));
    return out;
  }

  PackedColors(PackedColors&&) noexcept = default;
  PackedColors& operator=(PackedColors&&) noexcept = default;
  PackedColors(const PackedColors&) = delete;
  PackedColors& operator=(const PackedColors&) = delete;

  /// An explicit deep copy (same width, same contents).
  PackedColors clone() const {
    PackedColors out = uninitialized(n_, width_);
    std::memcpy(out.data_.get(), data_.get(), storage_bytes());
    return out;
  }

  std::uint64_t size() const noexcept { return n_; }
  ColorWidth width() const noexcept { return width_; }
  std::size_t storage_bytes() const noexcept {
    return n_ * color_width_bytes(width_);
  }

  ColorId get(NodeId u) const noexcept {
    switch (width_) {
      case ColorWidth::kU8: return data<std::uint8_t>()[u];
      case ColorWidth::kU16: return data<std::uint16_t>()[u];
      case ColorWidth::kU32: return data<std::uint32_t>()[u];
    }
    return 0;  // unreachable
  }

  void set(NodeId u, ColorId c) noexcept {
    switch (width_) {
      case ColorWidth::kU8:
        data<std::uint8_t>()[u] = static_cast<std::uint8_t>(c);
        return;
      case ColorWidth::kU16:
        data<std::uint16_t>()[u] = static_cast<std::uint16_t>(c);
        return;
      case ColorWidth::kU32:
        data<std::uint32_t>()[u] = c;
        return;
    }
  }

  /// The typed element array. T must match the runtime width — the
  /// sharded engine dispatches once per run and keeps typed pointers
  /// through the epoch loop.
  template <typename T>
  T* data() noexcept {
    PC_EXPECTS(sizeof(T) == color_width_bytes(width_));
    return reinterpret_cast<T*>(data_.get());
  }

  template <typename T>
  const T* data() const noexcept {
    PC_EXPECTS(sizeof(T) == color_width_bytes(width_));
    return reinterpret_cast<const T*>(data_.get());
  }

  /// Packs `colors` (entry count must match) into this array.
  void fill_from(std::span<const ColorId> colors) {
    PC_EXPECTS(colors.size() == n_);
    switch (width_) {
      case ColorWidth::kU8: {
        auto* out = data<std::uint8_t>();
        for (std::uint64_t u = 0; u < n_; ++u) {
          out[u] = static_cast<std::uint8_t>(colors[u]);
        }
        return;
      }
      case ColorWidth::kU16: {
        auto* out = data<std::uint16_t>();
        for (std::uint64_t u = 0; u < n_; ++u) {
          out[u] = static_cast<std::uint16_t>(colors[u]);
        }
        return;
      }
      case ColorWidth::kU32: {
        auto* out = data<std::uint32_t>();
        for (std::uint64_t u = 0; u < n_; ++u) out[u] = colors[u];
        return;
      }
    }
  }

  /// Widens the whole array back to ColorId entries (tests, sync
  /// protocols' previous-round buffers).
  void unpack_into(std::vector<ColorId>& out) const {
    out.resize(n_);
    switch (width_) {
      case ColorWidth::kU8: {
        const auto* in = data<std::uint8_t>();
        for (std::uint64_t u = 0; u < n_; ++u) out[u] = in[u];
        return;
      }
      case ColorWidth::kU16: {
        const auto* in = data<std::uint16_t>();
        for (std::uint64_t u = 0; u < n_; ++u) out[u] = in[u];
        return;
      }
      case ColorWidth::kU32: {
        const auto* in = data<std::uint32_t>();
        for (std::uint64_t u = 0; u < n_; ++u) out[u] = in[u];
        return;
      }
    }
  }

 private:
  detail::Slab data_;
  std::uint64_t n_ = 0;
  ColorWidth width_ = ColorWidth::kU32;
};

/// Per-shard support-delta counters for the epoch merge path: one row
/// of num_colors int64 counters per shard, each row padded up to a
/// 64-byte boundary in one aligned slab, so concurrent workers
/// incrementing adjacent shards' counters never share a cache line.
class ShardDeltaSlab {
 public:
  /// Every row starts zeroed.
  ShardDeltaSlab(std::uint64_t shards, ColorId num_colors)
      : shards_(shards),
        num_colors_(num_colors),
        stride_((static_cast<std::uint64_t>(num_colors) + kPerLine - 1) /
                kPerLine * kPerLine) {
    PC_EXPECTS(shards >= 1);
    PC_EXPECTS(num_colors >= 1);
    slab_ = detail::allocate_slab(shards_ * stride_ * sizeof(std::int64_t));
    for (std::uint64_t s = 0; s < shards_; ++s) clear(s);
  }

  /// Shard s's counter row (num_colors entries, cache-line aligned).
  std::span<std::int64_t> shard(std::uint64_t s) noexcept {
    PC_EXPECTS(s < shards_);
    return {reinterpret_cast<std::int64_t*>(slab_.get()) + s * stride_,
            num_colors_};
  }

  std::span<const std::int64_t> shard(std::uint64_t s) const noexcept {
    PC_EXPECTS(s < shards_);
    return {reinterpret_cast<const std::int64_t*>(slab_.get()) + s * stride_,
            num_colors_};
  }

  /// Zeroes shard s's row (after each epoch merge).
  void clear(std::uint64_t s) noexcept {
    auto row = shard(s);
    std::memset(row.data(), 0, row.size() * sizeof(std::int64_t));
  }

  std::uint64_t shards() const noexcept { return shards_; }
  ColorId num_colors() const noexcept { return num_colors_; }

 private:
  static constexpr std::uint64_t kPerLine = 64 / sizeof(std::int64_t);

  std::uint64_t shards_;
  ColorId num_colors_;
  std::uint64_t stride_;  // row pitch in int64 entries (cache-line padded)
  detail::Slab slab_;
};

}  // namespace plurality
