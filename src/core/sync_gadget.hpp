#pragma once

/// \file sync_gadget.hpp
/// Per-node sample storage for the Sync Gadget (paper §3.1, "Weak
/// Perpetual Synchronization").
///
/// During the gadget's sampling sub-phase a node u records, for each
/// sampled neighbor v, the *offset* d = T_v - T_u between v's real time
/// (tick count) and its own. The paper phrases this as storing T_v and
/// incrementing every stored sample by one per subsequent own tick;
/// since u's own real time also advances by one per tick, the two
/// formulations agree:  stored-and-incremented value at the jump step
/// = T_v(collect) + (T_u(jump) - T_u(collect)) = T_u(jump) + d.
/// Storing offsets keeps the buffers small (int32 per sample) and makes
/// the jump target simply  T_u(jump) + median(offsets).
///
/// Buffers are flat (n * capacity) for cache friendliness.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "support/assert.hpp"
#include "support/math.hpp"

namespace plurality {

class SyncGadgetStore {
 public:
  /// `capacity` = samples per node per phase (the schedule's S).
  SyncGadgetStore(std::uint64_t num_nodes, std::uint32_t capacity)
      : capacity_(capacity) {
    PC_EXPECTS(num_nodes >= 1);
    PC_EXPECTS(capacity >= 1);
    offsets_.assign(num_nodes * capacity, 0);
    counts_.assign(num_nodes, 0);
  }

  /// Records one offset sample for node u; ignores overflow beyond
  /// capacity (possible only when a node replays a phase after a
  /// backward jump).
  void record(NodeId u, std::int64_t offset) {
    PC_EXPECTS(u < counts_.size());
    if (counts_[u] >= capacity_) return;
    const std::int64_t clamped =
        std::min<std::int64_t>(std::max<std::int64_t>(offset, INT32_MIN),
                               INT32_MAX);
    offsets_[static_cast<std::size_t>(u) * capacity_ + counts_[u]] =
        static_cast<std::int32_t>(clamped);
    ++counts_[u];
  }

  std::uint32_t count(NodeId u) const {
    PC_EXPECTS(u < counts_.size());
    return counts_[u];
  }

  /// Lower median of u's collected offsets. Requires count(u) > 0.
  /// Reorders the buffer (the buffer is cleared right after anyway).
  std::int64_t median_offset(NodeId u) {
    PC_EXPECTS(u < counts_.size());
    PC_EXPECTS(counts_[u] > 0);
    const std::span<std::int32_t> window(
        offsets_.data() + static_cast<std::size_t>(u) * capacity_,
        counts_[u]);
    return median_inplace(window);
  }

  void clear(NodeId u) {
    PC_EXPECTS(u < counts_.size());
    counts_[u] = 0;
  }

  std::uint32_t capacity() const noexcept { return capacity_; }

  /// Bytes held by the sample slots and the per-node counts.
  std::uint64_t storage_bytes() const noexcept {
    return offsets_.size() * sizeof(std::int32_t) +
           counts_.size() * sizeof(std::uint32_t);
  }

 private:
  std::uint32_t capacity_;
  std::vector<std::int32_t> offsets_;
  std::vector<std::uint32_t> counts_;
};

}  // namespace plurality
