#pragma once

/// \file torus.hpp
/// 2D torus (width x height grid with wrap-around, 4-neighborhood).
/// Mid-expansion topology for the extension experiment (A2).

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "support/assert.hpp"

namespace plurality {

class TorusGraph {
 public:
  /// Requires width >= 3 and height >= 3 so all four neighbors are
  /// distinct nodes.
  TorusGraph(std::uint32_t width, std::uint32_t height)
      : width_(width), height_(height) {
    PC_EXPECTS(width >= 3 && height >= 3);
  }

  std::uint64_t num_nodes() const noexcept {
    return std::uint64_t{width_} * height_;
  }

  std::uint64_t degree(NodeId) const noexcept { return 4; }

  std::uint32_t width() const noexcept { return width_; }
  std::uint32_t height() const noexcept { return height_; }

  /// Appends the four grid neighbors of u, east, west, south, north
  /// (make_csr_view materializes these rows; the placement layer
  /// enumerates them).
  void append_neighbors(NodeId u, std::vector<NodeId>& out) const {
    PC_EXPECTS(u < num_nodes());
    const std::uint32_t x = u % width_;
    const std::uint32_t y = u / width_;
    out.push_back(node_at(x + 1 == width_ ? 0 : x + 1, y));
    out.push_back(node_at(x == 0 ? width_ - 1 : x - 1, y));
    out.push_back(node_at(x, y + 1 == height_ ? 0 : y + 1));
    out.push_back(node_at(x, y == 0 ? height_ - 1 : y - 1));
  }

 private:
  NodeId node_at(std::uint32_t x, std::uint32_t y) const noexcept {
    return static_cast<NodeId>(y * width_ + x);
  }

  std::uint32_t width_;
  std::uint32_t height_;
};

}  // namespace plurality
