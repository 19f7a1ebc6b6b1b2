#include "opinion/table.hpp"

namespace plurality {

OpinionTable::OpinionTable(std::vector<ColorId> colors, ColorId num_colors,
                           ColorWidth width)
    : num_colors_(num_colors) {
  PC_EXPECTS(num_colors_ >= 1);
  PC_EXPECTS(!colors.empty());
  PC_EXPECTS(color_width_bytes(width) >=
             color_width_bytes(color_width_for(num_colors_)));
  support_.assign(num_colors_, 0);
  for (const ColorId c : colors) {
    PC_EXPECTS(c < num_colors_);
    ++support_[c];
  }
  packed_ = PackedColors(colors, width);
  for (const std::uint64_t s : support_) {
    if (s > 0) ++surviving_;
    if (s > max_support_) max_support_ = s;
  }
  PC_ENSURES(surviving_ >= 1);
}

void OpinionTable::apply_support_deltas(std::span<const std::int64_t> delta) {
  PC_EXPECTS(delta.size() == support_.size());
  std::int64_t total = 0;
  for (ColorId c = 0; c < num_colors_; ++c) {
    const std::int64_t d = delta[c];
    if (d == 0) continue;
    total += d;
    const std::uint64_t old = support_[c];
    PC_EXPECTS(d >= 0 || old >= static_cast<std::uint64_t>(-d));
    const std::uint64_t updated = old + static_cast<std::uint64_t>(d);
    support_[c] = updated;
    if (old == 0 && updated > 0) ++surviving_;
    if (old > 0 && updated == 0) --surviving_;
    if (updated > max_support_) max_support_ = updated;
  }
  PC_ENSURES(total == 0);
  PC_ENSURES(surviving_ >= 1);
}

ColorId OpinionTable::consensus_color() const {
  PC_EXPECTS(has_consensus());
  return packed_.get(0);
}

ColorId OpinionTable::plurality_color() const {
  ColorId best = 0;
  std::uint64_t best_support = support_[0];
  for (ColorId c = 1; c < num_colors_; ++c) {
    if (support_[c] > best_support) {
      best = c;
      best_support = support_[c];
    }
  }
  return best;
}

}  // namespace plurality
