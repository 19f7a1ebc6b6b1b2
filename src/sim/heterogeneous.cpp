#include "sim/heterogeneous.hpp"

#include <cmath>
#include <vector>

namespace plurality {

namespace detail {

AliasTable::AliasTable(std::span<const double> rates)
    : cells_(rates.size()) {
  PC_EXPECTS(!rates.empty());
  for (const double r : rates) {
    PC_EXPECTS(r > 0.0);
    total_rate_ += r;
  }
  PC_EXPECTS(std::isfinite(total_rate_));
  // Scale the rates to mean 1. A column below 1 (small) keeps its share
  // and gives the rest of its slot to a column at or above 1 (large) as
  // its alias; that column's share drops by what it gave, and it turns
  // small once below 1.
  const double scale = static_cast<double>(rates.size()) / total_rate_;
  std::vector<double> share(rates.size());
  std::vector<NodeId> small;
  std::vector<NodeId> large;
  for (std::size_t u = 0; u < rates.size(); ++u) {
    share[u] = rates[u] * scale;
    (share[u] < 1.0 ? small : large).push_back(static_cast<NodeId>(u));
  }
  while (!small.empty() && !large.empty()) {
    const NodeId s = small.back();
    small.pop_back();
    const NodeId l = large.back();
    cells_[s] = {share[s], l};
    share[l] = (share[l] + share[s]) - 1.0;
    if (share[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // What is left holds share 1 up to rounding: it keeps its column.
  for (const NodeId u : large) cells_[u] = {1.0, u};
  for (const NodeId u : small) cells_[u] = {1.0, u};
}

}  // namespace detail

namespace clock_rates {

std::vector<double> uniform(std::uint64_t n) {
  PC_EXPECTS(n >= 1);
  return std::vector<double>(n, 1.0);
}

std::vector<double> two_speed(std::uint64_t n, double slow_fraction,
                              double slow_rate, Xoshiro256& rng) {
  PC_EXPECTS(n >= 1);
  PC_EXPECTS(slow_fraction >= 0.0 && slow_fraction < 1.0);
  PC_EXPECTS(slow_rate > 0.0 && slow_rate < 1.0);
  const double fast_rate =
      (1.0 - slow_fraction * slow_rate) / (1.0 - slow_fraction);
  std::vector<double> rates(n, fast_rate);
  const auto num_slow = static_cast<std::uint64_t>(
      slow_fraction * static_cast<double>(n));
  // Slow nodes are a uniform random subset (partial Fisher-Yates over
  // node indices).
  std::vector<std::uint64_t> order(n);
  for (std::uint64_t i = 0; i < n; ++i) order[i] = i;
  for (std::uint64_t i = 0; i < num_slow; ++i) {
    const std::uint64_t j = i + uniform_below(rng, n - i);
    std::swap(order[i], order[j]);
    rates[order[i]] = slow_rate;
  }
  return rates;
}

std::vector<double> log_normal(std::uint64_t n, double sigma,
                               Xoshiro256& rng) {
  PC_EXPECTS(n >= 1);
  PC_EXPECTS(sigma >= 0.0);
  // E[exp(sigma Z)] = exp(sigma^2/2); divide it out for mean 1.
  const double normalizer = std::exp(sigma * sigma / 2.0);
  std::vector<double> rates(n);
  for (auto& r : rates) {
    r = std::exp(sigma * standard_normal(rng)) / normalizer;
  }
  return rates;
}

}  // namespace clock_rates

}  // namespace plurality
