#include "experiment/runner.hpp"

#include <atomic>
#include <utility>

#include "jobs/executor.hpp"

namespace plurality {

namespace {

/// per_rep[rep][slot] -> by_slot[slot][rep], validating row shape.
std::vector<std::vector<double>> transpose_rows(
    const std::vector<std::vector<double>>& per_rep, std::size_t slots) {
  std::vector<std::vector<double>> by_slot(
      slots, std::vector<double>(per_rep.size(), 0.0));
  for (std::size_t rep = 0; rep < per_rep.size(); ++rep) {
    PC_ASSERT(per_rep[rep].size() == slots);
    for (std::size_t s = 0; s < slots; ++s) {
      by_slot[s][rep] = per_rep[rep][s];
    }
  }
  return by_slot;
}

}  // namespace

std::vector<std::vector<double>> run_repetitions_multi(
    std::uint64_t reps, std::size_t slots, const SeedSequence& seeds,
    const std::function<std::vector<double>(std::uint64_t, Xoshiro256&)>&
        body) {
  std::vector<std::vector<double>> by_slot;
  SweepRunner sweep;
  sweep.add_point(reps, slots, seeds, body,
                  [&by_slot](const std::vector<std::vector<double>>& out) {
                    by_slot = out;
                  });
  sweep.run();
  return by_slot;
}

std::vector<double> run_repetitions(
    std::uint64_t reps, const SeedSequence& seeds,
    const std::function<double(std::uint64_t, Xoshiro256&)>& body) {
  auto multi = run_repetitions_multi(
      reps, 1, seeds, [&body](std::uint64_t rep, Xoshiro256& rng) {
        return std::vector<double>{body(rep, rng)};
      });
  return std::move(multi[0]);
}

void SweepRunner::add_point(std::uint64_t reps, std::size_t slots,
                            SeedSequence seeds, Body body, Finish finish) {
  PC_EXPECTS(!ran_);
  PC_EXPECTS(reps >= 1);
  PC_EXPECTS(slots >= 1);
  PC_EXPECTS(static_cast<bool>(body));
  PC_EXPECTS(static_cast<bool>(finish));
  Point point{reps,        slots,
              seeds,       std::move(body),
              std::move(finish), std::vector<std::vector<double>>(reps)};
  points_.push_back(std::move(point));
}

void SweepRunner::run() {
  PC_EXPECTS(!ran_);
  ran_ = true;

  // One fork over the whole sweep, leaves in declaration order. Once a
  // leaf throws, the leaves that have not started yet are skipped, and
  // parallel_for rethrows the first exception.
  std::vector<std::pair<Point*, std::uint64_t>> leaves;
  for (Point& point : points_) {
    for (std::uint64_t rep = 0; rep < point.reps; ++rep) {
      leaves.emplace_back(&point, rep);
    }
  }
  std::atomic<bool> failed{false};
  jobs::Executor::process().parallel_for(leaves.size(), [&](std::size_t i) {
    if (failed.load(std::memory_order_relaxed)) return;
    const auto [point, rep] = leaves[i];
    try {
      Xoshiro256 rng = point->seeds.make_rng(rep);
      point->per_rep[rep] = point->body(rep, rng);
    } catch (...) {
      failed.store(true, std::memory_order_relaxed);
      throw;
    }
  });

  for (Point& point : points_) {
    point.finish(transpose_rows(point.per_rep, point.slots));
  }
}

}  // namespace plurality
