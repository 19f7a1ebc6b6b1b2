#include "experiment/runner.hpp"

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
        body,
    unsigned threads) {
  PC_EXPECTS(reps >= 1);
  PC_EXPECTS(slots >= 1);

  // results[rep][slot]; each repetition writes its own row, so no locks.
  std::vector<std::vector<double>> per_rep(reps);

  if (threads == 1) {
    // Pure serial on the caller: the baseline the determinism tests
    // compare every parallel schedule against.
    for (std::uint64_t rep = 0; rep < reps; ++rep) {
      Xoshiro256 rng = seeds.make_rng(rep);
      per_rep[rep] = body(rep, rng);
    }
    return transpose_rows(per_rep, slots);
  }

  jobs::JobGraph graph;
  std::vector<jobs::JobGraph::JobId> leaves;
  leaves.reserve(reps);
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    leaves.push_back(graph.add([&seeds, &body, &per_rep, rep] {
      Xoshiro256 rng = seeds.make_rng(rep);
      per_rep[rep] = body(rep, rng);
    }));
    // A chain to leaf rep - threads caps in-flight repetitions at
    // `threads` without a shared counter (threads == 0: no cap; the
    // executor's --jobs= worker count is then the only limit).
    if (threads != 0 && rep >= threads) {
      graph.depend(leaves[rep], leaves[rep - threads]);
    }
  }
  jobs::Executor::process().run(graph);
  return transpose_rows(per_rep, slots);
}

std::vector<double> run_repetitions(
    std::uint64_t reps, const SeedSequence& seeds,
    const std::function<double(std::uint64_t, Xoshiro256&)>& body,
    unsigned threads) {
  auto multi = run_repetitions_multi(
      reps, 1, seeds,
      [&body](std::uint64_t rep, Xoshiro256& rng) {
        return std::vector<double>{body(rep, rng)};
      },
      threads);
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

  if (threads_ == 1) {
    // Serial inline: execute and finish each point in declaration
    // order — the reference schedule.
    for (Point& point : points_) {
      for (std::uint64_t rep = 0; rep < point.reps; ++rep) {
        Xoshiro256 rng = point.seeds.make_rng(rep);
        point.per_rep[rep] = point.body(rep, rng);
      }
      point.finish(transpose_rows(point.per_rep, point.slots));
    }
    return;
  }

  // One graph over the whole sweep: leaves in declaration order, the
  // in-flight cap as chain dependencies across point boundaries.
  jobs::JobGraph graph;
  std::vector<jobs::JobGraph::JobId> leaves;
  for (Point& point : points_) {
    for (std::uint64_t rep = 0; rep < point.reps; ++rep) {
      leaves.push_back(graph.add([&point, rep] {
        Xoshiro256 rng = point.seeds.make_rng(rep);
        point.per_rep[rep] = point.body(rep, rng);
      }));
      const std::size_t j = leaves.size() - 1;
      if (threads_ != 0 && j >= threads_) {
        graph.depend(leaves[j], leaves[j - threads_]);
      }
    }
  }
  jobs::Executor::process().run(graph);

  for (Point& point : points_) {
    point.finish(transpose_rows(point.per_rep, point.slots));
  }
}

}  // namespace plurality
