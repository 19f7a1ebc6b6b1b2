#pragma once

/// \file bench_common.hpp
/// Shared scaffolding for the registered experiments in bench/. Every
/// experiment body receives an ExperimentContext (shared --seed=,
/// --reps=, --jobs=, --csv handling plus its own sweep overrides),
/// prints the paper claim it regenerates, renders its tables via
/// experiment/table.hpp, and records its headline series through
/// ctx.record() so each run also emits a structured JSON record.
///
/// The run dispatch itself lives in run_plan.hpp: experiments resolve
/// a RunPlan once (bench::make_plan) and hand every protocol instance
/// to bench::run / bench::run_queued, the single engine × latency
/// entry point.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "experiment/args.hpp"
#include "experiment/registry.hpp"
#include "experiment/runner.hpp"
#include "experiment/table.hpp"
#include "graph/complete.hpp"
#include "graph/csr.hpp"
#include "graph/factory.hpp"
#include "opinion/placement.hpp"
#include "rng/seed.hpp"
#include "run_plan.hpp"
#include "stats/quantiles.hpp"
#include "stats/regression.hpp"

namespace plurality::bench {

/// Once per process: --placement=community was requested on a topology
/// without a community partition.
inline void warn_community_placement_fallback_once() {
  static std::atomic_flag warned = ATOMIC_FLAG_INIT;
  if (!warned.test_and_set()) {
    std::cerr << "warning: --placement=community needs a topology with "
                 "communities (--graph=sbm); placing uniformly instead\n";
  }
}

/// Places an exact count profile onto the nodes of `view` according to
/// an explicit placement spec (the sweep form used by W1). The
/// placement that actually ran is attributed into the record via
/// placement_effective: a community-aligned request on a view without
/// a partition falls back to uniform with a once-per-process warning
/// rather than mislabeling the samples.
inline Assignment place_with(const ExperimentContext& ctx,
                             const PlacementSpec& placement,
                             const CsrTopology& view,
                             std::vector<std::uint64_t> counts,
                             Xoshiro256& rng) {
  switch (placement.kind) {
    case PlacementKind::kUniform:
      break;
    case PlacementKind::kCommunityAligned:
      if (!view.block_starts().empty()) {
        ctx.note_effective(
            "placement",
            placement_kind_name(PlacementKind::kCommunityAligned));
        return place_community_aligned(std::move(counts), view,
                                       placement.fraction, rng);
      }
      warn_community_placement_fallback_once();
      break;
    case PlacementKind::kAdversarialBoundary:
      ctx.note_effective(
          "placement",
          placement_kind_name(PlacementKind::kAdversarialBoundary));
      return place_adversarial_boundary(std::move(counts), view, rng);
    case PlacementKind::kClusteredBfs:
      ctx.note_effective("placement",
                         placement_kind_name(PlacementKind::kClusteredBfs));
      return place_clustered_bfs(std::move(counts), view, rng);
  }
  ctx.note_effective("placement",
                     placement_kind_name(PlacementKind::kUniform));
  return place_uniform(std::move(counts), rng);
}

/// Places an exact count profile onto the nodes of `view` according to
/// --placement= (default uniform, the historical behavior — identical
/// RNG draws).
inline Assignment place_on(const ExperimentContext& ctx,
                           const CsrTopology& view,
                           std::vector<std::uint64_t> counts,
                           Xoshiro256& rng) {
  return place_with(ctx, ctx.placement, view, std::move(counts), rng);
}

/// The clique's form: places on its implicit view.
inline Assignment place_on(const ExperimentContext& ctx,
                           const CompleteGraph& g,
                           std::vector<std::uint64_t> counts,
                           Xoshiro256& rng) {
  return place_on(ctx, CsrTopology::implicit_complete(g.num_nodes()),
                  std::move(counts), rng);
}

/// Prints the experiment banner: id, paper claim, reproduce command.
inline void banner(const ExperimentContext& ctx, const std::string& id,
                   const std::string& claim) {
  if (ctx.csv) return;
  std::cout << "--------------------------------------------------------\n"
            << "Experiment " << id << "\n"
            << "Paper claim: " << claim << "\n"
            << "seed=" << ctx.master_seed << " reps=" << ctx.reps << "\n"
            << "--------------------------------------------------------\n";
}

/// Fits `ys` against `xs` with `fit` (fit_linear, fit_log_x or
/// fit_power_law) and prints the growth law under a table. A sweep of
/// fewer than two points (a small --max_n=) has no fit: nothing is
/// printed and the result is empty.
inline std::optional<LinearFit> report_fit(
    const ExperimentContext& ctx, const std::string& label,
    LinearFit (*fit)(std::span<const double>, std::span<const double>),
    std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() < 2) return std::nullopt;
  const LinearFit result = fit(xs, ys);
  if (!ctx.csv) {
    std::printf("%s: slope=%.3f intercept=%.3f R^2=%.4f\n", label.c_str(),
                result.slope, result.intercept, result.r_squared);
  }
  return result;
}

}  // namespace plurality::bench
