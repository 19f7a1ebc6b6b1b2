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
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "experiment/args.hpp"
#include "experiment/registry.hpp"
#include "experiment/runner.hpp"
#include "experiment/table.hpp"
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

/// Builds the topology for one sweep point from the resolved spec (see
/// build_topology in run_plan.hpp).
inline AnyGraph make_topology(const ExperimentContext& ctx, std::uint64_t n,
                              Xoshiro256& build_rng,
                              GraphKind experiment_default =
                                  GraphKind::kComplete) {
  return build_topology(ctx, resolved_graph_spec(ctx, experiment_default), n,
                        build_rng);
}

/// Builds the topology and runs `fn(g)` on the concrete graph type —
/// the one-std::visit-per-sweep-point pattern every factory-driven
/// experiment shares.
template <typename Fn>
auto with_topology(const ExperimentContext& ctx, std::uint64_t n,
                   Xoshiro256& build_rng, Fn&& fn,
                   GraphKind experiment_default = GraphKind::kComplete) {
  return std::visit(std::forward<Fn>(fn),
                    make_topology(ctx, n, build_rng, experiment_default));
}

/// Places an exact count profile onto the nodes of `g` according to an
/// explicit placement spec (the sweep form used by W1). The placement
/// that actually ran is attributed into the record via
/// placement_effective: a community-aligned request on a topology
/// without communities falls back to uniform with a once-per-process
/// warning rather than mislabeling the samples.
template <typename G>
Assignment place_with(const ExperimentContext& ctx,
                      const PlacementSpec& placement, const G& g,
                      std::vector<std::uint64_t> counts, Xoshiro256& rng) {
  switch (placement.kind) {
    case PlacementKind::kUniform:
      break;
    case PlacementKind::kCommunityAligned:
      if constexpr (HasCommunities<G>) {
        ctx.note_effective_placement(
            placement_kind_name(PlacementKind::kCommunityAligned));
        return place_community_aligned(std::move(counts), g.communities(),
                                       placement.fraction, rng);
      } else {
        warn_community_placement_fallback_once();
      }
      break;
    case PlacementKind::kAdversarialBoundary: {
      const TopologyView<G> view(g);
      ctx.note_effective_placement(
          placement_kind_name(PlacementKind::kAdversarialBoundary));
      if constexpr (HasCommunities<G>) {
        return place_adversarial_boundary(std::move(counts), view,
                                          g.communities(), rng);
      } else {
        return place_adversarial_boundary(std::move(counts), view, {}, rng);
      }
    }
    case PlacementKind::kClusteredBfs: {
      const TopologyView<G> view(g);
      ctx.note_effective_placement(
          placement_kind_name(PlacementKind::kClusteredBfs));
      return place_clustered_bfs(std::move(counts), view, rng);
    }
  }
  ctx.note_effective_placement(placement_kind_name(PlacementKind::kUniform));
  return place_uniform(std::move(counts), rng);
}

/// Places an exact count profile onto the nodes of `g` according to
/// --placement= (default uniform, the historical behavior — identical
/// RNG draws).
template <typename G>
Assignment place_on(const ExperimentContext& ctx, const G& g,
                    std::vector<std::uint64_t> counts, Xoshiro256& rng) {
  return place_with(ctx, ctx.placement, g, std::move(counts), rng);
}

/// AnyGraph overload: dispatches to the concrete topology once, at the
/// placement (not tick) level.
inline Assignment place_on(const ExperimentContext& ctx, const AnyGraph& g,
                           std::vector<std::uint64_t> counts,
                           Xoshiro256& rng) {
  return std::visit(
      [&](const auto& graph) {
        return place_on(ctx, graph, std::move(counts), rng);
      },
      g);
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

/// Prints a fitted growth law under a table.
inline void report_fit(const ExperimentContext& ctx, const std::string& label,
                       const LinearFit& fit) {
  if (ctx.csv) return;
  std::printf("%s: slope=%.3f intercept=%.3f R^2=%.4f\n", label.c_str(),
              fit.slope, fit.intercept, fit.r_squared);
}

}  // namespace plurality::bench
