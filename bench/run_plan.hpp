#pragma once

/// \file run_plan.hpp
/// The one run dispatch behind every experiment: a RunPlan is the
/// resolved {engine, graph, placement, latency} tuple of one
/// experiment invocation, and bench::run(plan, ...) is the single
/// entry point that routes any protocol to the driver that executes
/// that composition, or rejects the composition with a
/// ContractViolation naming the flags in conflict. Nothing is silently
/// downgraded.
///
/// Dispatch rules (each records truthful *_effective attribution):
///   - zero latency: the requested engine drives the protocol
///     (sequential | heap | superposition | sharded); --engine=sharded
///     is rejected for a protocol that is not ShardableProtocol;
///   - non-zero latency + a delayed-shardable protocol (query/apply
///     split): the sharded engine's queued body
///     (run_sharded_queued), under the blocking one-query-in-flight
///     discipline, always with the resolved --shards= worker count;
///   - non-zero latency + a protocol without the query/apply split:
///     rejected.
/// run_queued is the one entry to the queued body, for bench::run and
/// for experiments that pick their own latency models or discipline
/// (E10, L1). It is the only driver for response latency, so an
/// explicit --engine= other than sharded is rejected; under the
/// experiment's default engine the run is attributed
/// engine_effective=sharded, and shards_effective names the count that
/// keyed the trajectories. A program-step protocol
/// (AsyncOneExtraBitDelayed) runs at one shard only, so any other
/// --shards= is rejected naming --shards=1.

#include <cstdint>
#include <string>
#include <utility>
#include <variant>

#include "experiment/registry.hpp"
#include "graph/csr.hpp"
#include "graph/factory.hpp"
#include "opinion/placement.hpp"
#include "sim/continuous_engine.hpp"
#include "sim/latency.hpp"
#include "sim/sequential_engine.hpp"
#include "sim/sharded_engine.hpp"
#include "support/assert.hpp"

namespace plurality::bench {

/// The resolved composition of one experiment invocation: which engine
/// drives the runs, which topology family the sweep builds, where the
/// counts start, and under which response-latency model. Built once
/// per experiment body via make_plan(); every axis is already
/// validated (ExperimentContext parses the flags on the main thread).
struct RunPlan {
  const ExperimentContext* ctx = nullptr;
  EngineKind engine = EngineKind::kSuperposition;  ///< resolved request
  GraphSpec graph;          ///< resolved --graph* (or experiment default)
  PlacementSpec placement;  ///< resolved --placement*
  LatencySpec latency;      ///< resolved --latency*
  PerturbSpec perturb;      ///< resolved --perturb* (or experiment default)
  unsigned shards = 1;      ///< resolved --shards=
  NumaMode numa = NumaMode::kOff;  ///< resolved --numa=
};

/// The graph spec an experiment will actually build: the experiment's
/// default kind unless the user passed --graph=, with the full
/// --graph* flag family from the context applied either way (so a
/// family knob like --graph-degree= is honored without --graph=).
inline GraphSpec resolved_graph_spec(const ExperimentContext& ctx,
                                     GraphKind experiment_default) {
  GraphSpec spec = ctx.graph;
  if (!ctx.args.has_flag("graph")) spec.kind = experiment_default;
  return spec;
}

/// Resolves the plan for one experiment body: --engine= overrides
/// `default_engine` (each experiment's historical model), --graph=
/// overrides `default_graph`, --perturb= overrides `default_perturb`
/// (most experiments default to none; the recovery experiments default
/// to their studied kind); the --graph-* / --perturb-* family knobs
/// apply either way.
inline RunPlan make_plan(const ExperimentContext& ctx,
                         EngineKind default_engine,
                         GraphKind default_graph = GraphKind::kComplete,
                         PerturbKind default_perturb = PerturbKind::kNone) {
  RunPlan plan;
  plan.ctx = &ctx;
  plan.engine = ctx.engine.empty() ? default_engine
                                   : parse_engine_kind(ctx.engine);
  plan.graph = resolved_graph_spec(ctx, default_graph);
  plan.placement = ctx.placement;
  plan.latency = ctx.latency;
  plan.perturb = ctx.perturb;
  if (!ctx.args.has_flag("perturb")) plan.perturb.kind = default_perturb;
  plan.shards = ctx.shards;
  plan.numa = ctx.numa;
  return plan;
}

/// Attributes the per-node cost of the state a run is about to carry:
/// the protocol's own figure when it reports one
/// (state_bytes_per_node(), e.g. the async OneExtraBit node records and
/// gadget slots), else its table's packed colors + support counters;
/// plus the sharded engine's snapshot (one more packed array; its live
/// buffer is the table's own slab) when that engine will drive the
/// protocol, and `engine_bytes` more per node the engine holds (the
/// blocking queued body's answer slots). Called by every dispatch below
/// so every engine-driven record can report bytes_per_node.
template <typename P>
void note_state_footprint(const RunPlan& plan, const P& proto,
                          bool sharded_engine, double engine_bytes = 0.0) {
  double bytes = engine_bytes;
  if constexpr (requires { proto.state_bytes_per_node(); }) {
    bytes += proto.state_bytes_per_node();
  } else {
    bytes += proto.table().state_bytes_per_node();
  }
  if (sharded_engine) {
    bytes += static_cast<double>(color_width_bytes(proto.table().width()));
  }
  plan.ctx->note_state_bytes_per_node(bytes);
}

/// Mints the plan's Perturber for one run and attributes the kind into
/// the record (perturb_effective) — the attribution happens here, at
/// the only place a perturber can be built from a plan, so a record
/// can only claim a kind whose event stream was actually wired into a
/// run. Seeded from one word of `rng` (mirroring the shard-seed draw):
/// the event stream is a function of that word alone, so it is
/// bit-identical whichever engine later drains it. `topology` enables
/// degree-targeted picks and adversary impact scoring; `churn` enables
/// edge rewiring (see Perturber's contract for when each may be null).
inline Perturber make_perturber(const RunPlan& plan, std::uint64_t n,
                                ColorId num_colors, Xoshiro256& rng,
                                const CsrTopology* topology = nullptr,
                                ChurnableCsr* churn = nullptr) {
  if (plan.perturb.kind != PerturbKind::kNone) {
    plan.ctx->note_effective_perturb(perturb_kind_name(plan.perturb.kind));
  }
  return Perturber(plan.perturb, n, num_colors, rng(), topology, churn);
}

/// Builds the topology `spec` selects for one sweep point and
/// attributes the built family into the record (graph_effective) and
/// its share of bytes_per_node. Random families draw their edges from
/// `build_rng`; the torus rounds n down to floor(sqrt n)^2, so read the
/// realized size back via num_nodes().
inline AnyGraph build_topology(const ExperimentContext& ctx,
                               const GraphSpec& spec, std::uint64_t n,
                               Xoshiro256& build_rng) {
  ctx.note_effective_graph(graph_kind_name(spec.kind));
  AnyGraph graph = make_graph(spec, n, build_rng);
  const std::uint64_t realized = num_nodes(graph);
  if (realized > 0) {
    ctx.note_topology_bytes_per_node(
        static_cast<double>(graph_storage_bytes(graph)) /
        static_cast<double>(realized));
  }
  return graph;
}

/// The plan's topology for one sweep point (see build_topology).
inline AnyGraph topology(const RunPlan& plan, std::uint64_t n,
                         Xoshiro256& build_rng) {
  return build_topology(*plan.ctx, plan.graph, n, build_rng);
}

/// Throws the ContractViolation for a flag combination bench::run
/// cannot honor: `flags` names the values in conflict, `why` says
/// which protocol or driver cannot run them.
[[noreturn]] inline void reject(std::string flags, const char* why) {
  flags += " is not supported: ";
  flags += why;
  throw ContractViolation(flags);
}

/// "--<key>=<value>", for rejection messages.
inline std::string flag(const char* key, const char* value) {
  std::string text = "--";
  text += key;
  text += "=";
  text += value;
  return text;
}

/// Rejects a plan the queued body cannot run P under, with the latency
/// family named `latency`: an explicit --engine= other than sharded,
/// or, for a program-step protocol, more than one shard (see the file
/// header). Cheap, so an experiment may call it up front, before any
/// cell runs.
template <DelayedShardableProtocol P>
void check_queued(const RunPlan& plan, const char* latency) {
  if (!plan.ctx->engine.empty() && plan.engine != EngineKind::kSharded) {
    std::string flags = flag("engine", engine_kind_name(plan.engine));
    flags += " with ";
    flags += flag("latency", latency);
    reject(std::move(flags),
           "response latency runs only on the sharded engine's "
           "delivery queues (pass --engine=sharded or drop --engine=)");
  }
  if constexpr (ProgramStepProtocol<P>) {
    if (plan.shards != 1) {
      reject(flag("shards", std::to_string(plan.shards).c_str()),
             "this protocol's steps read peers' records, which only one "
             "shard keeps live (pass --shards=1)");
    }
  }
}

/// Runs a delayed-shardable protocol under an explicit latency model on
/// the sharded engine's queued body, the only driver for this
/// composition, always with the plan's resolved `--shards=` count: the
/// record says {engine_effective: sharded, shards_effective:
/// plan.shards}, and that pair must describe the trajectories it holds
/// (replaying a record with a different shard count gives a different,
/// statistically equivalent, run). The engine seeds its per-shard
/// streams from a word of `rng`.
template <DelayedShardableProtocol P, typename Obs = NullObserver>
AsyncRunResult run_queued(const RunPlan& plan, P& proto,
                          const LatencyModel& model,
                          QueryDiscipline discipline, Xoshiro256& rng,
                          double max_time, Obs&& obs = Obs{},
                          double sample_every = 1.0,
                          Perturber* perturb = nullptr) {
  check_queued<P>(plan, model.name());
  plan.ctx->note_effective_engine(engine_kind_name(EngineKind::kSharded));
  plan.ctx->note_effective_latency(model.name());
  double slots = 0.0;
  if constexpr (!ProgramStepProtocol<P>) {
    if (discipline == QueryDiscipline::kBlocking) {
      slots = static_cast<double>(detail::answer_slot_bytes<typename P::Query>(
          proto.table().width()));
    }
  }
  note_state_footprint(plan, proto, /*sharded_engine=*/true, slots);
  return run_sharded_queued(proto, model, discipline, rng(), plan.shards,
                            max_time, std::forward<Obs>(obs), sample_every,
                            /*epoch_length=*/0.25, perturb, plan.numa);
}

/// THE run dispatch for async protocols: engine ×
/// latency routing as described in the file header. The shard seed is
/// one word of `rng`, drawn only when the sharded engine runs.
template <typename P, typename Obs = NullObserver>
AsyncRunResult run(const RunPlan& plan, P& proto, Xoshiro256& rng,
                   double max_time, Obs&& obs = Obs{},
                   double sample_every = 1.0, Perturber* perturb = nullptr) {
  const char* engine = engine_kind_name(plan.engine);
  if (plan.latency.kind != LatencyKind::kZero) {
    if constexpr (DelayedShardableProtocol<P>) {
      const auto model = plan.latency.make();
      return run_queued(plan, proto, *model, QueryDiscipline::kBlocking,
                        rng, max_time, std::forward<Obs>(obs),
                        sample_every, perturb);
    } else {
      reject(flag("latency", latency_kind_name(plan.latency.kind)),
             "this protocol has no query/apply split, so it cannot wait "
             "for responses (drop --latency=)");
    }
  }
  if constexpr (!ShardableProtocol<P>) {
    if (plan.engine == EngineKind::kSharded) {
      reject(flag("engine", engine),
             "this protocol has no sample()/decide() split, so it cannot "
             "shard (use --engine=sequential|heap|superposition)");
    }
  }
  plan.ctx->note_effective_engine(engine);
  note_state_footprint(plan, proto, plan.engine == EngineKind::kSharded);
  switch (plan.engine) {
    case EngineKind::kSequential:
      return run_sequential(proto, rng, max_time, std::forward<Obs>(obs),
                            sample_every, perturb);
    case EngineKind::kHeap:
      return run_continuous_heap(proto, rng, max_time,
                                 std::forward<Obs>(obs), sample_every,
                                 perturb);
    case EngineKind::kSuperposition:
      return run_continuous(proto, rng, max_time, std::forward<Obs>(obs),
                            sample_every, perturb);
    case EngineKind::kSharded:
      // Rejected above for non-shardable P; the if constexpr keeps
      // run_sharded uninstantiated for them.
      if constexpr (ShardableProtocol<P>) {
        return run_sharded(proto, rng(), plan.shards, max_time,
                           std::forward<Obs>(obs), sample_every,
                           /*epoch_length=*/0.25, perturb, plan.numa);
      }
      break;
  }
  throw ContractViolation("unreachable engine kind");
}

}  // namespace plurality::bench
