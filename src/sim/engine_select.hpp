#pragma once

/// \file engine_select.hpp
/// Runtime engine selection for asynchronous runs. Every experiment
/// accepts `--engine=sequential|heap|superposition|sharded` (plus
/// `--shards=T` for the sharded engine) so any scenario can be replayed
/// on any engine; run_async_engine dispatches a protocol to the chosen
/// driver and transparently falls back from `sharded` to
/// `superposition` for protocols that are not shardable (stateful tick
/// machines like AsyncOneExtraBit).
///
/// Engines sample the same stochastic process but consume the RNG
/// stream differently, so switching engines changes the realized
/// trajectory for a fixed seed while leaving every distribution intact
/// (see README, "Engine selection").
///
/// Edge latencies interact with engine selection as follows
/// (`--latency=` selects a model from sim/latency.hpp):
///   - zero latency leaves every engine untouched;
///   - a messaging (delayed-response) protocol always runs on the
///     superposition-based messaging driver — the only *single-stream*
///     engine with a delivery queue — so heap/sequential requests fall
///     back to it (the bench harness warns once);
///   - a *delayed-shardable* protocol (query/apply_query split) runs
///     any sampleable model on the sharded engine's per-shard delivery
///     queues (run_sharded_queued in sharded_engine.hpp) — the general
///     parallel latency path, dispatched by the bench layer's RunPlan.

#include <cstdint>
#include <string>

#include "sim/continuous_engine.hpp"
#include "sim/latency.hpp"
#include "sim/observers.hpp"
#include "sim/result.hpp"
#include "sim/sequential_engine.hpp"
#include "sim/sharded_engine.hpp"
#include "support/assert.hpp"

namespace plurality {

enum class EngineKind {
  kSequential,     ///< uniform node per discrete step, time = steps/n
  kHeap,           ///< continuous clocks via the n-timer event queue
  kSuperposition,  ///< continuous clocks via O(1) superposition sampling
  kSharded,        ///< superposition split across per-shard threads
};

inline const char* engine_kind_name(EngineKind kind) noexcept {
  switch (kind) {
    case EngineKind::kSequential: return "sequential";
    case EngineKind::kHeap: return "heap";
    case EngineKind::kSuperposition: return "superposition";
    case EngineKind::kSharded: return "sharded";
  }
  return "unknown";
}

/// Parses an `--engine=` value; throws ContractViolation (naming the
/// offending text) on anything unrecognized.
inline EngineKind parse_engine_kind(const std::string& name) {
  if (name == "sequential") return EngineKind::kSequential;
  if (name == "heap") return EngineKind::kHeap;
  if (name == "superposition") return EngineKind::kSuperposition;
  if (name == "sharded") return EngineKind::kSharded;
  throw ContractViolation(
      "--engine=" + name +
      " is not one of sequential|heap|superposition|sharded");
}

/// The engine that will actually drive protocol P when `kind` is
/// requested: the single place the sharded-to-superposition fallback
/// for non-shardable protocols is decided. Callers that label runs
/// (e.g. the bench harness's params.engine_effective) must derive the
/// label from this same function.
template <typename P>
constexpr EngineKind effective_engine_kind(EngineKind kind) noexcept {
  if (kind == EngineKind::kSharded && !ShardableProtocol<P>) {
    return EngineKind::kSuperposition;
  }
  return kind;
}

/// Runs `proto` on the selected engine. `seed_for_shards` seeds the
/// sharded engine's per-shard streams (the other engines draw from
/// `rng`); `shards` = 0 picks the hardware concurrency. Protocols that
/// do not satisfy ShardableProtocol run `sharded` requests on the
/// superposition engine instead (see effective_engine_kind). An
/// optional Perturber (sim/perturb.hpp) is drained by whichever engine
/// runs — event-time order on the single-stream engines, epoch
/// boundaries on the sharded one.
///
/// `tuning` (sim/sharded_engine.hpp) applies to the sharded engine
/// only: exact_reads and numa are no-ops elsewhere (the single-stream
/// engines are already exact and single-threaded).
template <AsyncProtocol P, typename Obs = NullObserver>
AsyncRunResult run_async_engine(EngineKind kind, P& proto, Xoshiro256& rng,
                                std::uint64_t seed_for_shards,
                                unsigned shards, double max_time,
                                Obs&& obs = Obs{},
                                double sample_every = 1.0,
                                Perturber* perturb = nullptr,
                                const EngineTuning& tuning = {}) {
  switch (effective_engine_kind<P>(kind)) {
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
      // effective_engine_kind only yields kSharded for shardable P; the
      // if constexpr keeps run_sharded uninstantiated otherwise.
      if constexpr (ShardableProtocol<P>) {
        return run_sharded(proto, seed_for_shards, shards, max_time,
                           std::forward<Obs>(obs), sample_every,
                           /*epoch_length=*/0.25, perturb, tuning);
      }
      break;
  }
  throw ContractViolation("unreachable engine kind");
}

}  // namespace plurality
