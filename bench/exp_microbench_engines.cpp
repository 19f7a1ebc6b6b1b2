// M1b-M1e — microbenchmarks. M1b: protocol tick and engine event-loop
// throughput (ns per tick / node-update). M1c: the same protocol driven
// by every asynchronous engine — sequential, O(1) superposition, and
// the sharded engine at several shard counts — so the per-tick cost of
// the engine machinery itself can be compared head-to-head (sharded
// scaling across threads at n = 10^7: run with --m1c_n=10000000 to
// reproduce at full scale). M1e: the LLC-crossing series for the
// packed-SoA hot path — sharded ns/tick over a geometric ladder of n
// with bytes/node recorded; run with --m1e_max_n=100000000 for the
// memory-fit acceptance run.
// Hand-rolled timing (steady_clock, one sample per repetition) on the
// shared registry/JSON harness.

#include <chrono>

#include "bench_common.hpp"
#include "core/async_one_extra_bit.hpp"
#include "core/two_choices.hpp"
#include "core/voter.hpp"
#include "graph/complete.hpp"
#include "graph/csr.hpp"
#include "graph/factory.hpp"
#include "opinion/assignment.hpp"
#include "sim/continuous_engine.hpp"
#include "sim/sequential_engine.hpp"
#include "sim/sharded_engine.hpp"

using namespace plurality;

namespace {

volatile std::uint64_t g_sink;

/// ns per tick of `proto.on_tick` on uniform nodes over `ticks` ticks.
template <typename Proto>
double time_ticks(Proto& proto, Xoshiro256& rng, std::uint64_t n,
                  std::uint64_t ticks) {
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < ticks; ++i) {
    proto.on_tick(static_cast<NodeId>(uniform_below(rng, n)), rng);
  }
  const auto stop = std::chrono::steady_clock::now();
  g_sink = proto.table().support(0);
  return std::chrono::duration<double, std::nano>(stop - start).count() /
         static_cast<double>(ticks);
}

int run_exp(ExperimentContext& ctx) {
  bench::banner(ctx, "M1b (engine microbench)",
                "per-tick protocol cost and event-queue overhead bound "
                "every experiment's wall-clock time");

  const std::uint64_t n = ctx.args.get_u64("n", 1ull << 16);
  const std::uint64_t ticks = ctx.args.get_u64("iters", 1ull << 20);
  const CompleteGraph g(n);

  Table table("M1b: engine / protocol throughput  (n=" + std::to_string(n) +
                  ", " + std::to_string(ticks) + " ticks per rep)",
              {"op", "ns_op", "ci95", "ops_per_sec"});

  const auto report = [&](const std::string& name,
                          const std::vector<double>& samples) {
    ctx.record("ns_per_op", {{"op", name.c_str()}, {"n", n}}, samples);
    const Summary s = summarize(samples);
    table.row()
        .cell(name)
        .cell(s.mean, 2)
        .cell(s.ci95_halfwidth, 2)
        .cell(1e9 / s.mean, 0);
  };

  const auto per_rep = [&](auto body) {
    std::vector<double> samples;
    samples.reserve(ctx.reps);
    for (std::uint64_t rep = 0; rep < ctx.reps; ++rep) {
      Xoshiro256 rng(SeedSequence(ctx.master_seed).stream(rep));
      samples.push_back(body(rng));
    }
    return samples;
  };

  report("voter_tick", per_rep([&](Xoshiro256& rng) {
           VoterAsync proto(g, assign_equal(n, 64, rng));
           return time_ticks(proto, rng, n, ticks);
         }));
  report("two_choices_tick", per_rep([&](Xoshiro256& rng) {
           TwoChoicesAsync proto(g, assign_equal(n, 64, rng));
           return time_ticks(proto, rng, n, ticks);
         }));
  report("async_oeb_tick", per_rep([&](Xoshiro256& rng) {
           auto proto = AsyncOneExtraBit<CompleteGraph>::make(
               g, assign_equal(n, 64, rng));
           return time_ticks(proto, rng, n, ticks);
         }));
  report("sync_two_choices_node_update", per_rep([&](Xoshiro256& rng) {
           TwoChoicesSync proto(g, assign_equal(n, 64, rng));
           const std::uint64_t rounds = std::max<std::uint64_t>(ticks / n, 1);
           const auto start = std::chrono::steady_clock::now();
           for (std::uint64_t r = 0; r < rounds; ++r) {
             proto.execute_round(rng);
           }
           const auto stop = std::chrono::steady_clock::now();
           g_sink = proto.table().support(0);
           return std::chrono::duration<double, std::nano>(stop - start)
                      .count() /
                  static_cast<double>(rounds * n);
         }));
  report("continuous_engine_tick", per_rep([&](Xoshiro256& rng) {
           // Cost of the continuous-engine machinery itself (now the
           // superposition sampler), amortized per tick of the cheapest
           // protocol.
           const double horizon =
               static_cast<double>(ticks) / static_cast<double>(n);
           VoterAsync proto(g, assign_equal(n, 2, rng));
           const auto start = std::chrono::steady_clock::now();
           const auto result = run_continuous(proto, rng, horizon);
           const auto stop = std::chrono::steady_clock::now();
           g_sink = result.consensus ? 1 : 0;
           const double simulated_ticks =
               result.time * static_cast<double>(n);
           return std::chrono::duration<double, std::nano>(stop - start)
                      .count() /
                  std::max(simulated_ticks, 1.0);
         }));

  table.print(std::cout, ctx.csv);

  // ---- M1c: one protocol, every engine. Voter with 64 colors stays
  // far from consensus over the horizon, so all engines simulate the
  // same Poisson(n * horizon) tick load and the measured difference is
  // pure engine machinery.
  const std::uint64_t mc_n = ctx.args.get_u64("m1c_n", n);
  const std::uint64_t mc_ticks = ctx.args.get_u64("m1c_iters", ticks);
  const double horizon =
      static_cast<double>(mc_ticks) / static_cast<double>(mc_n);
  const CompleteGraph mc_graph(mc_n);

  Table engines("M1c: async engine comparison  (voter, n=" +
                    std::to_string(mc_n) + ", horizon=" +
                    std::to_string(horizon) + ")",
                {"engine", "ns_tick", "ci95", "ticks_per_sec",
                 "speedup_vs_sequential"});

  const auto time_engine = [&](auto&& run_engine) {
    return per_rep([&](Xoshiro256& rng) {
      VoterAsync proto(mc_graph, assign_equal(mc_n, 64, rng));
      const auto start = std::chrono::steady_clock::now();
      const auto result = run_engine(proto, rng);
      const auto stop = std::chrono::steady_clock::now();
      g_sink = result.ticks;
      return std::chrono::duration<double, std::nano>(stop - start)
                 .count() /
             std::max(static_cast<double>(result.ticks), 1.0);
    });
  };

  double sequential_engine_mean = 0.0;
  const auto report_engine = [&](const std::string& name,
                                 const std::vector<double>& samples) {
    ctx.record("ns_per_tick_engine",
               {{"engine", name.c_str()}, {"n", mc_n}}, samples);
    const Summary s = summarize(samples);
    if (name == "sequential") sequential_engine_mean = s.mean;
    engines.row()
        .cell(name)
        .cell(s.mean, 2)
        .cell(s.ci95_halfwidth, 2)
        .cell(1e9 / s.mean, 0)
        .cell(sequential_engine_mean / s.mean, 2);
  };

  report_engine("sequential",
                time_engine([&](auto& proto, Xoshiro256& rng) {
                  return run_sequential(proto, rng, horizon);
                }));
  report_engine("superposition",
                time_engine([&](auto& proto, Xoshiro256& rng) {
                  return run_continuous(proto, rng, horizon);
                }));
  for (const unsigned shards : {1u, 2u, 4u}) {
    report_engine("sharded_t" + std::to_string(shards),
                  time_engine([&](auto& proto, Xoshiro256& rng) {
                    return run_sharded(proto, rng(), shards, horizon);
                  }));
  }

  engines.print(std::cout, ctx.csv);

  // ---- M1d: sharded on a *graph*. The same far-from-consensus Voter
  // workload on a sparse random 8-regular topology, sampled through
  // the flat CSR view (graph/csr.hpp) that the unified RunPlan path
  // hands every engine: per-tick cost of the sequential graph driver
  // vs superposition vs the sharded engine at several shard counts.
  // The regular family keeps the neighbor-sample cost identical across
  // nodes, so the measured difference is pure engine machinery plus
  // the CSR row load.
  const std::uint64_t mg_n = ctx.args.get_u64("m1d_n", n);
  const std::uint64_t mg_ticks = ctx.args.get_u64("m1d_iters", ticks);
  const double mg_horizon =
      static_cast<double>(mg_ticks) / static_cast<double>(mg_n);
  GraphSpec mg_spec;
  mg_spec.kind = GraphKind::kRandomRegular;
  Xoshiro256 mg_build_rng(ctx.master_seed);
  const AnyGraph mg_graph = make_graph(mg_spec, mg_n, mg_build_rng);
  const CsrTopology mg_csr = make_csr_view(mg_graph);

  Table on_graph("M1d: async engines on a graph  (voter, random "
                 "8-regular via CSR view, n=" +
                     std::to_string(mg_n) + ", horizon=" +
                     std::to_string(mg_horizon) + ")",
                 {"engine", "ns_tick", "ci95", "ticks_per_sec",
                  "speedup_vs_sequential"});

  const auto time_graph_engine = [&](auto&& run_engine) {
    return per_rep([&](Xoshiro256& rng) {
      VoterAsync<CsrTopology> proto(mg_csr, assign_equal(mg_n, 64, rng));
      const auto start = std::chrono::steady_clock::now();
      const auto result = run_engine(proto, rng);
      const auto stop = std::chrono::steady_clock::now();
      g_sink = result.ticks;
      return std::chrono::duration<double, std::nano>(stop - start)
                 .count() /
             std::max(static_cast<double>(result.ticks), 1.0);
    });
  };

  double sequential_mean = 0.0;
  const auto report_graph_engine = [&](const std::string& name,
                                       const std::vector<double>& samples) {
    ctx.record("ns_per_tick_graph",
               {{"engine", name.c_str()}, {"graph", "regular"}, {"n", mg_n}},
               samples);
    const Summary s = summarize(samples);
    if (name == "sequential") sequential_mean = s.mean;
    on_graph.row()
        .cell(name)
        .cell(s.mean, 2)
        .cell(s.ci95_halfwidth, 2)
        .cell(1e9 / s.mean, 0)
        .cell(sequential_mean > 0.0 ? sequential_mean / s.mean : 1.0, 2);
  };

  report_graph_engine("sequential",
                      time_graph_engine([&](auto& proto, Xoshiro256& rng) {
                        return run_sequential(proto, rng, mg_horizon);
                      }));
  report_graph_engine("superposition",
                      time_graph_engine([&](auto& proto, Xoshiro256& rng) {
                        return run_continuous(proto, rng, mg_horizon);
                      }));
  for (const unsigned shards : {1u, 2u, 4u}) {
    report_graph_engine("sharded_t" + std::to_string(shards),
                        time_graph_engine([&](auto& proto, Xoshiro256& rng) {
                          return run_sharded(proto, rng(), shards,
                                             mg_horizon);
                        }));
  }

  on_graph.print(std::cout, ctx.csv);

  // ---- M1e: LLC-crossing series. The same far-from-consensus Voter
  // workload on the sharded engine at a geometric ladder of n, with a
  // *fixed* total tick budget so every sweep point simulates the same
  // load: once the packed working set (1 byte/node color state, which
  // the shards write live, plus the snapshot) outgrows the last-level
  // cache, the per-tick cost should plateau at the DRAM random-access
  // rate instead of climbing — the acceptance gate for the billion-node
  // hot path. The plateau assumes huge-page translation (the slab
  // layer madvises THP); on hosts that never promote — e.g. a
  // virtualized CI box in `madvise` THP mode that ignores the advice
  // — 4 KiB page walks add a visible slope well past the LLC, so
  // judge flatness on THP-capable hardware. The
  // resolved bytes/node of the hot state is recorded per sweep point
  // (and flows into the BENCH record's params.bytes_per_node). Scale
  // up with --m1e_max_n= (10^8 reproduces the memory-fit acceptance
  // run).
  const std::uint64_t me_min_n = ctx.args.get_u64("m1e_min_n", 100000);
  const std::uint64_t me_max_n = ctx.args.get_u64("m1e_max_n", 3200000);
  const std::uint64_t me_ticks = ctx.args.get_u64("m1e_iters", 1ull << 21);
  const auto me_shards =
      static_cast<unsigned>(ctx.args.get_u64("m1e_shards", 4));

  Table llc("M1e: LLC-crossing ns/tick  (voter, sharded_t" +
                std::to_string(me_shards) + ", " + std::to_string(me_ticks) +
                " ticks per rep)",
            {"n", "ns_tick", "ci95", "bytes_node", "state_mb"});

  for (std::uint64_t me_n = me_min_n; me_n <= me_max_n; me_n *= 4) {
    const double me_horizon =
        static_cast<double>(me_ticks) / static_cast<double>(me_n);
    const CompleteGraph me_graph(me_n);
    ctx.note_effective("engine", engine_kind_name(EngineKind::kSharded));
    double bytes_node = 0.0;
    const auto samples = per_rep([&](Xoshiro256& rng) {
      VoterAsync proto(me_graph, assign_equal(me_n, 64, rng));
      // Hot-state share: packed colors (the engine's live buffer) +
      // its snapshot (complete graph, so no topology share).
      bytes_node =
          proto.table().state_bytes_per_node() +
          static_cast<double>(color_width_bytes(proto.table().width()));
      ctx.note_state_bytes_per_node(bytes_node);
      const auto start = std::chrono::steady_clock::now();
      const auto result =
          run_sharded(proto, rng(), me_shards, me_horizon, NullObserver{},
                      /*sample_every=*/me_horizon, /*epoch_length=*/0.25);
      const auto stop = std::chrono::steady_clock::now();
      g_sink = result.ticks;
      return std::chrono::duration<double, std::nano>(stop - start).count() /
             std::max(static_cast<double>(result.ticks), 1.0);
    });
    ctx.record("ns_per_tick_llc",
               {{"engine", "sharded"}, {"shards", me_shards}, {"n", me_n}},
               samples);
    ctx.record("bytes_per_node_llc", {{"n", me_n}},
               std::vector<double>{bytes_node});
    const Summary s = summarize(samples);
    llc.row()
        .cell(me_n)
        .cell(s.mean, 2)
        .cell(s.ci95_halfwidth, 2)
        .cell(bytes_node, 2)
        .cell(bytes_node * static_cast<double>(me_n) / 1e6, 1);
  }

  llc.print(std::cout, ctx.csv);
  return 0;
}

const ExperimentRegistrar kRegistrar{
    "microbench_engines",
    "M1b/M1c: protocol tick and engine event-loop throughput (ns per "
    "tick / node-update), plus sequential vs superposition vs sharded "
    "engine head-to-head",
    "Hot-path microbenchmarks. M1b: ns per protocol tick (Voter, "
    "Two-Choices, 3-Majority) and ns per node-update for the sync "
    "drivers. M1c: the same Voter workload driven end to end by each "
    "async engine (sequential, superposition, sharded), with each "
    "engine's speedup over the sequential one. M1d: the "
    "engines on a *graph* (Voter on a random 8-regular topology "
    "through the flat CSR view): per-tick throughput of the sharded "
    "engine at several shard counts vs the sequential graph driver. "
    "M1e: the LLC-crossing series — sharded ns/tick over a geometric "
    "ladder of n at a fixed tick budget, with the resolved packed "
    "bytes/node per sweep point; flat past the LLC is the billion-node "
    "hot-path acceptance gate. Records `ns_per_op`, "
    "`ns_per_tick_engine`, `ns_per_tick_graph`, `ns_per_tick_llc`, and "
    "`bytes_per_node_llc`. Overrides: --n=, --iters=, --m1c_n=, "
    "--m1c_iters=, --m1d_n=, --m1d_iters=, --shards=, --m1e_min_n=, "
    "--m1e_max_n=, --m1e_iters=, --m1e_shards=.",
    /*default_reps=*/5, run_exp};

}  // namespace
