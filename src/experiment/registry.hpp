#pragma once

/// \file registry.hpp
/// The experiment registry: every experiment in bench/ self-registers a
/// name, a one-line description, a default repetition count, and a run
/// entry point. One binary (`plurality_exp`) then exposes all of them
/// behind `--exp=<name>`, `--list`, and `--all`, with shared
/// `--seed/--reps/--jobs/--csv` handling through ExperimentContext.
///
/// Besides the human-readable tables an experiment prints, every run
/// produces one structured JSON record (see run_to_record): the
/// resolved parameters, each recorded series with its raw per-rep
/// samples and Welford mean/stderr, and the wall-clock time. Those
/// records are the BENCH_*.json trajectory the ROADMAP tracks across
/// PRs.

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "experiment/args.hpp"
#include "experiment/json_writer.hpp"
#include "graph/factory.hpp"
#include "jobs/executor.hpp"
#include "opinion/placement.hpp"
#include "rng/seed.hpp"
#include "sim/latency.hpp"
#include "sim/perturb.hpp"
#include "support/assert.hpp"
#include "trace/trace.hpp"

namespace plurality {

/// The engine an `--engine=` value names; bench::run (bench/run_plan.hpp)
/// switches on it. Engines sample the same stochastic process but
/// consume the RNG stream differently, so switching engines changes the
/// realized trajectory for a fixed seed while leaving every
/// distribution intact (see README, "Engine selection").
enum class EngineKind {
  kSequential,     ///< uniform node per discrete step, time = steps/n
  kSuperposition,  ///< continuous clocks via O(1) superposition sampling
  kSharded,        ///< superposition split into executor-run shards
};

inline const char* engine_kind_name(EngineKind kind) noexcept {
  switch (kind) {
    case EngineKind::kSequential: return "sequential";
    case EngineKind::kSuperposition: return "superposition";
    case EngineKind::kSharded: return "sharded";
  }
  return "unknown";
}

/// Parses an `--engine=` value; throws ContractViolation (naming the
/// offending text) on anything unrecognized.
inline EngineKind parse_engine_kind(const std::string& name) {
  if (name == "sequential") return EngineKind::kSequential;
  if (name == "superposition") return EngineKind::kSuperposition;
  if (name == "sharded") return EngineKind::kSharded;
  if (name == "heap") {
    throw ContractViolation(
        "--engine=heap is not supported: the continuous clocks have one "
        "tick source; --engine=superposition runs the same process");
  }
  throw ContractViolation("--engine=" + name +
                          " is not one of sequential|superposition|sharded");
}

/// Per-run state handed to an experiment body: the parsed CLI plus the
/// shared knobs every experiment honors, and the sink for measured
/// series.
class ExperimentContext {
 public:
  ExperimentContext(Args arguments, std::uint64_t default_reps)
      : args(std::move(arguments)),
        master_seed(args.get_u64("seed", 42)),
        reps(args.get_u64("reps", default_reps)),
        engine(args.get_string("engine", "")),
        shards(static_cast<unsigned>(args.get_u64("shards", 0))),
        jobs(static_cast<unsigned>(args.get_u64("jobs", 0))),
        csv(args.csv()) {
    // Resolve --jobs=0 (hardware concurrency) up front and configure
    // the process-wide thread cap: the fork-join executor gets
    // jobs - 1 workers (the main thread is the first thread), and it is
    // the only thread consumer — sweep leaves and the sharded engine's
    // epoch shards run on the same workers — so `jobs` is a hard
    // ceiling on process concurrency. The resolved value lands
    // in every JSON record (jobs_effective); results are bit-identical
    // across --jobs= values by the determinism contract, so the record
    // field documents the schedule, not the trajectory.
    if (jobs == 0) {
      jobs = std::max(1u, std::thread::hardware_concurrency());
    }
    jobs::set_process_concurrency(jobs);
    // Validate --engine= here, on the main thread: experiment bodies
    // resolve it inside per-repetition lambdas that run on unguarded
    // worker threads, where a throw would std::terminate the process
    // instead of producing the parse error.
    if (!engine.empty()) parse_engine_kind(engine);
    // Resolve --shards=0 (hardware concurrency) to a concrete count
    // up front: sharded trajectories are deterministic for a fixed
    // (seed, shards), so the resolved value lands in every JSON record
    // (shards_effective) for the run to be replayable elsewhere.
    if (shards == 0) {
      shards = std::max(1u, std::thread::hardware_concurrency());
    }
    // Resolve and validate the --latency= triple on the main thread for
    // the same reason: minting a model checks the (mean, shape)
    // contracts, and latency.make() is later called from worker
    // lambdas, where a throw would terminate instead of reporting.
    latency.kind = parse_latency_kind(args.get_string("latency", "zero"));
    latency.mean = args.get_double("latency-mean", 1.0);
    latency.shape = args.get_double(
        "latency-shape", default_latency_shape(latency.kind));
    try {
      latency.make();
    } catch (const ContractViolation& e) {
      // Name the flags: the raw contract message points at
      // latency.hpp, not at what the user typed.
      throw ContractViolation(
          std::string("invalid --latency/--latency-mean/--latency-shape "
                      "combination: ") +
          e.what());
    }
    // Resolve and validate the --graph*/--placement* scenario axes on
    // the main thread too: unknown names and out-of-range rates must
    // fail loudly at parse time (naming the flag), never inside a
    // worker lambda and never by silently running the default scenario
    // under an adversarial-sounding label.
    graph.kind = parse_graph_kind(args.get_string("graph", "complete"));
    graph.er_p = args.get_double("graph-p", graph.er_p);
    // Range-check before narrowing: a u64 that wraps to a small u32
    // would silently run a different scenario than requested.
    const auto get_u32 = [&](const char* key, std::uint32_t fallback) {
      const std::uint64_t value = args.get_u64(key, fallback);
      if (value > 0xFFFFFFFFull) {
        throw ContractViolation(std::string("--") + key +
                                " expects a 32-bit value, got " +
                                std::to_string(value));
      }
      return static_cast<std::uint32_t>(value);
    };
    graph.degree = get_u32("graph-degree", graph.degree);
    graph.blocks = get_u32("graph-blocks", graph.blocks);
    graph.p_in = args.get_double("graph-pin", graph.p_in);
    graph.p_out = args.get_double("graph-pout", graph.p_out);
    graph.validate();
    placement.kind =
        parse_placement_kind(args.get_string("placement", "uniform"));
    placement.fraction =
        args.get_double("placement-fraction", placement.fraction);
    placement.validate();
    // Resolve and validate the --perturb* axis on the main thread for
    // the same reason as the axes above: unknown kinds and nonsensical
    // rates must fail at parse time naming the flag, never inside a
    // worker lambda.
    perturb.kind = parse_perturb_kind(args.get_string("perturb", "none"));
    perturb.rate = args.get_double("perturb-rate", perturb.rate);
    perturb.budget = args.get_u64("perturb-budget", perturb.budget);
    perturb.start = args.get_double("perturb-start", perturb.start);
    perturb.interval = args.get_double("perturb-interval", perturb.interval);
    perturb.target =
        parse_perturb_target(args.get_string("perturb-target", "uniform"));
    perturb.validate();
    // Resolve --trace= on the main thread too (same loud-failure policy
    // as the axes above). The default is summary mode: the aggregate
    // counters are cheap enough to leave on, and every BENCH record
    // carries the contention summary unless tracing is explicitly off.
    trace_spec = trace::parse_trace_spec(args.get_string("trace", "summary"));
    // --sampling=, --threads=, --exact-reads and --numa= are rejected,
    // not ignored: every engine has one node-draw path, --jobs= is the
    // one concurrency knob, the sharded engine at one shard is the exact
    // process, that engine has one allocation path, and the raw-args
    // echo would otherwise label a run with whatever value was passed.
    const auto reject_flag = [&](const char* key, const char* why) {
      if (!args.has_flag(key)) return;
      std::string what = "--";
      what += key;
      if (const std::string value = args.get_string(key, "");
          !value.empty()) {
        what += "=";
        what += value;
      }
      what += " is not supported: ";
      what += why;
      throw ContractViolation(what);
    };
    reject_flag("sampling", "every engine has a single node-draw path");
    reject_flag("threads", "--jobs= is the one concurrency knob");
    reject_flag("exact-reads",
                "--engine=sharded --shards=1 runs the exact process");
    reject_flag("numa", "the sharded engine has one allocation path");
  }

  Args args;
  std::uint64_t master_seed;
  std::uint64_t reps;
  std::string engine;  ///< --engine= override; empty = experiment default
  unsigned shards;     ///< --shards=, resolved (0 -> hardware concurrency)
  unsigned jobs;       ///< --jobs=, resolved (0 -> hardware concurrency);
                       ///< the process-wide thread cap
  bool csv;
  LatencySpec latency;  ///< resolved --latency/--latency-mean/--latency-shape
  GraphSpec graph;      ///< resolved --graph/--graph-p/--graph-degree/
                        ///< --graph-blocks/--graph-pin/--graph-pout
  PlacementSpec placement;  ///< resolved --placement/--placement-fraction
  PerturbSpec perturb;      ///< resolved --perturb/--perturb-rate/
                            ///< --perturb-budget/--perturb-start/
                            ///< --perturb-interval/--perturb-target
  trace::TraceSpec trace_spec;  ///< resolved --trace= (off|summary|FILE)

  /// Independent seed stream for one sweep point of the experiment.
  SeedSequence seeds_for(std::uint64_t sweep_point) const {
    return SeedSequence(master_seed).child(sweep_point);
  }

  /// Records one measured series: the per-repetition samples of one
  /// quantity at one sweep point, tagged with the sweep parameters.
  /// Aggregates (Welford mean/stderr, min/max) are computed here so the
  /// JSON record carries them next to the raw samples.
  void record(const std::string& series,
              std::initializer_list<std::pair<const char*, JsonValue>> params,
              std::span<const double> samples);

  /// Hands the accumulated series array to the registry runner.
  JsonValue take_series() { return std::exchange(series_, JsonValue::array()); }

  /// Called by the bench harness with what actually ran on one
  /// attribution axis — "engine", "latency", "placement", "graph" or
  /// "perturb" — and collected into the JSON record as
  /// params.<axis>_effective (see run_to_record). What ran can differ
  /// from what was asked: some experiments sweep or cross-check engines
  /// of their own, a non-zero --latency= runs on the sharded queued
  /// body, a community-aligned placement on a topology without
  /// communities falls back to uniform, and clique-pinned experiments
  /// echo a --graph= request they never built. Thread-safe (repetition
  /// bodies run on workers).
  void note_effective(const std::string& axis,
                      const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    effective_[axis].insert(name);
  }

  /// Everything noted on `axis` during the run, sorted; empty when the
  /// run noted nothing there.
  std::set<std::string> effective(const std::string& axis) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = effective_.find(axis);
    return it == effective_.end() ? std::set<std::string>{} : it->second;
  }

  /// Records one resolved scalar parameter into the run's top-level
  /// params block (e.g. the crash fraction or injection horizon an
  /// experiment actually used, including defaults the CLI echo would
  /// miss). Explicitly passed flags win on key collision; see
  /// run_to_record. Thread-safe (repetition bodies run on workers).
  void note_param(const std::string& key, JsonValue value) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    noted_params_.insert_or_assign(key, std::move(value));
  }

  /// All parameters noted during the run, keyed by name.
  std::map<std::string, JsonValue> noted_params() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return noted_params_;
  }

  /// Called by the bench harness with the per-node byte cost of one
  /// run's resident *opinion state* — packed colors + support counters
  /// + the sharded engine's snapshot copy (bench::run computes it from
  /// the table's resolved width). The maximum across runs is
  /// combined with the topology share into params.bytes_per_node, the
  /// memory-footprint half of the M1e LLC-crossing claim. Thread-safe
  /// (repetition bodies run on workers).
  void note_state_bytes_per_node(double bytes) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    state_bytes_per_node_ = std::max(state_bytes_per_node_, bytes);
  }

  /// Same for the topology share (CSR offsets + edges per node; the
  /// implicit clique costs zero). Noted where graphs are built
  /// (bench::build_topology).
  void note_topology_bytes_per_node(double bytes) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    topology_bytes_per_node_ = std::max(topology_bytes_per_node_, bytes);
  }

  /// The combined per-node footprint of the largest run (0 when no run
  /// noted its state — e.g. unit-style experiments with no engine).
  double bytes_per_node() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return state_bytes_per_node_ + topology_bytes_per_node_;
  }

 private:
  JsonValue series_ = JsonValue::array();
  mutable std::mutex mutex_;
  mutable std::map<std::string, std::set<std::string>> effective_;
  mutable std::map<std::string, JsonValue> noted_params_;
  mutable double state_bytes_per_node_ = 0.0;
  mutable double topology_bytes_per_node_ = 0.0;
};

/// A registered experiment.
struct Experiment {
  std::string name;         ///< CLI handle, e.g. "one_extra_bit"
  std::string description;  ///< one line: paper claim / what it measures
  std::string describe;     ///< catalog paragraph: setup, sweeps, flags,
                            ///< what the recorded series mean (feeds the
                            ///< generated docs/EXPERIMENTS.md)
  std::uint64_t default_reps = 10;
  std::function<int(ExperimentContext&)> run;
};

class ExperimentRegistry {
 public:
  /// The process-wide registry (Meyers singleton: safe to use from the
  /// static registrars in each experiment translation unit).
  static ExperimentRegistry& instance();

  /// Registers an experiment. Requires a unique, non-empty name and a
  /// callable entry point.
  void add(Experiment experiment);

  /// Looks up an experiment; nullptr when unknown.
  const Experiment* find(const std::string& name) const;

  /// All experiments, sorted by name.
  std::vector<const Experiment*> list() const;

  std::size_t size() const noexcept { return experiments_.size(); }

  /// Runs one experiment with the given CLI arguments and assembles its
  /// JSON record: name, description, resolved params, recorded series,
  /// exit code, and wall-clock seconds.
  JsonValue run_to_record(const Experiment& experiment,
                          const Args& args) const;

 private:
  std::map<std::string, Experiment> experiments_;
};

/// Registers an experiment at static-initialization time; define one
/// per experiment translation unit. `describe` is the experiment's
/// catalog entry (a paragraph on setup, sweep flags, and recorded
/// series) emitted into docs/EXPERIMENTS.md via `--describe-all`.
struct ExperimentRegistrar {
  ExperimentRegistrar(std::string name, std::string description,
                      std::string describe, std::uint64_t default_reps,
                      std::function<int(ExperimentContext&)> run);
};

}  // namespace plurality
