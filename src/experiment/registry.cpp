#include "experiment/registry.hpp"

#include <cerrno>
#include <chrono>
#include <cstdlib>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "stats/welford.hpp"
#include "support/assert.hpp"

namespace plurality {

namespace {

/// Harness plumbing flags that select/route experiments but do not
/// parameterize the measurement; echoing them into the record would
/// make otherwise-identical trajectories diff on invocation details.
/// --jobs= is plumbing by the determinism contract — results are
/// bit-identical for every worker count — and its resolved value is
/// recorded separately as jobs_effective. --trace= is plumbing for the
/// same reason: tracing observes the schedule without touching any
/// trajectory, and the resolved mode lands in record["trace"].mode.
bool is_plumbing_key(const std::string& key) {
  return key == "exp" || key == "all" || key == "list" || key == "json" ||
         key == "out-dir" || key == "no-json" || key == "csv" ||
         key == "jobs" || key == "trace" || key == "numa";
}

/// The process's peak resident set in bytes (Linux ru_maxrss is KiB,
/// macOS is bytes); 0 where getrusage is unavailable. A schedule/host
/// property like wall_clock_seconds — recorded in every BENCH record,
/// stripped by the determinism tests and skipped by bench diffing.
std::uint64_t peak_rss_bytes() {
#if defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    return static_cast<std::uint64_t>(usage.ru_maxrss);
  }
#elif defined(__unix__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
  }
#endif
  return 0;
}

/// Raw CLI values are strings; type them in the record (bare flag ->
/// true, numeric text -> number) so params diff cleanly across PRs and
/// match the numeric sweep params inside series entries.
std::string join_comma(const std::set<std::string>& names) {
  std::string joined;
  for (const auto& name : names) {
    if (!joined.empty()) joined += ",";
    joined += name;
  }
  return joined;
}

JsonValue typed_param(const std::string& value) {
  if (value.empty()) return JsonValue(true);
  errno = 0;
  char* end = nullptr;
  if (value[0] != '-' && value[0] != '+') {
    const unsigned long long u = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() + value.size() && errno != ERANGE) {
      return JsonValue(u);
    }
  }
  errno = 0;
  const double d = std::strtod(value.c_str(), &end);
  if (end == value.c_str() + value.size() && errno != ERANGE) {
    return JsonValue(d);
  }
  return JsonValue(value);
}

}  // namespace

void ExperimentContext::record(
    const std::string& series,
    std::initializer_list<std::pair<const char*, JsonValue>> params,
    std::span<const double> samples) {
  PC_EXPECTS(!series.empty());
  PC_EXPECTS(!samples.empty());
  JsonValue entry = JsonValue::object();
  entry["name"] = series;
  JsonValue param_obj = JsonValue::object();
  for (const auto& [key, value] : params) param_obj[key] = value;
  entry["params"] = std::move(param_obj);
  JsonValue sample_array = JsonValue::array();
  Welford acc;
  for (const double s : samples) {
    sample_array.push_back(s);
    acc.add(s);
  }
  entry["samples"] = std::move(sample_array);
  entry["count"] = acc.count();
  entry["mean"] = acc.mean();
  entry["stddev"] = acc.count() >= 2 ? acc.stddev() : 0.0;
  entry["stderr"] = acc.count() >= 2 ? acc.std_error() : 0.0;
  entry["min"] = acc.min();
  entry["max"] = acc.max();
  series_.push_back(std::move(entry));
}

ExperimentRegistry& ExperimentRegistry::instance() {
  static ExperimentRegistry registry;
  return registry;
}

void ExperimentRegistry::add(Experiment experiment) {
  PC_EXPECTS(!experiment.name.empty());
  PC_EXPECTS(static_cast<bool>(experiment.run));
  PC_EXPECTS(experiments_.count(experiment.name) == 0);
  experiments_.emplace(experiment.name, std::move(experiment));
}

const Experiment* ExperimentRegistry::find(const std::string& name) const {
  const auto it = experiments_.find(name);
  return it == experiments_.end() ? nullptr : &it->second;
}

std::vector<const Experiment*> ExperimentRegistry::list() const {
  std::vector<const Experiment*> out;
  out.reserve(experiments_.size());
  for (const auto& [name, experiment] : experiments_) {
    out.push_back(&experiment);
  }
  return out;  // std::map iteration is already name-sorted
}

JsonValue ExperimentRegistry::run_to_record(const Experiment& experiment,
                                            const Args& args) const {
  ExperimentContext ctx(args, experiment.default_reps);
  // Arm the trace registry for exactly this run: fresh sinks, the
  // requested mode gating every hot path. Executor workers are parked
  // between runs, so configure/drain happen with the instrumented
  // threads quiescent.
  trace::Registry::instance().configure(ctx.trace_spec);

  const auto start = std::chrono::steady_clock::now();
  const int exit_code = experiment.run(ctx);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // Drain the trace: merge every sink's aggregates, fold the summary
  // into the record (below), and append the contention series the
  // bench trajectory gates. The queue-depth quantiles are trajectory
  // properties (deterministic for a fixed seed/shards), so they ride
  // the strict --series-z gate; wait fractions and steal counts are
  // schedule properties and are skip-listed in tools/bench_diff.py.
  const trace::TraceSummary tsum = trace::Registry::instance().summarize();
  if (tsum.depth_samples > 0) {
    const double p50[] = {static_cast<double>(tsum.depth_p50)};
    const double p99[] = {static_cast<double>(tsum.depth_p99)};
    ctx.record("trace_queue_depth_p50", {{"source", "trace"}}, p50);
    ctx.record("trace_queue_depth_p99", {{"source", "trace"}}, p99);
  }
  if (tsum.barrier_wait_count > 0) {
    const double frac[] = {tsum.barrier_wait_frac()};
    ctx.record("trace_barrier_wait_frac", {{"source", "trace"}}, frac);
  }
  if (tsum.steal_count > 0) {
    const double steals[] = {static_cast<double>(tsum.steal_count)};
    ctx.record("trace_steal_count", {{"source", "trace"}}, steals);
  }
  if (ctx.trace_spec.mode == trace::Mode::kTimeline) {
    trace::Registry::instance().write_timeline(ctx.trace_spec.path);
  }

  JsonValue record = JsonValue::object();
  record["schema_version"] = 1;
  record["experiment"] = experiment.name;
  record["description"] = experiment.description;

  JsonValue params = JsonValue::object();
  params["seed"] = ctx.master_seed;
  params["reps"] = ctx.reps;
  // Explicit --latency/--latency-mean/--latency-shape flags reach the
  // record through the raw-args echo below; the resolved shape default
  // is only interesting when a model was requested by kind.
  if (args.has_flag("latency")) {
    params["latency-shape"] = ctx.latency.shape;
  }
  // Same policy for the graph axis: when a topology was requested by
  // kind, echo the resolved family parameters (not just the explicitly
  // passed ones) so the record is replayable without knowing the
  // defaults of this build.
  if (args.has_flag("graph")) {
    switch (ctx.graph.kind) {
      case GraphKind::kErdosRenyi:
        params["graph-p"] = ctx.graph.er_p;
        break;
      case GraphKind::kRandomRegular:
        params["graph-degree"] = ctx.graph.degree;
        break;
      case GraphKind::kSbm:
        params["graph-blocks"] = ctx.graph.blocks;
        params["graph-pin"] = ctx.graph.p_in;
        params["graph-pout"] = ctx.graph.p_out;
        break;
      default:
        break;
    }
  }
  for (const auto& [key, value] : args.raw()) {
    if (!params.has(key) && !is_plumbing_key(key)) {
      params[key] = typed_param(value);
    }
  }
  // Resolved parameters the experiment body noted (crash fractions,
  // injection horizons, ...): defaults the raw-args echo cannot see.
  // Explicitly passed flags above win on key collision — what the user
  // typed outranks what the body reports it resolved to.
  for (const auto& [key, value] : ctx.noted_params()) {
    if (!params.has(key)) params[key] = value;
  }
  // The engines that actually ran, so the record stays truthful even
  // when it differs from the requested --engine= (see
  // note_effective_engine).
  const auto engines = ctx.effective_engines();
  if (!engines.empty()) params["engine_effective"] = join_comma(engines);
  // The resolved worker count, in *every* record: --shards=0 picks the
  // host's core count, sharded trajectories are keyed on it, and a
  // baseline recorded on a 64-core box must be distinguishable from
  // one recorded on a laptop even for experiments that happened to run
  // single-stream engines this time.
  params["shards_effective"] = ctx.shards;
  // The resolved --jobs= thread cap, in *every* record: by the
  // determinism contract it never changes a trajectory, but a wall
  // clock recorded at --jobs=64 must be distinguishable from one
  // recorded serially.
  params["jobs_effective"] = ctx.jobs;
  // The --numa= mode that ran, in *every* record, for the same reason:
  // placement is trajectory-neutral plumbing, but a wall clock measured
  // under first-touch/bind placement must be distinguishable from one
  // measured without it. Only the sharded engine places memory or pins
  // workers, so a record whose runs never reached it says off.
  params["numa_effective"] = numa_mode_name(
      engines.count(engine_kind_name(EngineKind::kSharded)) > 0
          ? ctx.tuning.numa
          : NumaMode::kOff);
  // The per-node memory footprint of the largest run (resolved color
  // width + support counters + engine copies + CSR share), when any run
  // noted its state: deterministic for a fixed invocation, and the
  // acceptance handle for the packed-width claim (a 1e8-node voter run
  // must report bytes_per_node <= 6).
  if (const double bpn = ctx.bytes_per_node(); bpn > 0.0) {
    params["bytes_per_node"] = bpn;
  }
  // Peak RSS, in *every* record: the observed counterpart of
  // bytes_per_node. A host/schedule property like wall_clock_seconds —
  // stripped by the determinism tests, never diffed.
  params["peak_rss_bytes"] = peak_rss_bytes();
  // The latency models that actually drove runs (mirroring
  // engine_effective): most experiments ignore --latency, and a record
  // claiming a model its samples never used would misattribute them.
  if (const auto latencies = ctx.effective_latencies();
      !latencies.empty()) {
    params["latency_effective"] = join_comma(latencies);
  }
  // The placements that actually produced workloads (mirroring
  // engine_effective): a community-aligned request can fall back to
  // uniform on a topology without communities, and records must not
  // claim an adversarial start their samples never had.
  if (const auto placements = ctx.effective_placements();
      !placements.empty()) {
    params["placement_effective"] = join_comma(placements);
  }
  // The topology families actually built (same policy): clique-pinned
  // experiments echo a --graph= request like any unconsumed override,
  // and the absence of graph_effective is what says it was ignored.
  if (const auto graphs = ctx.effective_graphs(); !graphs.empty()) {
    params["graph_effective"] = join_comma(graphs);
  }
  // The perturbation kinds that actually drained events, in *every*
  // record: "none" is a positive assertion that the samples ran
  // unperturbed, so robustness baselines and perturbed runs are
  // distinguishable without knowing which flags the invocation passed.
  const auto perturbs = ctx.effective_perturbs();
  params["perturb_effective"] =
      perturbs.empty() ? std::string("none") : join_comma(perturbs);
  record["params"] = std::move(params);

  record["series"] = ctx.take_series();

  // The contention summary, in *every* record: like wall_clock_seconds
  // it documents the schedule, not the trajectory, so diff tooling and
  // determinism tests treat it as non-trajectory metadata.
  JsonValue trace_obj = JsonValue::object();
  trace_obj["mode"] = trace::mode_name(ctx.trace_spec.mode);
  trace_obj["barrier_wait_frac"] = tsum.barrier_wait_frac();
  trace_obj["barrier_wait_ns"] = tsum.barrier_wait_ns;
  trace_obj["barrier_wait_count"] = tsum.barrier_wait_count;
  trace_obj["work_ns"] = tsum.work_ns;
  trace_obj["ticks"] = tsum.ticks;
  trace_obj["queue_drained"] = tsum.queue_drained;
  trace_obj["queue_depth_p50"] = tsum.depth_p50;
  trace_obj["queue_depth_p99"] = tsum.depth_p99;
  trace_obj["queue_depth_max"] = tsum.depth_max;
  trace_obj["queue_depth_samples"] = tsum.depth_samples;
  trace_obj["steal_count"] = tsum.steal_count;
  trace_obj["park_count"] = tsum.park_count;
  trace_obj["park_ns"] = tsum.park_ns;
  trace_obj["events_recorded"] = tsum.events_recorded;
  trace_obj["trace_dropped"] = tsum.dropped;
  record["trace"] = std::move(trace_obj);

  record["exit_code"] = exit_code;
  record["wall_clock_seconds"] = wall_seconds;
  return record;
}

ExperimentRegistrar::ExperimentRegistrar(
    std::string name, std::string description, std::string describe,
    std::uint64_t default_reps, std::function<int(ExperimentContext&)> run) {
  ExperimentRegistry::instance().add(
      Experiment{std::move(name), std::move(description),
                 std::move(describe), default_reps, std::move(run)});
}

}  // namespace plurality
