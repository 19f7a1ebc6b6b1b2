// Tests for the experiment registry and JSON record pipeline: the
// JsonValue build/parse/dump round-trip, registrar bookkeeping, and an
// end-to-end run of both a toy experiment and a real registered
// experiment through ExperimentRegistry::run_to_record, validating that
// the emitted JSON parses and carries the expected keys, and the
// bench::run dispatch: every engine runs, and every flag combination a
// protocol cannot honor is rejected with a message naming the flags.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/async_one_extra_bit.hpp"
#include "core/two_choices.hpp"
#include "core/voter.hpp"
#include "experiment/args.hpp"
#include "experiment/json_writer.hpp"
#include "experiment/registry.hpp"
#include "graph/complete.hpp"
#include "opinion/assignment.hpp"
#include "run_plan.hpp"
#include "sim/latency.hpp"
#include "support/assert.hpp"

namespace plurality {
namespace {

Args make_args(std::initializer_list<const char*> argv_tail) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), argv_tail.begin(), argv_tail.end());
  return Args(static_cast<int>(argv.size()), argv.data());
}

// ---- JsonValue -------------------------------------------------------

TEST(JsonValue, BuildsAndDumpsScalars) {
  EXPECT_EQ(JsonValue().dump(), "null");
  EXPECT_EQ(JsonValue(true).dump(), "true");
  EXPECT_EQ(JsonValue(42).dump(), "42");
  EXPECT_EQ(JsonValue(-7).dump(), "-7");
  EXPECT_EQ(JsonValue(std::uint64_t{18446744073709551615ull}).dump(),
            "18446744073709551615");
  EXPECT_EQ(JsonValue(1.5).dump(), "1.5");
  EXPECT_EQ(JsonValue("hi").dump(), "\"hi\"");
}

TEST(JsonValue, EscapesStrings) {
  EXPECT_EQ(JsonValue("a\"b\\c\nd").dump(), "\"a\\\"b\\\\c\\nd\"");
}

TEST(JsonValue, ObjectPreservesInsertionOrder) {
  JsonValue obj = JsonValue::object();
  obj["zeta"] = 1;
  obj["alpha"] = 2;
  EXPECT_EQ(obj.dump(-1), "{\"zeta\":1,\"alpha\":2}");
}

TEST(JsonValue, ParsesRoundTrip) {
  const std::string text =
      R"({"name": "exp", "samples": [1, 2.5, -3e2], "ok": true,)"
      R"( "nested": {"k": [null, "sA"]}})";
  const JsonValue v = JsonValue::parse(text);
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("name")->as_string(), "exp");
  ASSERT_TRUE(v.find("samples")->is_array());
  EXPECT_EQ(v.find("samples")->size(), 3u);
  EXPECT_DOUBLE_EQ(v.find("samples")->at(2).as_double(), -300.0);
  EXPECT_TRUE(v.find("ok")->as_bool());
  EXPECT_EQ(v.find("nested")->find("k")->at(1).as_string(), "sA");

  // dump -> parse -> dump is a fixed point.
  const std::string dumped = v.dump();
  EXPECT_EQ(JsonValue::parse(dumped).dump(), dumped);
}

TEST(JsonValue, ParseRejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse(""), JsonParseError);
  EXPECT_THROW(JsonValue::parse("{"), JsonParseError);
  EXPECT_THROW(JsonValue::parse("[1,]"), JsonParseError);
  EXPECT_THROW(JsonValue::parse("{\"a\":1} trailing"), JsonParseError);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), JsonParseError);
  EXPECT_THROW(JsonValue::parse("nul"), JsonParseError);
  EXPECT_THROW(JsonValue::parse("1.2.3"), JsonParseError);
}

TEST(JsonValue, IntegersSurviveRoundTripExactly) {
  const std::uint64_t big = 0xDEADBEEFCAFEBABEull;
  JsonValue v = JsonValue::object();
  v["seed"] = big;
  EXPECT_EQ(JsonValue::parse(v.dump()).find("seed")->as_u64(), big);
}

// ---- registry --------------------------------------------------------

int toy_experiment(ExperimentContext& ctx) {
  std::vector<double> samples;
  for (std::uint64_t rep = 0; rep < ctx.reps; ++rep) {
    samples.push_back(static_cast<double>(rep + 1));
  }
  ctx.record("toy_series", {{"n", 128}, {"label", "unit"}}, samples);
  return 0;
}

// Registered at static-init time, exactly like the bench/ experiments.
const ExperimentRegistrar kToyRegistrar{
    "test_toy", "toy experiment used by the registry unit tests",
    "Catalog paragraph of the toy experiment: records one fixed series "
    "so the registry tests can assert on the record schema.",
    /*default_reps=*/4, toy_experiment};

TEST(Registry, RegistrarMakesExperimentDiscoverable) {
  const auto& registry = ExperimentRegistry::instance();
  const Experiment* toy = registry.find("test_toy");
  ASSERT_NE(toy, nullptr);
  EXPECT_EQ(toy->default_reps, 4u);
  EXPECT_EQ(registry.find("no_such_experiment"), nullptr);

  // list() is name-sorted and contains the toy experiment.
  const auto all = registry.list();
  EXPECT_GE(all.size(), 1u);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1]->name, all[i]->name);
  }
}

TEST(Registry, RejectsDuplicateAndMalformedRegistrations) {
  auto& registry = ExperimentRegistry::instance();
  EXPECT_THROW(
      registry.add(Experiment{"test_toy", "dup", "", 1, toy_experiment}),
      ContractViolation);
  EXPECT_THROW(
      registry.add(Experiment{"", "anon", "", 1, toy_experiment}),
      ContractViolation);
  EXPECT_THROW(
      registry.add(Experiment{"test_norun", "no body", "", 1, nullptr}),
      ContractViolation);
}

TEST(Registry, ExperimentsCarryCatalogDescribe) {
  // The generated docs/EXPERIMENTS.md is only useful if every
  // registered experiment ships a catalog paragraph.
  for (const Experiment* e : ExperimentRegistry::instance().list()) {
    EXPECT_FALSE(e->describe.empty())
        << "experiment '" << e->name << "' has no describe() paragraph";
  }
}

TEST(Registry, RunToRecordEmitsSchemaValidJson) {
  const auto& registry = ExperimentRegistry::instance();
  const Experiment* toy = registry.find("test_toy");
  ASSERT_NE(toy, nullptr);

  const Args args = make_args({"--reps=3", "--seed=7"});
  const JsonValue record = registry.run_to_record(*toy, args);

  // The record must survive a dump -> parse round trip...
  const JsonValue parsed = JsonValue::parse(record.dump());
  ASSERT_TRUE(parsed.is_object());

  // ...and carry the schema keys.
  for (const char* key :
       {"schema_version", "experiment", "description", "params", "series",
        "exit_code", "wall_clock_seconds"}) {
    EXPECT_TRUE(parsed.has(key)) << "missing key: " << key;
  }
  EXPECT_EQ(parsed.find("experiment")->as_string(), "test_toy");
  EXPECT_EQ(parsed.find("exit_code")->as_u64(), 0u);
  EXPECT_GE(parsed.find("wall_clock_seconds")->as_double(), 0.0);

  // Shared knobs resolve from the CLI. No latency flag was passed and
  // the toy never drives a latency model, so the record carries
  // neither the flags nor a latency_effective claim.
  const JsonValue* params = parsed.find("params");
  ASSERT_TRUE(params->is_object());
  EXPECT_EQ(params->find("seed")->as_u64(), 7u);
  EXPECT_EQ(params->find("reps")->as_u64(), 3u);
  EXPECT_FALSE(params->has("latency"));
  EXPECT_FALSE(params->has("latency_effective"));

  // The recorded series carries raw samples plus Welford aggregates.
  const JsonValue* series = parsed.find("series");
  ASSERT_TRUE(series->is_array());
  ASSERT_EQ(series->size(), 1u);
  const JsonValue& entry = series->at(0);
  EXPECT_EQ(entry.find("name")->as_string(), "toy_series");
  EXPECT_EQ(entry.find("params")->find("n")->as_u64(), 128u);
  EXPECT_EQ(entry.find("params")->find("label")->as_string(), "unit");
  ASSERT_EQ(entry.find("samples")->size(), 3u);  // samples 1, 2, 3
  EXPECT_EQ(entry.find("count")->as_u64(), 3u);
  EXPECT_DOUBLE_EQ(entry.find("mean")->as_double(), 2.0);
  EXPECT_DOUBLE_EQ(entry.find("stddev")->as_double(), 1.0);
  EXPECT_DOUBLE_EQ(entry.find("stderr")->as_double(), 1.0 / std::sqrt(3.0));
  EXPECT_DOUBLE_EQ(entry.find("min")->as_double(), 1.0);
  EXPECT_DOUBLE_EQ(entry.find("max")->as_double(), 3.0);
}

// A toy that drives a latency model, so tests can assert on the
// latency_effective attribution.
int latency_toy_experiment(ExperimentContext& ctx) {
  const auto model = ctx.latency.make();
  ctx.note_effective("latency", model->name());
  std::vector<double> samples(ctx.reps, 1.0);
  ctx.record("latency_toy_series", {{"n", 1}}, samples);
  return 0;
}

const ExperimentRegistrar kLatencyToyRegistrar{
    "test_toy_latency", "latency-consuming toy for the registry tests",
    "Catalog paragraph of the latency toy: mints the requested latency "
    "model and notes it, so tests can assert on latency_effective.",
    /*default_reps=*/2, latency_toy_experiment};

TEST(Registry, RecordsResolvedLatencyModel) {
  const auto& registry = ExperimentRegistry::instance();
  const Experiment* toy = registry.find("test_toy");
  const Experiment* latency_toy = registry.find("test_toy_latency");
  ASSERT_NE(toy, nullptr);
  ASSERT_NE(latency_toy, nullptr);

  // Explicit flags reach params via the raw-args echo plus the
  // resolved per-family shape default; the model is only *attributed*
  // (latency_effective) when the experiment actually drives it.
  const Args args = make_args({"--latency=pareto", "--latency-mean=0.5"});
  const JsonValue record = registry.run_to_record(*latency_toy, args);
  const JsonValue* params = record.find("params");
  ASSERT_NE(params, nullptr);
  EXPECT_EQ(params->find("latency")->as_string(), "pareto");
  EXPECT_DOUBLE_EQ(params->find("latency-mean")->as_double(), 0.5);
  EXPECT_DOUBLE_EQ(params->find("latency-shape")->as_double(), 2.5);
  EXPECT_EQ(params->find("latency_effective")->as_string(), "pareto");

  // The plain toy ignores --latency: the flags are still echoed (like
  // any unconsumed override) but no model is claimed as effective.
  const JsonValue ignored = registry.run_to_record(*toy, args);
  const JsonValue* toy_params = ignored.find("params");
  ASSERT_NE(toy_params, nullptr);
  EXPECT_EQ(toy_params->find("latency")->as_string(), "pareto");
  EXPECT_FALSE(toy_params->has("latency_effective"));

  // Malformed triples die at context construction, on the main thread,
  // with the flag names in the message.
  EXPECT_THROW(registry.run_to_record(
                   *toy, make_args({"--latency=uniform"})),
               ContractViolation);
  EXPECT_THROW(registry.run_to_record(
                   *toy, make_args({"--latency=exp", "--latency-mean=0"})),
               ContractViolation);
  try {
    registry.run_to_record(
        *toy, make_args({"--latency=pareto", "--latency-shape=1.0"}));
    FAIL() << "invalid shape must throw";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("--latency"), std::string::npos);
  }
}

TEST(Registry, RejectsInvalidScenarioFlags) {
  // The scenario axes (--graph*, --placement*) are validated at context
  // construction, on the main thread, with the flag names in the
  // message — unknown names and out-of-range rates must never silently
  // run the default scenario under an adversarial-sounding label.
  const auto& registry = ExperimentRegistry::instance();
  const Experiment* toy = registry.find("test_toy");
  ASSERT_NE(toy, nullptr);

  EXPECT_THROW(
      registry.run_to_record(*toy, make_args({"--graph=smallworld"})),
      ContractViolation);
  EXPECT_THROW(registry.run_to_record(
                   *toy, make_args({"--graph=sbm", "--graph-pin=0"})),
               ContractViolation);
  EXPECT_THROW(registry.run_to_record(
                   *toy, make_args({"--graph=sbm", "--graph-pout=1.5"})),
               ContractViolation);
  EXPECT_THROW(
      registry.run_to_record(*toy, make_args({"--placement=shuffle"})),
      ContractViolation);
  EXPECT_THROW(registry.run_to_record(
                   *toy, make_args({"--placement=community",
                                    "--placement-fraction=2"})),
               ContractViolation);
  try {
    registry.run_to_record(*toy, make_args({"--graph=sbm",
                                            "--graph-pin=1.5"}));
    FAIL() << "invalid p_in must throw";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("--graph-pin"), std::string::npos)
        << e.what();
  }

  // Valid specs resolve into the context and (for a requested kind) the
  // resolved family parameters land in the record.
  const JsonValue record = registry.run_to_record(
      *toy, make_args({"--graph=sbm", "--graph-blocks=8"}));
  const JsonValue* params = record.find("params");
  ASSERT_NE(params, nullptr);
  EXPECT_EQ(params->find("graph")->as_string(), "sbm");
  EXPECT_EQ(params->find("graph-blocks")->as_u64(), 8u);
  EXPECT_DOUBLE_EQ(params->find("graph-pin")->as_double(), 0.3);
  EXPECT_DOUBLE_EQ(params->find("graph-pout")->as_double(), 0.01);
  // The toy never places a workload or builds a topology, so neither
  // axis is claimed as effective: the flag echo records the request,
  // the missing *_effective keys record that it was ignored.
  EXPECT_FALSE(params->has("placement_effective"));
  EXPECT_FALSE(params->has("graph_effective"));

  // A 2^32-wrapping degree must throw, not silently run d=8.
  EXPECT_THROW(registry.run_to_record(
                   *toy, make_args({"--graph=regular",
                                    "--graph-degree=4294967304"})),
               ContractViolation);
}

TEST(TuningContext, ParsesFlagsAndRejectsSampling) {
  // Every engine has one node-draw path and the sharded engine one
  // allocation path, so any --sampling= or --numa= value is rejected
  // naming the flag rather than echoed into the record.
  for (const char* flag : {"--sampling=batch", "--sampling=scalar",
                           "--numa=off", "--numa=firsttouch"}) {
    try {
      const ExperimentContext ctx(make_args({flag}), 1);
      FAIL() << flag << " must throw";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos);
    }
  }
}

TEST(TuningContext, RejectsExactReadsNamingTheOneShardEngine) {
  // The sharded engine at one shard runs the exact process, so the old
  // exact-replay flag is rejected with a pointer to it, never ignored.
  try {
    const ExperimentContext ctx(make_args({"--exact-reads"}), 1);
    FAIL() << "--exact-reads must throw";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--exact-reads"), std::string::npos) << what;
    EXPECT_NE(what.find("--shards=1"), std::string::npos) << what;
  }
}

// A toy that drives AsyncOneExtraBit through bench::run, so tests can
// assert on the bytes_per_node the dispatch attributes to it.
constexpr std::uint64_t kFootprintNodes = 1024;

AsyncOneExtraBit<CompleteGraph> footprint_protocol(const CompleteGraph& g,
                                                   Xoshiro256& rng) {
  return AsyncOneExtraBit<CompleteGraph>::make(
      g, assign_plurality_bias(kFootprintNodes, 4, kFootprintNodes / 8, rng));
}

int footprint_toy_experiment(ExperimentContext& ctx) {
  const bench::RunPlan plan =
      bench::make_plan(ctx, EngineKind::kSuperposition);
  const CompleteGraph g(kFootprintNodes);
  Xoshiro256 rng(ctx.master_seed);
  auto proto = footprint_protocol(g, rng);
  const AsyncRunResult result = bench::run(plan, proto, rng, 2.0);
  const std::vector<double> ticks{static_cast<double>(result.ticks)};
  ctx.record("footprint_toy_ticks", {{"n", kFootprintNodes}}, ticks);
  return 0;
}

const ExperimentRegistrar kFootprintToyRegistrar{
    "test_toy_footprint", "async OneExtraBit toy for the registry tests",
    "Catalog paragraph of the footprint toy: runs one short async "
    "OneExtraBit run through bench::run, so tests can assert on the "
    "bytes_per_node it attributes.",
    /*default_reps=*/1, footprint_toy_experiment};

TEST(Registry, BytesPerNodeUsesTheProtocolsOwnFootprint) {
  // The table alone is about 1 B/node here; the protocol's node records,
  // gadget slots and program are most of its state, and the record must
  // say so.
  const auto& registry = ExperimentRegistry::instance();
  const Experiment* toy = registry.find("test_toy_footprint");
  ASSERT_NE(toy, nullptr);
  const JsonValue record = registry.run_to_record(*toy, make_args({}));
  const JsonValue* bytes = record.find("params")->find("bytes_per_node");
  ASSERT_NE(bytes, nullptr);

  const CompleteGraph g(kFootprintNodes);
  Xoshiro256 rng(1);
  const auto proto = footprint_protocol(g, rng);
  EXPECT_DOUBLE_EQ(bytes->as_double(), proto.state_bytes_per_node());
  EXPECT_GT(bytes->as_double(), 10.0 * proto.table().state_bytes_per_node());
}

// A toy that runs a shardable protocol through bench::run, so tests can
// assert on what the record says the engine executed.
int voter_toy_experiment(ExperimentContext& ctx) {
  const bench::RunPlan plan =
      bench::make_plan(ctx, EngineKind::kSuperposition);
  constexpr std::uint64_t kNodes = 256;
  const CompleteGraph g(kNodes);
  Xoshiro256 rng(ctx.master_seed);
  VoterAsync proto(g, assign_two_colors(kNodes, kNodes / 2, rng));
  const AsyncRunResult result = bench::run(plan, proto, rng, 2.0);
  const std::vector<double> ticks{static_cast<double>(result.ticks)};
  ctx.record("voter_toy_ticks", {{"n", kNodes}}, ticks);
  return 0;
}

const ExperimentRegistrar kVoterToyRegistrar{
    "test_toy_voter", "shardable voter toy for the registry tests",
    "Catalog paragraph of the voter toy: runs one short voter run "
    "through bench::run on the requested engine, so tests can assert on "
    "the modes the record attributes to it.",
    /*default_reps=*/1, voter_toy_experiment};

TEST(Registry, DispatchRunsEveryEngine) {
  const auto& registry = ExperimentRegistry::instance();
  const Experiment* toy = registry.find("test_toy_voter");
  ASSERT_NE(toy, nullptr);
  for (const char* engine :
       {"sequential", "superposition", "sharded"}) {
    const std::string flag = std::string("--engine=") + engine;
    const JsonValue record = registry.run_to_record(
        *toy, make_args({flag.c_str(), "--shards=2"}));
    EXPECT_EQ(record.find("exit_code")->as_u64(), 0u) << engine;
    const JsonValue& params = *record.find("params");
    EXPECT_EQ(params.find("engine_effective")->as_string(), engine);
    // No record names a memory-placement mode, sharded ones included.
    EXPECT_EQ(params.dump(-1).find("numa"), std::string::npos) << engine;
  }
}

// A toy that runs blocking Two-Choices under constant latency on the
// queued body through bench::run_queued.
int queued_toy_experiment(ExperimentContext& ctx) {
  const bench::RunPlan plan = bench::make_plan(ctx, EngineKind::kSharded);
  constexpr std::uint64_t kNodes = 256;
  const CompleteGraph g(kNodes);
  Xoshiro256 rng(ctx.master_seed);
  TwoChoicesAsync proto(g, assign_two_colors(kNodes, 192, rng));
  const ConstantLatency latency(0.5);
  const AsyncRunResult result = bench::run_queued(
      plan, proto, latency, QueryDiscipline::kBlocking, rng, 2.0);
  const std::vector<double> ticks{static_cast<double>(result.ticks)};
  ctx.record("queued_toy_ticks", {{"n", kNodes}}, ticks);
  return 0;
}

const ExperimentRegistrar kQueuedToyRegistrar{
    "test_toy_queued", "queued-body toy for the registry tests",
    "Catalog paragraph of the queued toy: runs one short blocking "
    "Two-Choices run under constant latency through bench::run_queued, "
    "so tests can assert on its attribution.",
    /*default_reps=*/1, queued_toy_experiment};

/// The message of the ContractViolation the named experiment throws
/// under `args`; fails the test when it runs instead.
std::string rejection(const char* name, const Args& args) {
  const auto& registry = ExperimentRegistry::instance();
  const Experiment* experiment = registry.find(name);
  EXPECT_NE(experiment, nullptr) << name;
  if (experiment == nullptr) return "";
  try {
    registry.run_to_record(*experiment, args);
  } catch (const ContractViolation& e) {
    return e.what();
  }
  ADD_FAILURE() << name << " ran instead of rejecting its flags";
  return "";
}

bool mentions(const std::string& what, const char* text) {
  return what.find(text) != std::string::npos;
}

TEST(Registry, RejectsShardedEngineForNonShardableProtocol) {
  // AsyncOneExtraBit has no sample()/decide() split: it cannot shard,
  // and must not quietly run on superposition instead.
  const std::string what =
      rejection("test_toy_footprint", make_args({"--engine=sharded"}));
  EXPECT_TRUE(mentions(what, "--engine=sharded")) << what;
  EXPECT_TRUE(mentions(what, "sample()/decide()")) << what;
}

TEST(Registry, RejectsLatencyForProtocolWithoutQueryApplySplit) {
  const std::string what =
      rejection("test_toy_footprint", make_args({"--latency=exp"}));
  EXPECT_TRUE(mentions(what, "--latency=exp")) << what;
  EXPECT_TRUE(mentions(what, "query/apply split")) << what;
}

TEST(Registry, RejectsSingleStreamEngineWithLatency) {
  // Response latency runs only on the sharded delivery queues, so an
  // explicit single-stream engine cannot honor it.
  const std::string what = rejection(
      "test_toy_voter",
      make_args({"--engine=superposition", "--latency=exp"}));
  EXPECT_TRUE(mentions(what, "--engine=superposition")) << what;
  EXPECT_TRUE(mentions(what, "--latency=exp")) << what;
}

TEST(Registry, RejectsTheRetiredHeapEngineNamingSuperposition) {
  // The continuous clocks have one tick source: --engine=heap is an
  // error that points at the engine running the same process.
  const std::string what =
      rejection("test_toy_voter", make_args({"--engine=heap"}));
  EXPECT_TRUE(mentions(what, "--engine=heap")) << what;
  EXPECT_TRUE(mentions(what, "--engine=superposition")) << what;
}

TEST(Registry, LatencyUnderTheDefaultEngineRunsOnTheShardedQueues) {
  const auto& registry = ExperimentRegistry::instance();
  const Experiment* toy = registry.find("test_toy_voter");
  ASSERT_NE(toy, nullptr);
  const JsonValue record = registry.run_to_record(
      *toy, make_args({"--latency=exp", "--shards=2"}));
  const JsonValue* params = record.find("params");
  EXPECT_EQ(params->find("engine_effective")->as_string(), "sharded");
  EXPECT_EQ(params->find("latency_effective")->as_string(), "exp");
}

TEST(Registry, QueuedRunNotesItsStateFootprint) {
  // A blocking queued run attributes the table's packed colors and
  // supports, the snapshot, and the answer slots: a state byte plus an
  // 8-byte due time and the two sampled colors at the table's width.
  const auto& registry = ExperimentRegistry::instance();
  const JsonValue record = registry.run_to_record(
      *registry.find("test_toy_queued"), make_args({"--shards=2"}));
  const JsonValue* params = record.find("params");
  EXPECT_EQ(params->find("engine_effective")->as_string(), "sharded");
  EXPECT_EQ(params->find("latency_effective")->as_string(), "const");
  const JsonValue* bytes = params->find("bytes_per_node");
  ASSERT_NE(bytes, nullptr);

  constexpr std::uint64_t kNodes = 256;
  const CompleteGraph g(kNodes);
  Xoshiro256 rng(1);
  TwoChoicesAsync proto(g, assign_two_colors(kNodes, 192, rng));
  ASSERT_EQ(proto.table().width(), ColorWidth::kU8);
  EXPECT_DOUBLE_EQ(bytes->as_double(),
                   proto.table().state_bytes_per_node() + 1.0 + 11.0);
}

TEST(Registry, ResponseDelaysRunsOnOneShardOfTheQueuedBody) {
  const auto& registry = ExperimentRegistry::instance();
  const JsonValue record = registry.run_to_record(
      *registry.find("response_delays"),
      make_args({"--reps=1", "--n=128", "--csv"}));
  const JsonValue* params = record.find("params");
  EXPECT_EQ(record.find("exit_code")->as_u64(), 0u);
  EXPECT_EQ(params->find("engine_effective")->as_string(), "sharded");
  EXPECT_EQ(params->find("shards_effective")->as_u64(), 1u);
}

TEST(Registry, ResponseDelaysRejectsShardsNamingOneShard) {
  // Its steps read peers' records, which only one shard keeps live.
  const std::string what = rejection(
      "response_delays", make_args({"--shards=4", "--reps=1", "--n=128"}));
  EXPECT_TRUE(mentions(what, "--shards=4")) << what;
  EXPECT_TRUE(mentions(what, "--shards=1")) << what;
}

TEST(Registry, RejectsThreadsNamingJobs) {
  // --jobs= is the one concurrency knob.
  const std::string what =
      rejection("test_toy", make_args({"--threads=2"}));
  EXPECT_TRUE(mentions(what, "--threads=2")) << what;
  EXPECT_TRUE(mentions(what, "--jobs=")) << what;

  // And a default record carries no threads param.
  const auto& registry = ExperimentRegistry::instance();
  const JsonValue record =
      registry.run_to_record(*registry.find("test_toy"), make_args({}));
  EXPECT_FALSE(record.find("params")->has("threads"));
}

TEST(Registry, CrashFaultsRejectsPerturbFlagsItWouldIgnore) {
  // B2 draws its own crash stream, so any other --perturb* flag (and
  // the retired --crash_tick=) is an error naming the flag, not a
  // record claiming a run it never made.
  for (const char* flag :
       {"--perturb=inject", "--perturb-rate=2", "--perturb-budget=5",
        "--perturb-target=hub", "--perturb-interval=2",
        "--crash_tick=10"}) {
    const std::string what = rejection(
        "crash_faults", make_args({flag, "--reps=1", "--n=256", "--csv"}));
    EXPECT_TRUE(mentions(what, flag)) << flag << ": " << what;
  }
}

TEST(Registry, CrashFaultsRejectsShardedEngineBeforeAnyCell) {
  // The phased protocol cannot shard, so B2 rejects --engine=sharded up
  // front: the rejection names the flag, and nothing ran or printed
  // (the banner, every cell and the table come after the check).
  ::testing::internal::CaptureStdout();
  const std::string what =
      rejection("crash_faults",
                make_args({"--engine=sharded", "--reps=1", "--n=256"}));
  const std::string printed = ::testing::internal::GetCapturedStdout();
  EXPECT_TRUE(mentions(what, "--engine=sharded")) << what;
  EXPECT_TRUE(printed.empty()) << printed;
}

TEST(Registry, EndToEndRealExperimentProducesValidRecord) {
  // This test links the experiment object library, so the 17 migrated
  // bench experiments are registered here too. Run a real one, small.
  const auto& registry = ExperimentRegistry::instance();
  EXPECT_GE(registry.size(), 16u);
  const Experiment* experiment = registry.find("quadratic_growth");
  ASSERT_NE(experiment, nullptr);

  // --csv keeps the test log compact; tiny n and reps keep it fast.
  const Args args = make_args({"--reps=2", "--n=2048", "--csv"});
  ::testing::internal::CaptureStdout();
  const JsonValue record = registry.run_to_record(*experiment, args);
  const std::string stdout_text = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(stdout_text.find("initial_ratio"), std::string::npos);

  const JsonValue parsed = JsonValue::parse(record.dump());
  EXPECT_EQ(parsed.find("experiment")->as_string(), "quadratic_growth");
  EXPECT_EQ(parsed.find("exit_code")->as_u64(), 0u);
  EXPECT_EQ(parsed.find("params")->find("reps")->as_u64(), 2u);
  const JsonValue* series = parsed.find("series");
  ASSERT_TRUE(series->is_array());
  ASSERT_GT(series->size(), 0u);
  for (std::size_t i = 0; i < series->size(); ++i) {
    const JsonValue& entry = series->at(i);
    // The trace layer's contention series hold one per-run sample, and
    // whether the barrier-wait one appears depends on the schedule.
    if (entry.find("name")->as_string().rfind("trace_", 0) == 0) continue;
    EXPECT_EQ(entry.find("samples")->size(), 2u);
    EXPECT_EQ(entry.find("count")->as_u64(), 2u);
    EXPECT_TRUE(entry.find("mean")->is_number());
    EXPECT_TRUE(entry.find("stderr")->is_number());
  }
}

TEST(Registry, SinglePointSweepSkipsItsGrowthFit) {
  // At --max_n=2048 the n sweep has one point, which a regression fit
  // cannot take; the experiment must still run and record its series.
  const auto& registry = ExperimentRegistry::instance();
  const Experiment* experiment = registry.find("endgame");
  ASSERT_NE(experiment, nullptr);
  const Args args = make_args({"--reps=2", "--max_n=2048", "--csv"});
  ::testing::internal::CaptureStdout();
  JsonValue record;
  std::string error;
  try {
    record = registry.run_to_record(*experiment, args);
  } catch (const ContractViolation& e) {
    error = e.what();
  }
  ::testing::internal::GetCapturedStdout();
  ASSERT_EQ(error, "");
  EXPECT_EQ(record.find("exit_code")->as_u64(), 0u);
  EXPECT_GT(record.find("series")->size(), 0u);
}

}  // namespace
}  // namespace plurality
