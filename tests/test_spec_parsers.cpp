// Property and round-trip tests for the CLI spec parsers — the
// `--engine=`, `--graph=`, `--latency=`, `--perturb=`,
// `--perturb-target=`, and `--trace=` axes. Three properties, each
// checked exhaustively over the accepted vocabulary and then fuzzed
// with 10k seeded random strings per parser (the CI sanitizer jobs run
// this same binary under ASan/UBSan):
//   1. round-trip: every accepted value re-parses to an equal spec
//      (parse(name(k)) == k, and alias forms resolve as documented);
//   2. rejection names the flag: every rejected string throws
//      ContractViolation whose message contains the flag, so a user
//      can tell *which* axis of a long command line was malformed;
//   3. totality: a parser either returns a valid spec or throws
//      ContractViolation — no crash, no other exception type — for
//      arbitrary byte strings.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "experiment/registry.hpp"
#include "graph/factory.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro256.hpp"
#include "sim/latency.hpp"
#include "sim/perturb.hpp"
#include "support/assert.hpp"
#include "trace/trace.hpp"

namespace plurality {
namespace {

/// A pseudo-random byte string: printable ASCII plus a sprinkling of
/// high bytes, length 0..23 — enough to hit empty strings, keyword
/// prefixes, and plain garbage.
std::string random_string(Xoshiro256& rng) {
  const std::uint64_t len = uniform_below(rng, 24);
  std::string s;
  s.reserve(len);
  for (std::uint64_t i = 0; i < len; ++i) {
    const std::uint64_t roll = uniform_below(rng, 100);
    if (roll < 90) {
      s.push_back(static_cast<char>(32 + uniform_below(rng, 95)));
    } else {
      s.push_back(static_cast<char>(128 + uniform_below(rng, 128)));
    }
  }
  return s;
}

/// Runs `parse` on 10k seeded random strings; every call must either
/// succeed or throw ContractViolation mentioning `flag`.
template <typename Parse>
void fuzz_parser(const char* flag, std::uint64_t seed, Parse&& parse) {
  Xoshiro256 rng(seed);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 10000; ++i) {
    const std::string input = random_string(rng);
    try {
      parse(input);
      ++accepted;
    } catch (const ContractViolation& e) {
      ++rejected;
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
          << flag << " rejection must name the flag; input was '" << input
          << "', message: " << e.what();
    }
    // Any other exception type escapes and fails the test outright.
  }
  EXPECT_EQ(accepted + rejected, 10000);
}

TEST(SpecParsers, EngineRoundTripsAndRejectsNamingTheFlag) {
  for (const EngineKind kind :
       {EngineKind::kSequential, EngineKind::kSuperposition,
        EngineKind::kSharded}) {
    EXPECT_EQ(parse_engine_kind(engine_kind_name(kind)), kind);
  }
  EXPECT_THROW(parse_engine_kind("warp"), ContractViolation);
  try {
    parse_engine_kind("heap");
    ADD_FAILURE() << "--engine=heap was accepted";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--engine=heap"), std::string::npos) << what;
    EXPECT_NE(what.find("--engine=superposition"), std::string::npos)
        << what;
  }
  fuzz_parser("--engine=", 101,
              [](const std::string& s) { parse_engine_kind(s); });
}

TEST(SpecParsers, GraphRoundTripsAndRejectsNamingTheFlag) {
  for (const GraphKind kind :
       {GraphKind::kComplete, GraphKind::kRing, GraphKind::kTorus,
        GraphKind::kErdosRenyi, GraphKind::kRandomRegular,
        GraphKind::kSbm}) {
    EXPECT_EQ(parse_graph_kind(graph_kind_name(kind)), kind);
  }
  EXPECT_THROW(parse_graph_kind("hypercube"), ContractViolation);
  fuzz_parser("--graph=", 202,
              [](const std::string& s) { parse_graph_kind(s); });
}

TEST(SpecParsers, LatencyRoundTripsAndRejectsNamingTheFlag) {
  for (const LatencyKind kind :
       {LatencyKind::kZero, LatencyKind::kConstant,
        LatencyKind::kExponential, LatencyKind::kPareto,
        LatencyKind::kAging}) {
    EXPECT_EQ(parse_latency_kind(latency_kind_name(kind)), kind);
  }
  EXPECT_THROW(parse_latency_kind("uniform"), ContractViolation);
  fuzz_parser("--latency=", 303,
              [](const std::string& s) { parse_latency_kind(s); });
}

TEST(SpecParsers, PerturbRoundTripsAndRejectsNamingTheFlag) {
  for (const PerturbKind kind :
       {PerturbKind::kNone, PerturbKind::kInject, PerturbKind::kCrash,
        PerturbKind::kChurn, PerturbKind::kAdversary}) {
    EXPECT_EQ(parse_perturb_kind(perturb_kind_name(kind)), kind);
  }
  for (const PerturbTarget target :
       {PerturbTarget::kUniform, PerturbTarget::kHub}) {
    EXPECT_EQ(parse_perturb_target(perturb_target_name(target)), target);
  }
  EXPECT_THROW(parse_perturb_kind("meteor"), ContractViolation);
  EXPECT_THROW(parse_perturb_target("leaves"), ContractViolation);
  fuzz_parser("--perturb=", 404,
              [](const std::string& s) { parse_perturb_kind(s); });
  fuzz_parser("--perturb-target=", 505,
              [](const std::string& s) { parse_perturb_target(s); });
}

TEST(SpecParsers, TraceRoundTripsAndRejectsNamingTheFlag) {
  // The keyword forms resolve as documented, aliases included.
  EXPECT_EQ(trace::parse_trace_spec("off").mode, trace::Mode::kOff);
  EXPECT_EQ(trace::parse_trace_spec("none").mode, trace::Mode::kOff);
  EXPECT_EQ(trace::parse_trace_spec("summary").mode,
            trace::Mode::kSummary);
  EXPECT_EQ(trace::parse_trace_spec("on").mode, trace::Mode::kSummary);
  // Canonical names re-parse to an equal spec.
  for (const char* canonical : {"off", "summary"}) {
    const auto spec = trace::parse_trace_spec(canonical);
    EXPECT_STREQ(trace::mode_name(spec.mode), canonical);
    const auto again = trace::parse_trace_spec(trace::mode_name(spec.mode));
    EXPECT_EQ(again.mode, spec.mode);
    EXPECT_EQ(again.path, spec.path);
  }
  // A timeline spec round-trips through its own path.
  const auto timeline = trace::parse_trace_spec("out/run.trace.json");
  EXPECT_EQ(timeline.mode, trace::Mode::kTimeline);
  const auto reparsed = trace::parse_trace_spec(timeline.path);
  EXPECT_EQ(reparsed.mode, timeline.mode);
  EXPECT_EQ(reparsed.path, timeline.path);

  EXPECT_THROW(trace::parse_trace_spec(""), ContractViolation);
  fuzz_parser("--trace=", 606, [](const std::string& s) {
    const auto spec = trace::parse_trace_spec(s);
    // Totality plus the round-trip property on every accepted string:
    // a timeline spec's path is the input itself.
    if (spec.mode == trace::Mode::kTimeline) {
      const auto again = trace::parse_trace_spec(spec.path);
      EXPECT_EQ(again.mode, spec.mode);
      EXPECT_EQ(again.path, spec.path);
    }
  });
}

}  // namespace
}  // namespace plurality
