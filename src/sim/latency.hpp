#pragma once

/// \file latency.hpp
/// Pluggable edge-latency models for the asynchronous engines.
///
/// The source paper's model delivers a contacted peer's response
/// instantaneously; its successor — Bankhamer, Elsässer, Kaaser & Krnc,
/// "Fast Consensus Protocols in the Asynchronous Poisson Clock Model
/// with Edge Latencies" — studies the regime where every response
/// travels for a random time drawn from a latency distribution, and
/// shows that the *shape* of that distribution (not just its mean)
/// decides whether consensus stays fast: distributions with
/// non-decreasing hazard rate ("positive aging") admit fast plurality
/// consensus, while heavy tails slow the endgame down.
///
/// A LatencyModel is a sampler for the response-travel time. Concrete
/// models, all parameterized by their *mean* so experiments compare
/// distributions at matched expected delay:
///
///   - ZeroLatency           the paper's instant-response baseline
///   - ConstantLatency       every response takes exactly `mean`
///   - ExponentialLatency    Exp(1/mean) — constant hazard, the §4
///                           response-delay extension
///   - ParetoLatency         Lomax (Pareto type II), heavy-tailed —
///                           *decreasing* hazard, the adversarial
///                           contrast to positive aging
///   - PositiveAgingLatency  Weibull with shape >= 1 — non-decreasing
///                           hazard, the Bankhamer et al. family
///
/// RNG-stream ownership: a model never owns a generator. The component
/// that schedules deliveries (a shard of the sharded engine's queued
/// body) draws every latency from *its own* stream at the moment the
/// query is issued, so protocols stay latency-agnostic and a fixed
/// (seed, model) pair is deterministic.

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "rng/distributions.hpp"
#include "rng/xoshiro256.hpp"
#include "support/assert.hpp"

namespace plurality {

/// How a protocol running under a latency model issues queries.
///
/// kBlocking (default) is the Bankhamer et al. request/response model:
/// a node keeps at most ONE query in flight, ticks on a waiting node
/// are suppressed, and the answer re-arms it. This is what makes the
/// latency *shape* matter: under a decreasing-hazard (heavy-tailed)
/// model the residual wait of an in-flight query grows the longer it
/// has been outstanding (the waiting-time paradox), so the endgame is
/// gated by stragglers, while positive aging keeps every round trip
/// concentrated around the mean.
///
/// kFireAndForget posts a fresh query on every tick regardless of
/// outstanding answers — the §4-style semantics: updates at the full
/// tick rate, each from reads one latency old.
///
/// Lives here (not in core/delayed.hpp) because both the delayed
/// protocol variants and the sharded engine's queued body
/// (run_sharded_queued) implement it, and sim/ must not depend on
/// core/.
enum class QueryDiscipline : std::uint8_t { kBlocking, kFireAndForget };

/// The registered latency families, as selected by `--latency=`.
enum class LatencyKind : std::uint8_t {
  kZero,         ///< instant responses (paper baseline)
  kConstant,     ///< degenerate: always exactly the mean
  kExponential,  ///< constant hazard (memoryless)
  kPareto,       ///< Lomax heavy tail: decreasing hazard
  kAging,        ///< Weibull shape >= 1: non-decreasing hazard
};

inline const char* latency_kind_name(LatencyKind kind) noexcept {
  switch (kind) {
    case LatencyKind::kZero: return "zero";
    case LatencyKind::kConstant: return "const";
    case LatencyKind::kExponential: return "exp";
    case LatencyKind::kPareto: return "pareto";
    case LatencyKind::kAging: return "aging";
  }
  return "unknown";
}

/// Parses a `--latency=` value; throws ContractViolation (naming the
/// offending text) on anything unrecognized.
inline LatencyKind parse_latency_kind(const std::string& name) {
  if (name == "zero") return LatencyKind::kZero;
  if (name == "const") return LatencyKind::kConstant;
  if (name == "exp") return LatencyKind::kExponential;
  if (name == "pareto") return LatencyKind::kPareto;
  if (name == "aging") return LatencyKind::kAging;
  throw ContractViolation("--latency=" + name +
                          " is not one of zero|const|exp|pareto|aging");
}

/// A response-latency sampler. sample() must return a finite value
/// >= 0; mean() is the analytic expectation (0 only for ZeroLatency).
/// Draws are virtual calls, one per issued query. In the queued sharded
/// body that is inside the tick loop; a probe that dispatched the model
/// once per run, as the color width is, showed no gain.
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;

  /// One latency draw. The caller (a queued shard) owns `rng`.
  virtual double sample(Xoshiro256& rng) const = 0;

  /// The analytic mean delay the model was parameterized with.
  virtual double mean() const noexcept = 0;

  virtual LatencyKind kind() const noexcept = 0;

  const char* name() const noexcept { return latency_kind_name(kind()); }
};

/// Instant responses: the source paper's base model. Draws no RNG.
class ZeroLatency final : public LatencyModel {
 public:
  double sample(Xoshiro256&) const override { return 0.0; }
  double mean() const noexcept override { return 0.0; }
  LatencyKind kind() const noexcept override { return LatencyKind::kZero; }
};

/// Every response takes exactly `mean` time units. The degenerate
/// endpoint of the positive-aging family (all mass at one point).
/// Draws no RNG.
class ConstantLatency final : public LatencyModel {
 public:
  explicit ConstantLatency(double mean) : mean_(mean) {
    PC_EXPECTS(mean > 0.0);
  }
  double sample(Xoshiro256&) const override { return mean_; }
  double mean() const noexcept override { return mean_; }
  LatencyKind kind() const noexcept override { return LatencyKind::kConstant; }

 private:
  double mean_;
};

/// Exp(1/mean): the §4 response-delay extension of the source paper.
/// Constant hazard 1/mean — the boundary case of positive aging.
class ExponentialLatency final : public LatencyModel {
 public:
  explicit ExponentialLatency(double mean) : mean_(mean) {
    PC_EXPECTS(mean > 0.0);
  }
  double sample(Xoshiro256& rng) const override {
    return exponential_unit(rng) * mean_;
  }
  double mean() const noexcept override { return mean_; }
  LatencyKind kind() const noexcept override {
    return LatencyKind::kExponential;
  }

  /// h(t) = 1/mean for all t >= 0.
  double hazard(double) const noexcept { return 1.0 / mean_; }

 private:
  double mean_;
};

/// Lomax (Pareto type II shifted to start at 0): survival
/// S(t) = (1 + t/sigma)^(-shape). Heavy-tailed with *decreasing*
/// hazard shape/(sigma + t) — the "negative aging" contrast whose
/// stragglers keep reinjecting stale opinions into the endgame.
/// Requires shape > 1 so the mean sigma/(shape-1) exists; the scale is
/// derived from the requested mean.
class ParetoLatency final : public LatencyModel {
 public:
  ParetoLatency(double mean, double shape) : mean_(mean), shape_(shape) {
    PC_EXPECTS(mean > 0.0);
    PC_EXPECTS(shape > 1.0);
    sigma_ = mean * (shape - 1.0);
  }
  double sample(Xoshiro256& rng) const override {
    // Inverse-survival sampling: S^{-1}(u) with u uniform in (0, 1].
    return sigma_ * (std::pow(uniform_open(rng), -1.0 / shape_) - 1.0);
  }
  double mean() const noexcept override { return mean_; }
  LatencyKind kind() const noexcept override { return LatencyKind::kPareto; }

  /// h(t) = shape/(sigma + t): strictly decreasing.
  double hazard(double t) const noexcept { return shape_ / (sigma_ + t); }
  double sigma() const noexcept { return sigma_; }
  double shape() const noexcept { return shape_; }

 private:
  double mean_;
  double shape_;
  double sigma_;
};

/// The positive-aging family of Bankhamer et al.: Weibull with shape
/// k >= 1, whose hazard (k/scale)(t/scale)^(k-1) is non-decreasing.
/// k = 1 degenerates to ExponentialLatency; larger k concentrates the
/// distribution around its mean (lighter tail than exponential), which
/// is exactly the property that keeps the consensus endgame free of
/// extreme stragglers. The scale is derived from the requested mean via
/// E[T] = scale * Gamma(1 + 1/k).
class PositiveAgingLatency final : public LatencyModel {
 public:
  PositiveAgingLatency(double mean, double shape)
      : mean_(mean), shape_(shape) {
    PC_EXPECTS(mean > 0.0);
    PC_EXPECTS(shape >= 1.0);
    scale_ = mean / std::tgamma(1.0 + 1.0 / shape);
  }
  double sample(Xoshiro256& rng) const override {
    // T = scale * E^(1/k) for E ~ Exp(1) (inverse-CDF of the Weibull).
    return scale_ * std::pow(exponential_unit(rng), 1.0 / shape_);
  }
  double mean() const noexcept override { return mean_; }
  LatencyKind kind() const noexcept override { return LatencyKind::kAging; }

  /// h(t) = (k/scale)(t/scale)^(k-1): non-decreasing for k >= 1.
  double hazard(double t) const noexcept {
    return (shape_ / scale_) * std::pow(t / scale_, shape_ - 1.0);
  }
  double scale() const noexcept { return scale_; }
  double shape() const noexcept { return shape_; }

 private:
  double mean_;
  double shape_;
  double scale_;
};

/// Default `--latency-shape` per family: Pareto wants a visibly heavy
/// tail with a finite mean (and, at 2.5, finite variance so moment
/// tests stay meaningful); aging wants to sit clearly inside the
/// increasing-hazard regime, well away from the exponential boundary.
inline double default_latency_shape(LatencyKind kind) noexcept {
  switch (kind) {
    case LatencyKind::kPareto: return 2.5;
    case LatencyKind::kAging: return 4.0;
    default: return 1.0;
  }
}

/// Builds the model selected by (kind, mean, shape). `mean` is ignored
/// for kZero; `shape` only applies to kPareto (> 1) and kAging (>= 1).
/// Parameter violations throw ContractViolation.
inline std::unique_ptr<LatencyModel> make_latency_model(LatencyKind kind,
                                                        double mean,
                                                        double shape) {
  switch (kind) {
    case LatencyKind::kZero:
      return std::make_unique<ZeroLatency>();
    case LatencyKind::kConstant:
      return std::make_unique<ConstantLatency>(mean);
    case LatencyKind::kExponential:
      return std::make_unique<ExponentialLatency>(mean);
    case LatencyKind::kPareto:
      return std::make_unique<ParetoLatency>(mean, shape);
    case LatencyKind::kAging:
      return std::make_unique<PositiveAgingLatency>(mean, shape);
  }
  throw ContractViolation("unreachable latency kind");
}

/// The resolved `--latency=` / `--latency-mean=` / `--latency-shape=`
/// triple an ExperimentContext carries: a value type so it can be
/// validated once on the main thread and then used to mint models
/// inside per-repetition worker lambdas.
struct LatencySpec {
  LatencyKind kind = LatencyKind::kZero;
  double mean = 1.0;
  double shape = 1.0;

  std::unique_ptr<LatencyModel> make() const {
    return make_latency_model(kind, mean, shape);
  }
};

}  // namespace plurality
