// Deterministic fault injection for robustness evaluation.
//
// Deployed full-duplex relays see degraded inputs long before they see clean
// ones: converter/DMA glitches corrupt or drop IQ samples, AGC clamps zero
// them, snooped channel estimates arrive perturbed, and sounding rounds are
// lost to collisions. Sahai et al. and Duarte et al. both show cancellation
// collapsing ungracefully when its estimation assumptions break, so the
// reproduction must *prove* the pipeline degrades gracefully — a structured
// error or bounded throughput loss, never a crash, hang, or silently
// NaN-poisoned result (docs/HARDENING.md).
//
// Injection follows the telemetry pattern (common/telemetry.hpp): config
// structs carry an optional `eval::FaultInjector*` whose default nullptr
// means no faults and no cost. Fault POSITIONS are exact and deterministic,
// not Bernoulli: a rate-r fault class fires on its k-th opportunity
// (1-based) iff floor(k*r) > floor((k-1)*r), so any run of n opportunities
// sees exactly expected_count(n, r) = floor(n*r) faults, independent of
// batching. Fault VALUES (corruption noise, estimate perturbations) come
// from a seeded Rng, so faulted runs reproduce bit-for-bit.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace ff {
class MetricsRegistry;
}

namespace ff::eval {

struct FaultConfig {
  /// Fraction of IQ samples zeroed (deep fade / AGC clamp / dropped DMA).
  double sample_drop_rate = 0.0;
  /// Fraction of IQ samples replaced by strong complex Gaussian noise
  /// (bus glitch, impulsive interference) of amplitude `corrupt_amplitude`.
  double sample_corrupt_rate = 0.0;
  /// Fraction of IQ samples NaN-poisoned (driver handing back an
  /// uninitialized buffer — the worst realistic input).
  double sample_nan_rate = 0.0;
  /// RMS amplitude of corrupted samples (10 = +20 dB over a unit signal).
  double corrupt_amplitude = 10.0;
  /// Relative error on channel estimates: each tap h is replaced by
  /// h * (1 + estimate_sigma * cgaussian()).
  double estimate_sigma = 0.0;
  /// Fraction of sounding rounds that fail outright (no CSI updates land).
  double sounding_failure_rate = 0.0;
  std::uint64_t seed = 0x0FF5EED;
  /// Optional telemetry sink: the injector counts everything it touches
  /// under `fd.faults.*` (samples seen/dropped/corrupted/poisoned, sounding
  /// rounds seen/failed, estimates perturbed). Default nullptr.
  MetricsRegistry* metrics = nullptr;
};

/// Applies the configured faults with exact deterministic rates. Stateful
/// (per-class fault schedules + value RNG); one injector models one faulty
/// front-end and is NOT thread-safe — give each parallel lane its own.
class FaultInjector {
 public:
  /// Validates rates are finite and within [0, 1].
  explicit FaultInjector(FaultConfig cfg);

  const FaultConfig& config() const { return cfg_; }

  /// Faults the next `x.size()` samples of the stream in place, in order
  /// drop -> corrupt -> NaN (a sample drawing several faults keeps the
  /// most severe). Batch boundaries do not matter: two calls of n/2 fault
  /// exactly the samples one call of n would.
  void apply(CMutSpan x);

  /// Copying convenience for const inputs.
  CVec apply_copy(CSpan x);

  /// Perturb a channel estimate: h[i] *= 1 + estimate_sigma * cgaussian().
  CVec perturb_estimate(CSpan h);

  /// Advance the sounding schedule one round; true = this round is lost.
  bool sounding_fails();

  /// Faults a rate-r class has fired after n opportunities: floor(n * r).
  /// Tests assert telemetry counters against exactly this value.
  static std::uint64_t expected_count(std::uint64_t n, double rate);

  std::uint64_t samples_seen() const { return samples_seen_; }
  std::uint64_t samples_dropped() const { return drop_.fired; }
  std::uint64_t samples_corrupted() const { return corrupt_.fired; }
  std::uint64_t samples_poisoned() const { return nan_.fired; }

 private:
  /// Exact-rate schedule: fires on opportunity k (1-based) iff
  /// floor(k*rate) exceeds the count fired so far.
  struct Schedule {
    std::uint64_t seen = 0;
    std::uint64_t fired = 0;
    bool step(double rate);
  };

  FaultConfig cfg_;
  Rng rng_;
  Schedule drop_;
  Schedule corrupt_;
  Schedule nan_;
  Schedule sounding_;
  std::uint64_t samples_seen_ = 0;
  std::uint64_t estimates_perturbed_ = 0;
};

}  // namespace ff::eval
