// Multi-scenario experiment runner: places clients across every evaluation
// floor plan, computes all schemes' throughput, and carries the diagnostics
// needed by each figure's bench binary.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "eval/schemes.hpp"
#include "eval/testbed.hpp"

namespace ff {
class MetricsRegistry;
}

namespace ff::eval {

enum class LinkCategory {
  kLowSnrLowRank,    // coverage edge (Fig. 15a)
  kMediumSnrLowRank, // pinhole victims (Fig. 15b)
  kHighSnrHighRank,  // near the AP (Fig. 15c)
  kOther,
};

std::string to_string(LinkCategory c);

/// Metric-name-safe slug ("low_snr_low_rank", ...).
std::string category_slug(LinkCategory c);

/// Fig. 15 categorization from AP-only diagnostics.
LinkCategory categorize(double baseline_snr_db, std::size_t baseline_streams,
                        std::size_t max_streams);

/// The compared schemes of Sec. 5, in the order SchemeResult stores them.
enum class Scheme {
  kApOnly,
  kHdMesh,
  kFastForward,
  kAmplifyForward,
};
inline constexpr std::array<Scheme, 4> kAllSchemes{
    Scheme::kApOnly, Scheme::kHdMesh, Scheme::kFastForward, Scheme::kAmplifyForward};

std::string to_string(Scheme s);

/// The scheme's throughput within one location's results.
double scheme_mbps(const SchemeResult& r, Scheme s);

/// Highest-throughput scheme at a location. Ties resolve to the earlier
/// (simpler) scheme in enum order, so the choice is deterministic.
Scheme winner(const SchemeResult& r);

struct LocationResult {
  std::string plan;
  channel::Point client;
  SchemeResult schemes;
  LinkCategory category = LinkCategory::kOther;
};

/// Canonical testbed shapes used by the figures.
enum class TestbedPreset {
  kMimo2x2,  // the default 2x2 evaluation (Figs. 12/13/15/17/18)
  kSiso,     // single-antenna devices (Fig. 14)
};

TestbedConfig make_testbed(TestbedPreset preset);

struct ExperimentConfig {
  TestbedConfig testbed{};
  std::size_t clients_per_plan = 40;
  std::uint64_t seed = 1;
  bool evaluate_af = false;
  /// Worker threads for the per-location evaluations. 0 = FF_THREADS env /
  /// hardware default (see common/parallel.hpp). Results are bit-identical
  /// at every thread count: all randomness is drawn in a serial phase that
  /// assigns each location its own pre-forked RNG stream before the
  /// parallel compute phase starts.
  std::size_t threads = 0;
  /// Optional metrics sink (common/telemetry.hpp): run_experiment records
  /// per-location timings, category tallies, scheme win counts, and the
  /// relay-design metrics of every evaluated location. Everything except
  /// timer values is deterministic at any thread count. Default nullptr.
  MetricsRegistry* metrics = nullptr;

  /// Fluent construction, so call sites state intent instead of mutating
  /// public fields in ad-hoc orders:
  ///   ExperimentConfig::for_testbed(TestbedPreset::kSiso)
  ///       .with_clients(50).with_seed(20140817)
  static ExperimentConfig for_testbed(TestbedPreset preset) {
    ExperimentConfig cfg;
    cfg.testbed = make_testbed(preset);
    return cfg;
  }
  static ExperimentConfig for_testbed(const TestbedConfig& tb) {
    ExperimentConfig cfg;
    cfg.testbed = tb;
    return cfg;
  }
  ExperimentConfig& with_clients(std::size_t n) {
    clients_per_plan = n;
    return *this;
  }
  ExperimentConfig& with_seed(std::uint64_t s) {
    seed = s;
    return *this;
  }
  ExperimentConfig& with_af(bool enabled = true) {
    evaluate_af = enabled;
    return *this;
  }
  ExperimentConfig& with_threads(std::size_t n) {
    threads = n;
    return *this;
  }
  ExperimentConfig& with_cancellation_db(double db) {
    testbed.cancellation_db = db;
    return *this;
  }
  ExperimentConfig& with_metrics(MetricsRegistry* m) {
    metrics = m;
    return *this;
  }
};

/// Aggregate view of one experiment (ExperimentResults::summary()).
struct ExperimentSummary {
  std::size_t locations = 0;
  /// Locations per LinkCategory, indexed by the enum's value.
  std::array<std::size_t, 4> category_counts{};
  /// Locations each scheme wins (argmax throughput), indexed by Scheme.
  std::array<std::size_t, 4> wins{};
  /// Median throughput per scheme, indexed by Scheme (0 when empty).
  std::array<double, 4> median_mbps{};
};

/// Owning wrapper around the per-location results. Replaces the old
/// free-function `extract(results, &SchemeResult::field)` idiom with named
/// accessors; iteration and indexing pass through to the location vector,
/// so range-for call sites keep working unchanged.
class ExperimentResults {
 public:
  ExperimentResults() = default;
  explicit ExperimentResults(std::vector<LocationResult> locations)
      : locations_(std::move(locations)) {}

  const std::vector<LocationResult>& locations() const { return locations_; }
  std::size_t size() const { return locations_.size(); }
  bool empty() const { return locations_.empty(); }
  const LocationResult& operator[](std::size_t i) const { return locations_[i]; }
  auto begin() const { return locations_.begin(); }
  auto end() const { return locations_.end(); }

  /// One scheme's throughput at every location, in location order.
  std::vector<double> throughputs(Scheme s) const;

  /// Per-location gains of `s` relative to the HD-mesh baseline (the
  /// paper's metric). Locations where even the HD mesh gets nothing have
  /// undefined gain and are excluded, as in Sec. 5.
  std::vector<double> gains_vs_hd(Scheme s) const;

  /// The subset of locations in a Fig. 15 category.
  ExperimentResults by_category(LinkCategory c) const;

  ExperimentSummary summary() const;

  /// FNV-1a over every numeric field of every location, in location order:
  /// two runs are bit-identical iff their checksums match, whatever the
  /// thread count (tests/eval_test.cpp pins the figure benches' sweep).
  std::uint64_t checksum() const;

 private:
  std::vector<LocationResult> locations_;
};

/// Run the full evaluation across FloorPlan::evaluation_set().
ExperimentResults run_experiment(const ExperimentConfig& cfg);

/// Default relay design options for a testbed (fills the subcarrier grid).
relay::DesignOptions default_design_options(const TestbedConfig& cfg);

}  // namespace ff::eval
