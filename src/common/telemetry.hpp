// Lightweight metrics registry for the relay stack.
//
// The paper's evaluation hinges on internal quantities the subsystems
// otherwise compute and throw away: self-interference residual per
// cancellation stage (Sec. 3.3), tuner convergence, CNF design residuals
// (Sec. 3.4), per-location link categories (Fig. 15). A MetricsRegistry
// collects them as named metrics with hierarchical dotted names
// (`relay.tuner.iterations`, `fd.digital.residual_dbm`,
// `eval.location.wall_us`) and exports JSON/CSV reports.
//
// Injection, not globals: each subsystem's config struct carries a
// `MetricsRegistry*` (default nullptr). A null pointer is a no-op — the
// null-safe helpers in ff::metrics compile down to one branch, so the
// deterministic compute phase stays pure and the hot path pays nothing
// when observability is off.
//
// Thread-safety and determinism: each thread writes to its own shard
// (created on first use); `snapshot()` merges shards with order-independent
// rules and sorts metrics by name, so a report produced under the parallel
// engine is byte-identical at any thread count:
//
//   * counters   — integer sums (associative and commutative);
//   * gauges     — the maximum of the per-shard last-set values (use them
//                  from serial code when last-write semantics matter);
//   * histograms — exact sample sets, merged and sorted ascending before
//                  any aggregate (sum/mean/percentiles) is computed, so
//                  floating-point accumulation order is pinned;
//   * timers     — fixed log-linear bucket histograms of wall-clock
//                  durations, merged by summing bucket counts. Their
//                  VALUES are inherently nondeterministic; exporters can
//                  exclude them (`to_json(/*include_timer_values=*/false)`)
//                  so the rest of a report can be diffed byte-for-byte.
//
// Memory and allocation: a timer is a fixed ~20 KB per recording thread
// however long it runs (64 linear buckets per power of two from 2^-10 to
// 2^30 us; p50/p90/p99 within 1/64 relative of the exact nearest-rank
// value), so an always-on stream can time every block. Value histograms
// store every observation (8 bytes each) because their exact quantiles are
// pinned results (the city CDF); keep them off per-block paths. Each shard
// looks names up by std::string_view, so once a name has been recorded on
// a thread, recording it again allocates nothing. When a thread exits, its
// shard is folded into the registry's one retired shard by the same merge
// rules and freed, so a long-lived registry fed by short-lived threads (a
// daemon's session threads) holds one shard per LIVE thread, not one per
// thread that ever recorded. The fold is exact for counters, gauges and
// histograms; only timer sums depend on the merge order, like any timer
// value.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ff {

enum class MetricKind { kCounter, kGauge, kHistogram, kTimer };

std::string to_string(MetricKind k);

/// One merged metric as of a snapshot. Histogram aggregates are computed
/// over the ascending-sorted sample set; a timer's count/min/max are exact,
/// its sum is the running sum and its percentiles come from its buckets.
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t count = 0;  // counter value, or number of observations
  double value = 0.0;       // gauge value
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Deterministically merged view of a registry: sorted by name within each
/// kind. `schema` tags the export format for downstream tooling.
struct MetricsSnapshot {
  static constexpr const char* kSchema = "ff-metrics-v1";

  std::vector<MetricValue> counters;
  std::vector<MetricValue> gauges;
  std::vector<MetricValue> histograms;
  std::vector<MetricValue> timers;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty() && timers.empty();
  }

  /// JSON report (see docs/OBSERVABILITY.md for the schema). With
  /// `include_timer_values = false` the timers section keeps only metric
  /// names and observation counts — everything left is deterministic and
  /// can be compared byte-for-byte across runs and thread counts.
  std::string to_json(bool include_timer_values = true) const;

  /// Flat CSV: name,kind,count,value,min,max,sum,mean,p50,p90,p99.
  std::string to_csv() const;
};

/// One point of a deterministic histogram CDF: P(X <= value) = prob.
struct HistogramCdfPoint {
  double prob = 0.0;   // cumulative probability in (0, 1]
  double value = 0.0;  // nearest-rank quantile at that probability
};

/// Nearest-rank quantile (q in [0, 1]) over an ascending-sorted sample set —
/// the exact rule snapshot() uses for p50/p90/p99, exposed so callers can
/// take any quantile of a histogram (the city throughput CDF). Returns the
/// sample at index ceil(q*n)-1 (clamped); 0.0 on an empty set. Because the
/// input is the merged-and-sorted sample set, the result is bit-identical
/// however the observations were sharded across threads.
double quantile_sorted(const std::vector<double>& sorted, double q);

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Counter: add `delta` (registers the metric even when delta == 0).
  void add(std::string_view name, std::uint64_t delta = 1);

  /// Gauge: record the latest value (merged across shards by max).
  void set(std::string_view name, double value);

  /// Histogram: record one observation.
  void observe(std::string_view name, double value);

  /// Timer: record a wall-clock duration in microseconds into the name's
  /// fixed bucket histogram.
  void observe_duration_us(std::string_view name, double us);

  /// Merge every shard into a deterministic snapshot.
  MetricsSnapshot snapshot() const;

  /// All observations of one histogram metric, merged across shards and
  /// sorted ascending — the exact sample set snapshot() aggregates. Empty
  /// when the metric has never been observed (or is not a histogram).
  std::vector<double> histogram_samples(std::string_view name) const;

  /// Deterministic quantile of a histogram: quantile_sorted() over the
  /// merged sample set. q in [0, 1]; 0.0 for an unrecorded metric.
  double histogram_quantile(std::string_view name, double q) const;

  /// Deterministic CDF of a histogram sampled at `points` evenly spaced
  /// probabilities (1/points, 2/points, ..., 1): each entry pairs the
  /// probability with the nearest-rank quantile there. Empty when the
  /// metric has never been observed. Like every snapshot aggregate, the
  /// result is byte-identical at any thread count.
  std::vector<HistogramCdfPoint> histogram_cdf(std::string_view name,
                                               std::size_t points = 20) const;

  /// Drop all recorded values (shards stay registered to their threads;
  /// timers are zeroed in place, so recording them again allocates nothing).
  void clear();

  /// Shards held: one per live thread that has recorded here, plus the one
  /// holding what exited threads recorded. The registry's memory is this
  /// many timer sets (about 20 KB per timer), plus histogram samples.
  std::size_t shard_count() const;

  /// Scoped wall-clock timer: records into `registry` (nullptr = no-op,
  /// not even a clock read) on destruction. It keeps `name` as a view, so
  /// the string must outlive the timer: a literal, or a member of the
  /// object whose method opens the timer (Element::block_timer_name()).
  class ScopedTimer {
   public:
    ScopedTimer(MetricsRegistry* registry, std::string_view name)
        : registry_(registry), name_(name) {
      if (registry_) start_ = std::chrono::steady_clock::now();
    }
    ~ScopedTimer() {
      if (!registry_) return;
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      registry_->observe_duration_us(
          name_, std::chrono::duration<double, std::micro>(elapsed).count());
    }
    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

   private:
    MetricsRegistry* registry_;
    std::string_view name_;
    std::chrono::steady_clock::time_point start_{};
  };

 private:
  struct Shard;
  /// The shard list and its lock. Recording threads hold it weakly, so a
  /// thread that exits folds its shard in while the registry lives and does
  /// nothing once it is gone.
  struct Shards;
  /// A thread's shard cache; its destructor is the thread-exit fold.
  struct ThreadShards;

  Shard& local_shard();
  /// One histogram metric's samples concatenated across shards in shard
  /// order, unsorted. The caller holds shards_->mu.
  std::vector<double> gather_samples(std::string_view name) const;

  const std::uint64_t id_;  // process-unique, keys the thread-local cache
  const std::shared_ptr<Shards> shards_;
};

/// Null-safe instrumentation helpers: the injected-pointer no-op path.
/// `metrics::add(cfg.metrics, ...)` costs one predictable branch when no
/// registry is injected.
namespace metrics {

inline void add(MetricsRegistry* r, std::string_view name, std::uint64_t delta = 1) {
  if (r) r->add(name, delta);
}
inline void set(MetricsRegistry* r, std::string_view name, double value) {
  if (r) r->set(name, value);
}
inline void observe(MetricsRegistry* r, std::string_view name, double value) {
  if (r) r->observe(name, value);
}

}  // namespace metrics

}  // namespace ff
