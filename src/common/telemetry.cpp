#include "common/telemetry.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common/json_writer.hpp"

namespace ff {

std::string to_string(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
    case MetricKind::kTimer: return "timer";
  }
  return "?";
}

// ------------------------------------------------------------------ shards

struct MetricsRegistry::Shard {
  // Only the owning thread writes; the mutex exists so snapshot()/clear()
  // can read from another thread mid-run. Uncontended locks on the
  // per-event path are nanoseconds — and events are per-tune/per-design,
  // not per-sample.
  std::mutex mu;
  std::unordered_map<std::string, std::uint64_t> counters;
  std::unordered_map<std::string, double> gauges;  // last set value
  std::unordered_map<std::string, std::vector<double>> histograms;
  std::unordered_map<std::string, std::vector<double>> timers;
};

namespace {

std::uint64_t next_registry_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1);
}

/// Per-thread shard cache keyed by process-unique registry id, so a thread
/// finds its shard without touching the registry mutex after first use.
/// Ids are never reused, so an entry for a destroyed registry is simply
/// never looked up again. Stored as void* because Shard is private to the
/// registry; local_shard() is the only reader and knows the real type.
std::unordered_map<std::uint64_t, void*>& shard_cache() {
  thread_local std::unordered_map<std::uint64_t, void*> cache;
  return cache;
}

/// Force -0.0 to +0.0 so a sample's serialized form never depends on which
/// arithmetic path produced an (equal-comparing) zero.
double canonical(double v) { return v == 0.0 ? 0.0 : v; }

/// Nearest-rank percentile over an ascending-sorted sample set.
double percentile_sorted(const std::vector<double>& sorted, double p) {
  return quantile_sorted(sorted, p / 100.0);
}

MetricValue aggregate_samples(const std::string& name, MetricKind kind,
                              std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  MetricValue m;
  m.name = name;
  m.kind = kind;
  m.count = samples.size();
  if (samples.empty()) return m;
  m.min = samples.front();
  m.max = samples.back();
  // Summing in sorted order pins the floating-point accumulation order, so
  // the sum (and mean) is bit-identical however the observations were
  // sharded across threads.
  double sum = 0.0;
  for (const double v : samples) sum += v;
  m.sum = canonical(sum);
  m.mean = canonical(sum / static_cast<double>(samples.size()));
  m.p50 = percentile_sorted(samples, 50.0);
  m.p90 = percentile_sorted(samples, 90.0);
  m.p99 = percentile_sorted(samples, 99.0);
  return m;
}

void write_histogram_entries(JsonWriter& json, const std::vector<MetricValue>& ms,
                             bool include_values) {
  json.begin_array();
  for (const auto& m : ms) {
    json.begin_object();
    json.key("name").value(m.name);
    json.key("count").value(m.count);
    if (include_values) {
      json.key("min").value(m.min);
      json.key("max").value(m.max);
      json.key("sum").value(m.sum);
      json.key("mean").value(m.mean);
      json.key("p50").value(m.p50);
      json.key("p90").value(m.p90);
      json.key("p99").value(m.p99);
    }
    json.end_object();
  }
  json.end_array();
}

}  // namespace

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size());
  std::size_t idx = static_cast<std::size_t>(rank);
  if (static_cast<double>(idx) < rank) ++idx;  // ceil
  if (idx == 0) idx = 1;
  return sorted[std::min(idx, sorted.size()) - 1];
}

MetricsRegistry::MetricsRegistry() : id_(next_registry_id()) {}
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Shard& MetricsRegistry::local_shard() {
  auto& cache = shard_cache();
  const auto it = cache.find(id_);
  if (it != cache.end()) return *static_cast<Shard*>(it->second);
  std::lock_guard<std::mutex> lock(mu_);
  shards_.push_back(std::make_unique<Shard>());
  Shard* shard = shards_.back().get();
  cache.emplace(id_, shard);
  return *shard;
}

void MetricsRegistry::add(std::string_view name, std::uint64_t delta) {
  Shard& s = local_shard();
  std::lock_guard<std::mutex> lock(s.mu);
  s.counters[std::string(name)] += delta;
}

void MetricsRegistry::set(std::string_view name, double value) {
  Shard& s = local_shard();
  std::lock_guard<std::mutex> lock(s.mu);
  s.gauges[std::string(name)] = canonical(value);
}

void MetricsRegistry::observe(std::string_view name, double value) {
  Shard& s = local_shard();
  std::lock_guard<std::mutex> lock(s.mu);
  s.histograms[std::string(name)].push_back(canonical(value));
}

void MetricsRegistry::observe_duration_us(std::string_view name, double us) {
  Shard& s = local_shard();
  std::lock_guard<std::mutex> lock(s.mu);
  s.timers[std::string(name)].push_back(canonical(us));
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  // std::map/std::set key the merge by name, which both deduplicates across
  // shards and delivers the sorted-by-name output order in one pass.
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::set<std::string> histogram_names;
  std::set<std::string> timer_names;

  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    for (const auto& [name, v] : shard->counters) counters[name] += v;
    for (const auto& [name, v] : shard->gauges) {
      const auto [it, inserted] = gauges.emplace(name, v);
      if (!inserted) it->second = std::max(it->second, v);
    }
    for (const auto& entry : shard->histograms) histogram_names.insert(entry.first);
    for (const auto& entry : shard->timers) timer_names.insert(entry.first);
  }

  MetricsSnapshot snap;
  for (const auto& [name, v] : counters) {
    MetricValue m;
    m.name = name;
    m.kind = MetricKind::kCounter;
    m.count = v;
    snap.counters.push_back(std::move(m));
  }
  for (const auto& [name, v] : gauges) {
    MetricValue m;
    m.name = name;
    m.kind = MetricKind::kGauge;
    m.value = v;
    snap.gauges.push_back(std::move(m));
  }
  // Sample metrics are merged and aggregated one name at a time, so the
  // transient copy of recorded samples is never more than one metric's.
  for (const auto& name : histogram_names)
    snap.histograms.push_back(aggregate_samples(
        name, MetricKind::kHistogram, gather_samples(MetricKind::kHistogram, name)));
  for (const auto& name : timer_names)
    snap.timers.push_back(aggregate_samples(name, MetricKind::kTimer,
                                            gather_samples(MetricKind::kTimer, name)));
  return snap;
}

std::vector<double> MetricsRegistry::gather_samples(MetricKind kind,
                                                    const std::string& name) const {
  std::vector<double> samples;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    const auto& metrics = kind == MetricKind::kTimer ? shard->timers : shard->histograms;
    const auto it = metrics.find(name);
    if (it != metrics.end())
      samples.insert(samples.end(), it->second.begin(), it->second.end());
  }
  return samples;
}

std::vector<double> MetricsRegistry::histogram_samples(std::string_view name) const {
  // The same shard merge snapshot() performs, restricted to one histogram:
  // concatenation across shards (any order) then an ascending sort, so the
  // result — and every quantile of it — is thread-count-invariant.
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> samples = gather_samples(MetricKind::kHistogram, std::string(name));
  std::sort(samples.begin(), samples.end());
  return samples;
}

double MetricsRegistry::histogram_quantile(std::string_view name, double q) const {
  return quantile_sorted(histogram_samples(name), q);
}

std::vector<HistogramCdfPoint> MetricsRegistry::histogram_cdf(std::string_view name,
                                                              std::size_t points) const {
  const std::vector<double> samples = histogram_samples(name);
  std::vector<HistogramCdfPoint> cdf;
  if (samples.empty() || points == 0) return cdf;
  cdf.reserve(points);
  for (std::size_t i = 1; i <= points; ++i) {
    const double p = static_cast<double>(i) / static_cast<double>(points);
    cdf.push_back({p, quantile_sorted(samples, p)});
  }
  return cdf;
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    shard->counters.clear();
    shard->gauges.clear();
    shard->histograms.clear();
    shard->timers.clear();
  }
}

// ---------------------------------------------------------------- exporters

std::string MetricsSnapshot::to_json(bool include_timer_values) const {
  JsonWriter json;
  json.begin_object();
  json.key("schema").value(std::string(kSchema));
  json.key("counters");
  json.begin_array();
  for (const auto& m : counters) {
    json.begin_object();
    json.key("name").value(m.name);
    json.key("value").value(m.count);
    json.end_object();
  }
  json.end_array();
  json.key("gauges");
  json.begin_array();
  for (const auto& m : gauges) {
    json.begin_object();
    json.key("name").value(m.name);
    json.key("value").value(m.value);
    json.end_object();
  }
  json.end_array();
  json.key("histograms");
  write_histogram_entries(json, histograms, /*include_values=*/true);
  json.key("timers");
  write_histogram_entries(json, timers, include_timer_values);
  json.end_object();
  return json.str();
}

std::string MetricsSnapshot::to_csv() const {
  std::ostringstream os;
  os << "name,kind,count,value,min,max,sum,mean,p50,p90,p99\n";
  const auto num = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return std::string(buf);
  };
  const auto row = [&](const MetricValue& m) {
    os << m.name << ',' << to_string(m.kind) << ',' << m.count << ',';
    if (m.kind == MetricKind::kGauge) os << num(m.value);
    os << ',';
    if (m.kind == MetricKind::kHistogram || m.kind == MetricKind::kTimer)
      os << num(m.min) << ',' << num(m.max) << ',' << num(m.sum) << ',' << num(m.mean) << ','
         << num(m.p50) << ',' << num(m.p90) << ',' << num(m.p99);
    else
      os << ",,,,,,";
    os << '\n';
  };
  for (const auto& m : counters) row(m);
  for (const auto& m : gauges) row(m);
  for (const auto& m : histograms) row(m);
  for (const auto& m : timers) row(m);
  return os.str();
}

}  // namespace ff
