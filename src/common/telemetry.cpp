#include "common/telemetry.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
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

namespace {

/// Transparent hash so a shard map finds a name from a std::string_view
/// without building a std::string (which allocates past the 15-character
/// small-string buffer — every `stream.<elem>.block_us` name).
struct NameHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view name) const noexcept {
    return std::hash<std::string_view>{}(name);
  }
};

template <typename T>
using NameMap = std::unordered_map<std::string, T, NameHash, std::equal_to<>>;

/// The value slot for `name`, created (its key string built) only the first
/// time this map sees the name.
template <typename T>
T& slot(NameMap<T>& map, std::string_view name) {
  const auto it = map.find(name);
  return it != map.end() ? it->second : map.try_emplace(std::string(name)).first->second;
}

/// 1-based nearest rank ceil(q*n), clamped to [1, n] (n > 0): the rule
/// behind every quantile the registry reports.
std::uint64_t nearest_rank(double q, std::uint64_t n) {
  const double rank = q * static_cast<double>(n);
  auto idx = static_cast<std::uint64_t>(rank);
  if (static_cast<double>(idx) < rank) ++idx;  // ceil
  return std::clamp<std::uint64_t>(idx, 1, n);
}

// Timer bucket layout, log-linear like HdrHistogram: bucket 0 holds values
// below 2^kMinExp us; each octave [2^e, 2^(e+1)) for e in [kMinExp,
// kMinExp + kOctaves) is split into kSubBuckets equal slices; the last
// bucket holds 2^(kMinExp + kOctaves) us and up. A slice is 1/64 of its
// octave's lower edge wide, so its upper edge overstates any value in it by
// at most 1/64 relative.
constexpr int kMinExp = -10;  // ~1 ns
constexpr int kOctaves = 40;  // up to 2^30 us, ~18 minutes
constexpr int kSubBits = 6;
constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBits;
constexpr std::size_t kTimerBuckets = 2 + kOctaves * kSubBuckets;
constexpr double kLowestUs = 1.0 / (1u << -kMinExp);
constexpr double kHighestUs = static_cast<double>(std::uint64_t{1} << (kMinExp + kOctaves));

std::size_t timer_bucket(double us) {
  if (!(us >= kLowestUs)) return 0;  // underflow, and NaN
  if (us >= kHighestUs) return kTimerBuckets - 1;
  // A normal positive double: the biased exponent picks the octave, the top
  // kSubBits mantissa bits the slice.
  const auto bits = std::bit_cast<std::uint64_t>(us);
  const int exp = static_cast<int>(bits >> 52) - 1023;
  const auto sub = static_cast<std::size_t>(bits >> (52 - kSubBits)) & (kSubBuckets - 1);
  return 1 + static_cast<std::size_t>(exp - kMinExp) * kSubBuckets + sub;
}

double bucket_upper_edge(std::size_t b) {
  if (b == 0) return kLowestUs;
  if (b == kTimerBuckets - 1) return std::numeric_limits<double>::infinity();
  const std::size_t octave = (b - 1) / kSubBuckets;
  const std::size_t sub = (b - 1) % kSubBuckets;
  return std::ldexp(static_cast<double>(kSubBuckets + sub + 1),
                    kMinExp + static_cast<int>(octave) - kSubBits);
}

/// One timer: exact count/min/max, a running sum, and fixed bucket counts.
struct TimerHistogram {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::array<std::uint64_t, kTimerBuckets> buckets{};

  void record(double us) {
    min = count == 0 ? us : std::min(min, us);
    max = count == 0 ? us : std::max(max, us);
    ++count;
    sum += us;
    ++buckets[timer_bucket(us)];
  }

  void merge(const TimerHistogram& other) {
    if (other.count == 0) return;
    min = count == 0 ? other.min : std::min(min, other.min);
    max = count == 0 ? other.max : std::max(max, other.max);
    count += other.count;
    sum += other.sum;
    for (std::size_t b = 0; b < kTimerBuckets; ++b) buckets[b] += other.buckets[b];
  }

  void reset() {
    count = 0;
    sum = min = max = 0.0;
    buckets.fill(0);
  }

  /// Nearest-rank quantile: the upper edge of the bucket holding the
  /// ceil(q*count)-th smallest observation, clamped to [min, max].
  double quantile(double q) const {
    if (count == 0) return 0.0;
    const std::uint64_t rank = nearest_rank(q, count);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kTimerBuckets; ++b) {
      seen += buckets[b];
      if (seen >= rank) return std::clamp(bucket_upper_edge(b), min, max);
    }
    return max;
  }
};

}  // namespace

struct MetricsRegistry::Shard {
  // Only the owning thread writes; the mutex exists so snapshot()/clear()
  // can read from another thread mid-run. An uncontended lock costs
  // nanoseconds, against a per-block (not per-sample) recording rate.
  std::mutex mu;
  NameMap<std::uint64_t> counters;
  NameMap<double> gauges;  // last set value
  NameMap<std::vector<double>> histograms;
  NameMap<TimerHistogram> timers;

  /// Moves `from`'s records in by snapshot()'s rules: counters sum, gauges
  /// keep the maximum, histogram samples concatenate, timer buckets add.
  void fold(Shard& from) {
    absorb(counters, from.counters, [](std::uint64_t& a, std::uint64_t b) { a += b; });
    absorb(gauges, from.gauges, [](double& a, double b) { a = std::max(a, b); });
    absorb(histograms, from.histograms,
           [](std::vector<double>& a, const std::vector<double>& b) {
             a.insert(a.end(), b.begin(), b.end());
           });
    absorb(timers, from.timers,
           [](TimerHistogram& a, const TimerHistogram& b) { a.merge(b); });
  }

 private:
  /// A name new to `into` moves its node over, so it is never allocated
  /// twice; a known name merges.
  template <typename T, typename Merge>
  static void absorb(NameMap<T>& into, NameMap<T>& from, Merge merge) {
    while (!from.empty()) {
      auto node = from.extract(from.begin());
      const auto it = into.find(node.key());
      if (it == into.end())
        into.insert(std::move(node));
      else
        merge(it->second, node.mapped());
    }
  }
};

struct MetricsRegistry::Shards {
  mutable std::mutex mu;
  // list.front() is the retired shard: what threads that have exited
  // recorded. No thread writes it outside retire(), which holds mu.
  std::vector<std::unique_ptr<Shard>> list;

  Shards() { list.push_back(std::make_unique<Shard>()); }

  /// Folds an exiting thread's shard into the retired one and frees it.
  void retire(const Shard* shard) {
    std::lock_guard<std::mutex> lock(mu);
    const auto it = std::find_if(list.begin() + 1, list.end(),
                                 [shard](const auto& s) { return s.get() == shard; });
    if (it == list.end()) return;
    list.front()->fold(**it);
    list.erase(it);
  }
};

/// Per-thread shard cache keyed by process-unique registry id, so a thread
/// finds its shard without touching the registry mutex after first use.
/// Ids are never reused, so an entry for a destroyed registry is simply
/// never looked up again. Each entry holds its registry's shard list
/// weakly: at thread exit the destructor retires the shards of every
/// registry still alive and skips the rest.
struct MetricsRegistry::ThreadShards {
  struct Entry {
    std::weak_ptr<Shards> owner;
    Shard* shard = nullptr;
  };
  std::unordered_map<std::uint64_t, Entry> by_registry;

  ~ThreadShards() {
    for (const auto& [id, entry] : by_registry)
      if (const std::shared_ptr<Shards> owner = entry.owner.lock()) owner->retire(entry.shard);
  }
};

namespace {

std::uint64_t next_registry_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1);
}

/// Force -0.0 to +0.0 so a sample's serialized form never depends on which
/// arithmetic path produced an (equal-comparing) zero.
double canonical(double v) { return v == 0.0 ? 0.0 : v; }

MetricValue aggregate_samples(const std::string& name, std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  MetricValue m;
  m.name = name;
  m.kind = MetricKind::kHistogram;
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
  m.p50 = quantile_sorted(samples, 0.50);
  m.p90 = quantile_sorted(samples, 0.90);
  m.p99 = quantile_sorted(samples, 0.99);
  return m;
}

MetricValue aggregate_timer(const std::string& name, const TimerHistogram& t) {
  MetricValue m;
  m.name = name;
  m.kind = MetricKind::kTimer;
  m.count = t.count;
  m.min = t.min;
  m.max = t.max;
  m.sum = canonical(t.sum);
  m.mean = canonical(t.sum / static_cast<double>(t.count));
  m.p50 = t.quantile(0.50);
  m.p90 = t.quantile(0.90);
  m.p99 = t.quantile(0.99);
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
  return sorted[nearest_rank(q, sorted.size()) - 1];
}

MetricsRegistry::MetricsRegistry()
    : id_(next_registry_id()), shards_(std::make_shared<Shards>()) {}
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Shard& MetricsRegistry::local_shard() {
  thread_local ThreadShards cache;
  const auto it = cache.by_registry.find(id_);
  if (it != cache.by_registry.end()) return *it->second.shard;
  std::lock_guard<std::mutex> lock(shards_->mu);
  shards_->list.push_back(std::make_unique<Shard>());
  Shard* shard = shards_->list.back().get();
  cache.by_registry.emplace(id_, ThreadShards::Entry{shards_, shard});
  return *shard;
}

std::size_t MetricsRegistry::shard_count() const {
  std::lock_guard<std::mutex> lock(shards_->mu);
  return shards_->list.size();
}

void MetricsRegistry::add(std::string_view name, std::uint64_t delta) {
  Shard& s = local_shard();
  std::lock_guard<std::mutex> lock(s.mu);
  slot(s.counters, name) += delta;
}

void MetricsRegistry::set(std::string_view name, double value) {
  Shard& s = local_shard();
  std::lock_guard<std::mutex> lock(s.mu);
  slot(s.gauges, name) = canonical(value);
}

void MetricsRegistry::observe(std::string_view name, double value) {
  Shard& s = local_shard();
  std::lock_guard<std::mutex> lock(s.mu);
  slot(s.histograms, name).push_back(canonical(value));
}

void MetricsRegistry::observe_duration_us(std::string_view name, double us) {
  Shard& s = local_shard();
  std::lock_guard<std::mutex> lock(s.mu);
  slot(s.timers, name).record(canonical(us));
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  // std::map/std::set key the merge by name, which both deduplicates across
  // shards and delivers the sorted-by-name output order in one pass.
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::set<std::string> histogram_names;
  std::map<std::string, TimerHistogram> timers;

  std::lock_guard<std::mutex> lock(shards_->mu);
  for (const auto& shard : shards_->list) {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    for (const auto& [name, v] : shard->counters) counters[name] += v;
    for (const auto& [name, v] : shard->gauges) {
      const auto [it, inserted] = gauges.emplace(name, v);
      if (!inserted) it->second = std::max(it->second, v);
    }
    for (const auto& entry : shard->histograms) histogram_names.insert(entry.first);
    // A timer zeroed by clear() and not recorded since is not reported.
    for (const auto& [name, t] : shard->timers)
      if (t.count > 0) timers[name].merge(t);
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
  // Histograms are merged and aggregated one name at a time, so the
  // transient copy of recorded samples is never more than one metric's.
  for (const auto& name : histogram_names)
    snap.histograms.push_back(aggregate_samples(name, gather_samples(name)));
  for (const auto& [name, t] : timers) snap.timers.push_back(aggregate_timer(name, t));
  return snap;
}

std::vector<double> MetricsRegistry::gather_samples(std::string_view name) const {
  std::vector<double> samples;
  for (const auto& shard : shards_->list) {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    const auto it = shard->histograms.find(name);
    if (it != shard->histograms.end())
      samples.insert(samples.end(), it->second.begin(), it->second.end());
  }
  return samples;
}

std::vector<double> MetricsRegistry::histogram_samples(std::string_view name) const {
  // The same shard merge snapshot() performs, restricted to one histogram:
  // concatenation across shards (any order) then an ascending sort, so the
  // result — and every quantile of it — is thread-count-invariant.
  std::lock_guard<std::mutex> lock(shards_->mu);
  std::vector<double> samples = gather_samples(name);
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
  std::lock_guard<std::mutex> lock(shards_->mu);
  for (const auto& shard : shards_->list) {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    shard->counters.clear();
    shard->gauges.clear();
    shard->histograms.clear();
    for (auto& entry : shard->timers) entry.second.reset();
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
