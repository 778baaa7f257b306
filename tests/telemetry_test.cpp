// Telemetry registry: correctness of the metric kinds, the null no-op path,
// and the headline contract — snapshots are byte-identical no matter how the
// recording work was sharded across threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"

namespace ff {
namespace {

TEST(Telemetry, CountersSumDeltas) {
  MetricsRegistry reg;
  reg.add("a.count");
  reg.add("a.count", 4);
  reg.add("b.count", 0);  // registers at zero
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "a.count");
  EXPECT_EQ(snap.counters[0].count, 5u);
  EXPECT_EQ(snap.counters[1].name, "b.count");
  EXPECT_EQ(snap.counters[1].count, 0u);
}

TEST(Telemetry, GaugesKeepLastSetValue) {
  MetricsRegistry reg;
  reg.set("g", 3.0);
  reg.set("g", -1.5);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, -1.5);
}

TEST(Telemetry, HistogramAggregatesAreExact) {
  MetricsRegistry reg;
  for (const double v : {5.0, 1.0, 3.0, 2.0, 4.0}) reg.observe("h", v);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const auto& h = snap.histograms[0];
  EXPECT_EQ(h.count, 5u);
  EXPECT_EQ(h.min, 1.0);
  EXPECT_EQ(h.max, 5.0);
  EXPECT_EQ(h.sum, 15.0);
  EXPECT_EQ(h.mean, 3.0);
  EXPECT_EQ(h.p50, 3.0);   // nearest-rank
  EXPECT_EQ(h.p90, 5.0);
  EXPECT_EQ(h.p99, 5.0);
}

TEST(Telemetry, SnapshotSortsByNameWithinEachKind) {
  MetricsRegistry reg;
  reg.add("z.last");
  reg.add("a.first");
  reg.observe("m.middle", 1.0);
  reg.observe("b.before", 1.0);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "a.first");
  EXPECT_EQ(snap.counters[1].name, "z.last");
  ASSERT_EQ(snap.histograms.size(), 2u);
  EXPECT_EQ(snap.histograms[0].name, "b.before");
  EXPECT_EQ(snap.histograms[1].name, "m.middle");
}

TEST(Telemetry, NullRegistryHelpersAreNoOps) {
  // The injected-pointer convention: all helpers must accept nullptr.
  metrics::add(nullptr, "x");
  metrics::set(nullptr, "x", 1.0);
  metrics::observe(nullptr, "x", 1.0);
  MetricsRegistry::ScopedTimer t(nullptr, "x");  // must not read the clock
  SUCCEED();
}

TEST(Telemetry, ScopedTimerRecordsAnObservation) {
  MetricsRegistry reg;
  { MetricsRegistry::ScopedTimer t(&reg, "t.wall_us"); }
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.timers.size(), 1u);
  EXPECT_EQ(snap.timers[0].name, "t.wall_us");
  EXPECT_EQ(snap.timers[0].count, 1u);
  EXPECT_GE(snap.timers[0].min, 0.0);
}

TEST(Telemetry, ClearDropsAllValues) {
  MetricsRegistry reg;
  reg.add("c");
  reg.observe("h", 1.0);
  reg.observe_duration_us("t", 7.0);
  reg.clear();
  EXPECT_TRUE(reg.snapshot().empty());
  // A timer is zeroed in place; recording again starts it afresh.
  reg.observe_duration_us("t", 2.0);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.timers.size(), 1u);
  EXPECT_EQ(snap.timers[0].count, 1u);
  EXPECT_EQ(snap.timers[0].min, 2.0);
  EXPECT_EQ(snap.timers[0].max, 2.0);
  EXPECT_EQ(snap.timers[0].sum, 2.0);
}

TEST(Telemetry, JsonHasSchemaAndSections) {
  MetricsRegistry reg;
  reg.add("c", 2);
  reg.set("g", 1.25);
  reg.observe("h", -0.0);  // -0 must serialize as 0
  const std::string json = reg.snapshot().to_json();
  EXPECT_NE(json.find("\"schema\":\"ff-metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\":"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":"), std::string::npos);
  EXPECT_NE(json.find("\"timers\":"), std::string::npos);
  EXPECT_EQ(json.find("-0"), std::string::npos);
}

TEST(Telemetry, CsvHasHeaderAndRows) {
  MetricsRegistry reg;
  reg.add("c", 2);
  const std::string csv = reg.snapshot().to_csv();
  EXPECT_NE(csv.find("name,kind,count,value,min,max,sum,mean,p50,p90,p99"),
            std::string::npos);
  EXPECT_NE(csv.find("c,counter,2"), std::string::npos);
}

/// Record a deterministic workload from `threads` workers and return the
/// canonical (timer-values-excluded) JSON.
std::string sharded_report(std::size_t threads) {
  MetricsRegistry reg;
  parallel_for(
      64,
      [&](std::size_t i) {
        MetricsRegistry::ScopedTimer t(&reg, "work.wall_us");
        reg.add("work.items");
        reg.add("work.bytes", i);
        reg.observe("work.value", static_cast<double>(i) * 0.25 - 4.0);
        if (i % 7 == 0) reg.observe("work.sparse", static_cast<double>(i));
        reg.set("work.gauge", 42.0);
      },
      threads);
  return reg.snapshot().to_json(/*include_timer_values=*/false);
}

TEST(Telemetry, MergedOutputIsThreadCountInvariant) {
  // The acceptance criterion of the subsystem: identical bytes (timer
  // values aside) whether the observations came from 1, 2 or 4 shards.
  const std::string one = sharded_report(1);
  const std::string two = sharded_report(2);
  const std::string four = sharded_report(4);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
  // And the canonical form still carries the timer's observation count.
  EXPECT_NE(one.find("\"work.wall_us\""), std::string::npos);
  EXPECT_NE(one.find("\"count\":64"), std::string::npos);
}


// ------------------------------------------------------- quantiles / CDF

TEST(Telemetry, QuantileSortedFollowsTheNearestRankRule) {
  const std::vector<double> sorted{1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(quantile_sorted(sorted, 0.0), 1.0);    // clamped to first sample
  EXPECT_EQ(quantile_sorted(sorted, 0.25), 1.0);   // ceil(0.25*4) = 1st
  EXPECT_EQ(quantile_sorted(sorted, 0.26), 2.0);
  EXPECT_EQ(quantile_sorted(sorted, 0.5), 2.0);
  EXPECT_EQ(quantile_sorted(sorted, 0.75), 3.0);
  EXPECT_EQ(quantile_sorted(sorted, 1.0), 4.0);
  EXPECT_EQ(quantile_sorted({}, 0.5), 0.0);        // empty set
}

TEST(Telemetry, QuantileSortedMatchesSnapshotPercentiles) {
  // The helper IS the percentile rule: p50/p90/p99 of a snapshot must be
  // quantile_sorted at 0.5/0.9/0.99 of the merged sample set.
  MetricsRegistry reg;
  for (int i = 100; i >= 1; --i) reg.observe("h", static_cast<double>(i));
  const auto samples = reg.histogram_samples("h");
  ASSERT_EQ(samples.size(), 100u);
  EXPECT_TRUE(std::is_sorted(samples.begin(), samples.end()));
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].p50, quantile_sorted(samples, 0.5));
  EXPECT_EQ(snap.histograms[0].p90, quantile_sorted(samples, 0.9));
  EXPECT_EQ(snap.histograms[0].p99, quantile_sorted(samples, 0.99));
  EXPECT_EQ(reg.histogram_quantile("h", 0.5), 50.0);
}

TEST(Telemetry, HistogramCdfPairsProbabilitiesWithQuantiles) {
  MetricsRegistry reg;
  for (int i = 1; i <= 10; ++i) reg.observe("h", static_cast<double>(i));
  const auto cdf = reg.histogram_cdf("h", 5);
  ASSERT_EQ(cdf.size(), 5u);
  for (std::size_t i = 0; i < cdf.size(); ++i) {
    EXPECT_DOUBLE_EQ(cdf[i].prob, static_cast<double>(i + 1) / 5.0);
    EXPECT_EQ(cdf[i].value, static_cast<double>(2 * (i + 1)));  // 2,4,6,8,10
  }
  EXPECT_TRUE(reg.histogram_cdf("never.observed").empty());
  EXPECT_TRUE(reg.histogram_cdf("h", 0).empty());
}

TEST(Telemetry, QuantilesAreThreadCountInvariant) {
  // Byte-identical merge rule, extended to the quantile surface: however
  // the observations were sharded (1, 2 or 4 threads), the merged samples,
  // any quantile, and the CDF are identical. A timer fed the same values
  // merges bucket counts, so every field but its running sum is identical.
  const auto run = [](std::size_t threads) {
    auto reg = std::make_unique<MetricsRegistry>();
    parallel_for(
        64,
        [&](std::size_t i) {
          reg->observe("q", static_cast<double>((i * 37) % 64));
          reg->observe_duration_us("qt", 0.1 * static_cast<double>((i * 37) % 64));
        },
        threads);
    return reg;
  };
  const auto one_reg = run(1);
  const MetricsRegistry& one = *one_reg;
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    const auto many_reg = run(threads);
    const MetricsRegistry& many = *many_reg;
    EXPECT_EQ(many.histogram_samples("q"), one.histogram_samples("q"));
    for (const double q : {0.1, 0.5, 0.9, 0.99})
      EXPECT_EQ(many.histogram_quantile("q", q), one.histogram_quantile("q", q));
    const auto a = one.histogram_cdf("q");
    const auto b = many.histogram_cdf("q");
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].prob, b[i].prob);
      EXPECT_EQ(a[i].value, b[i].value);
    }
    const auto ta = one.snapshot().timers;
    const auto tb = many.snapshot().timers;
    ASSERT_EQ(ta.size(), 1u);
    ASSERT_EQ(tb.size(), 1u);
    EXPECT_EQ(ta[0].count, tb[0].count);
    EXPECT_EQ(ta[0].min, tb[0].min);
    EXPECT_EQ(ta[0].max, tb[0].max);
    EXPECT_EQ(ta[0].p50, tb[0].p50);
    EXPECT_EQ(ta[0].p90, tb[0].p90);
    EXPECT_EQ(ta[0].p99, tb[0].p99);
  }
}

TEST(Telemetry, SnapshotMergesAcrossShards) {
  MetricsRegistry reg;
  parallel_for(8, [&](std::size_t) { reg.add("n"); }, 4);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].count, 8u);
}

// ------------------------------------------------------ timer histograms

TEST(Telemetry, TimerQuantilesWithinBucketError) {
  // Log-uniform durations over nine decades, all inside the bucketed range
  // [2^-10, 2^30) us: each percentile is its bucket's upper edge, so it may
  // overstate the exact nearest-rank value by at most one 1/64 slice.
  MetricsRegistry reg;
  Rng rng(23);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    const double us = std::pow(10.0, -3.0 + 9.0 * rng.uniform());
    samples.push_back(us);
    reg.observe_duration_us("t.block_us", us);
  }
  double running_sum = 0.0;
  for (const double v : samples) running_sum += v;
  std::sort(samples.begin(), samples.end());

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.timers.size(), 1u);
  const MetricValue& t = snap.timers[0];
  EXPECT_EQ(t.count, samples.size());
  EXPECT_EQ(t.min, samples.front());
  EXPECT_EQ(t.max, samples.back());
  EXPECT_NEAR(t.sum, running_sum, 1e-12 * running_sum);
  EXPECT_DOUBLE_EQ(t.mean, t.sum / static_cast<double>(samples.size()));
  const std::pair<double, double> quantiles[] = {{0.5, t.p50}, {0.9, t.p90}, {0.99, t.p99}};
  for (const auto& [q, reported] : quantiles) {
    const double exact = quantile_sorted(samples, q);
    EXPECT_GE(reported, exact) << "q=" << q;
    EXPECT_LE(reported, exact * (1.0 + 1.0 / 64.0)) << "q=" << q;
  }
}

TEST(Telemetry, TimerQuantilesStayWithinMinAndMax) {
  // One observation: every percentile is that value, not its bucket edge.
  // Values outside the bucketed range land in the under/overflow buckets
  // and still report inside [min, max].
  MetricsRegistry reg;
  reg.observe_duration_us("one", 3.0);
  reg.observe_duration_us("tiny", 0.0);
  reg.observe_duration_us("tiny", 1e-4);
  reg.observe_duration_us("huge", 5e9);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.timers.size(), 3u);
  for (const MetricValue& t : snap.timers) {
    for (const double p : {t.p50, t.p90, t.p99}) {
      EXPECT_GE(p, t.min) << t.name;
      EXPECT_LE(p, t.max) << t.name;
    }
  }
  EXPECT_EQ(snap.timers[0].p50, 5e9);  // "huge"
  EXPECT_EQ(snap.timers[1].p99, 3.0);  // "one"
}

TEST(Telemetry, SnapshotWhileRecordingIsRaceFree) {
  // The daemon's pattern: session threads record while the control thread
  // snapshots. Three recorders run until the main thread has taken 100
  // snapshots; every snapshot sees monotone counts and the final one is
  // exact.
  MetricsRegistry reg;
  constexpr int kThreads = 3;
  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::vector<std::uint64_t> recorded(kThreads, 0);
  std::vector<std::thread> threads;
  for (int k = 0; k < kThreads; ++k) {
    threads.emplace_back([&, k] {
      std::uint64_t n = 0;
      do {
        reg.add("race.stream.items");
        reg.add("race.stream.samples", 64);
        reg.observe_duration_us("race.stream.block_us", 0.5 + static_cast<double>(n % 100));
        if (++n == 1) started.fetch_add(1);
      } while (!stop.load());
      recorded[k] = n;
    });
  }
  while (started.load() < kThreads) std::this_thread::yield();
  std::uint64_t last = 0;
  for (int i = 0; i < 100; ++i) {
    // No ASSERT here: returning early would destroy unjoined threads.
    const auto snap = reg.snapshot();
    EXPECT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.timers.size(), 1u);
    if (snap.counters.empty()) continue;
    EXPECT_GE(snap.counters[0].count, last);
    last = snap.counters[0].count;
  }
  stop.store(true);
  for (auto& t : threads) t.join();

  std::uint64_t total = 0;
  for (const std::uint64_t n : recorded) total += n;
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "race.stream.items");
  EXPECT_EQ(snap.counters[0].count, total);
  EXPECT_EQ(snap.counters[1].count, 64 * total);
  ASSERT_EQ(snap.timers.size(), 1u);
  EXPECT_EQ(snap.timers[0].count, total);
  EXPECT_EQ(snap.timers[0].min, 0.5);
}

// ------------------------------------------------- short-lived threads

/// The nine per-element block timers of the benchmark's relay graph.
constexpr const char* kBlockTimers[] = {
    "stream.src.block_us",     "stream.txgain.block_us", "stream.src_cfo.block_us",
    "stream.tee.block_us",     "stream.chan_sd.block_us", "stream.chan_sr.block_us",
    "stream.relay.block_us",   "stream.chan_rd.block_us", "stream.sink.block_us"};

/// What one session thread records: the nine block timers plus one of each
/// other kind.
void record_session(MetricsRegistry& reg, int k) {
  for (const char* name : kBlockTimers)
    reg.observe_duration_us(name, 1.0 + static_cast<double>(k % 50));
  reg.add("session.blocks", 9);
  reg.set("session.last_id", static_cast<double>(k));
  reg.observe("session.value", static_cast<double>(k) * 0.5 - 7.0);
}

TEST(Telemetry, ExitedThreadsFoldIntoOneRetiredShard) {
  // A daemon records each session on a new thread. When a thread exits its
  // shard is folded into the retired one and freed, so 400 sessions leave
  // the registry holding one shard, not 400 (about 180 KB each), and the
  // snapshot counts every observation.
  constexpr int kSessions = 400;
  constexpr int kWave = 4;  // threads alive at once
  MetricsRegistry reg;
  std::size_t max_shards = 0;
  for (int first = 0; first < kSessions; first += kWave) {
    std::vector<std::thread> wave;
    for (int k = first; k < first + kWave; ++k)
      wave.emplace_back([&reg, k] { record_session(reg, k); });
    for (auto& t : wave) t.join();
    max_shards = std::max(max_shards, reg.shard_count());
  }
  // join() returns after the thread's exit fold has run.
  EXPECT_EQ(max_shards, 1u);
  EXPECT_EQ(reg.shard_count(), 1u);

  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.timers.size(), std::size(kBlockTimers));
  for (const MetricValue& t : snap.timers) {
    EXPECT_EQ(t.count, static_cast<std::uint64_t>(kSessions)) << t.name;
    EXPECT_EQ(t.min, 1.0) << t.name;
    EXPECT_EQ(t.max, 50.0) << t.name;
  }
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].count, 9u * kSessions);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, static_cast<double>(kSessions - 1));  // max
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, static_cast<std::uint64_t>(kSessions));

  // The fold is exact: apart from timer values, the report equals one made
  // with every session recorded on a single live thread.
  MetricsRegistry serial;
  for (int k = 0; k < kSessions; ++k) record_session(serial, k);
  EXPECT_EQ(snap.to_json(/*include_timer_values=*/false),
            serial.snapshot().to_json(/*include_timer_values=*/false));
}

TEST(Telemetry, RegistryDestroyedBeforeItsThreadsExitIsSafe) {
  // A thread that recorded into a registry which is destroyed before the
  // thread exits skips that registry at exit, and still folds its shard of
  // a registry that lives on.
  auto doomed = std::make_unique<MetricsRegistry>();
  MetricsRegistry kept;
  std::atomic<int> stage{0};
  std::thread worker([&] {
    doomed->add("doomed.items");
    kept.add("kept.items", 3);
    stage.store(1);
    while (stage.load() != 2) std::this_thread::yield();
  });
  while (stage.load() != 1) std::this_thread::yield();
  EXPECT_EQ(kept.shard_count(), 2u);  // the retired shard and the worker's
  doomed.reset();
  stage.store(2);
  worker.join();

  EXPECT_EQ(kept.shard_count(), 1u);
  const MetricsSnapshot snap = kept.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].count, 3u);
}

}  // namespace
}  // namespace ff
