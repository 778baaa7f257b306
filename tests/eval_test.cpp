// Tests for the evaluation harness: statistics, testbed generation, scheme
// comparison, categorization, heatmaps.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/telemetry.hpp"
#include "common/units.hpp"
#include "eval/experiment.hpp"
#include "eval/heatmap.hpp"
#include "eval/schemes.hpp"
#include "eval/stats.hpp"
#include "eval/table.hpp"
#include "eval/testbed.hpp"

namespace ff {
namespace {

using namespace eval;

// ---------------------------------------------------------- stats

TEST(Stats, PercentilesOfKnownSequence) {
  const std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_NEAR(percentile(v, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(percentile(v, 100.0), 10.0, 1e-12);
  EXPECT_NEAR(median(v), 5.5, 1e-12);
  EXPECT_NEAR(percentile(v, 25.0), 3.25, 1e-12);
}

TEST(Stats, MedianIsOrderInvariant) {
  EXPECT_NEAR(median({3, 1, 2}), 2.0, 1e-12);
  EXPECT_NEAR(median({2, 3, 1}), 2.0, 1e-12);
}

TEST(Stats, CdfIsMonotone) {
  const auto cdf = make_cdf({5, 1, 3, 3, 2});
  for (std::size_t i = 0; i + 1 < cdf.size(); ++i) {
    EXPECT_LE(cdf[i].value, cdf[i + 1].value);
    EXPECT_LT(cdf[i].prob, cdf[i + 1].prob);
  }
  EXPECT_NEAR(cdf.back().prob, 1.0, 1e-12);
}

TEST(Stats, ResampleCdfEndsAtMax) {
  const auto cdf = make_cdf({1, 2, 3, 4, 5, 6, 7, 8});
  const auto rs = resample_cdf(cdf, 4);
  ASSERT_EQ(rs.size(), 4u);
  EXPECT_NEAR(rs.back().value, 8.0, 1e-12);
  EXPECT_NEAR(rs.back().prob, 1.0, 1e-12);
}

TEST(Stats, RatiosHandleZeroDenominator) {
  const auto r = ratios({4.0, 5.0}, {2.0, 0.0});
  EXPECT_NEAR(r[0], 2.0, 1e-12);
  EXPECT_NEAR(r[1], 0.0, 1e-12);
}

// ---------------------------------------------------------- table

TEST(Table, FormatsAlignedColumns) {
  Table t({"a", "long-header"});
  t.row({"1", "2"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("long-header"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
}

// ---------------------------------------------------------- testbed

TEST(Testbed, PlacementInsidePlan) {
  for (const auto& plan : channel::FloorPlan::evaluation_set()) {
    const auto p = make_placement(plan);
    EXPECT_GT(p.ap.x, 0.0);
    EXPECT_LT(p.ap.x, plan.width());
    EXPECT_GT(p.relay.y, 0.0);
    EXPECT_LT(p.relay.y, plan.height());
  }
}

TEST(Testbed, LinkHasAllSubcarriers) {
  const TestbedConfig cfg;
  const auto plan = channel::FloorPlan::paper_home();
  Rng rng(1);
  const auto link = build_link(make_placement(plan), {6.0, 4.0}, cfg, rng);
  EXPECT_EQ(link.subcarriers(), 56u);
  EXPECT_EQ(link.h_sd[0].rows(), 2u);
  EXPECT_FALSE(link.siso());
}

TEST(Testbed, SisoConfigProducesSisoLink) {
  TestbedConfig cfg;
  cfg.antennas = 1;
  const auto plan = channel::FloorPlan::paper_home();
  Rng rng(2);
  const auto link = build_link(make_placement(plan), {6.0, 4.0}, cfg, rng);
  EXPECT_TRUE(link.siso());
}

TEST(Testbed, ChainDelayRampIsApplied) {
  // The h_rd responses must carry the relay chain's linear phase ramp:
  // compare two configs differing only in chain delay.
  TestbedConfig a, b;
  a.relay_chain_delay_s = 0.0;
  b.relay_chain_delay_s = 100e-9;
  const auto plan = channel::FloorPlan::paper_home();
  Rng rng_a(3), rng_b(3);
  const auto la = build_link(make_placement(plan), {6.0, 4.0}, a, rng_a);
  const auto lb = build_link(make_placement(plan), {6.0, 4.0}, b, rng_b);
  const auto freqs = a.ofdm.used_subcarrier_freqs();
  for (const std::size_t i : {0u, 28u, 55u}) {
    const Complex ratio = lb.h_rd[i](0, 0) / la.h_rd[i](0, 0);
    EXPECT_NEAR(std::arg(ratio), std::remainder(-kTwoPi * freqs[i] * 100e-9, kTwoPi), 1e-6);
  }
}

TEST(Testbed, GridCoversThePlan) {
  const auto plan = channel::FloorPlan::paper_home();
  const auto grid = grid_locations(plan, 1.0);
  EXPECT_GE(grid.size(), 48u);  // 9 x 6.5 at 1 m
  for (const auto& p : grid) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, plan.width());
  }
}

// ---------------------------------------------------------- schemes

TEST(Schemes, HdMeshNeverWorseThanApOnly) {
  const ExperimentConfig cfg{.clients_per_plan = 6, .seed = 5};
  const auto results = run_experiment(cfg);
  for (const auto& r : results)
    EXPECT_GE(r.schemes.hd_mesh_mbps, r.schemes.ap_only_mbps - 1e-9) << r.plan;
}

TEST(Schemes, FfBeatsHdMeshOnAggregate) {
  const ExperimentConfig cfg{.clients_per_plan = 12, .seed = 6};
  const auto results = run_experiment(cfg);
  const auto ff = results.throughputs(Scheme::kFastForward);
  const auto hd = results.throughputs(Scheme::kHdMesh);
  EXPECT_GT(median(ff), median(hd));
}

TEST(Schemes, CategoriesPartitionResults) {
  const ExperimentConfig cfg{.clients_per_plan = 10, .seed = 7};
  const auto results = run_experiment(cfg);
  std::size_t counted = 0;
  for (const auto& r : results)
    if (r.category != LinkCategory::kOther) ++counted;
  EXPECT_EQ(counted, results.size());  // the partition is exhaustive
}

TEST(Schemes, CategorizeBoundaries) {
  EXPECT_EQ(categorize(5.0, 1, 2), LinkCategory::kLowSnrLowRank);
  EXPECT_EQ(categorize(15.0, 1, 2), LinkCategory::kMediumSnrLowRank);
  EXPECT_EQ(categorize(30.0, 2, 2), LinkCategory::kHighSnrHighRank);
  EXPECT_EQ(categorize(5.0, 0, 2), LinkCategory::kLowSnrLowRank);  // dead zone
}

TEST(Schemes, RelayNoiseEntersTheRateComputation) {
  // A location where the FF design is noise-limited: silently dropping the
  // injected-noise term would inflate throughput.
  const TestbedConfig cfg;
  const auto plan = channel::FloorPlan::paper_home();
  Rng rng(8);
  const auto link = build_link(make_placement(plan), {8.0, 5.5}, cfg, rng);
  SchemeOptions opts;
  opts.design = default_design_options(cfg);
  const auto design = relay::design_ff_relay(link, opts.design);
  const auto with_noise = relayed_rate(link, design);
  auto design_no_noise = design;
  std::fill(design_no_noise.relay_noise_mw.begin(), design_no_noise.relay_noise_mw.end(), 0.0);
  const auto without = relayed_rate(link, design_no_noise);
  EXPECT_GE(without.throughput_mbps, with_noise.throughput_mbps);
}

// ---------------------------------------------------------- checksum

// The figure benches' sweep (bench_common.hpp's standard_run): its checksum
// is the pinned experiment result, at any thread count. Each run records
// into a fresh registry, so this also proves that recording telemetry does
// not move the results and that the ff-metrics-v1 snapshot, timer values
// aside, is byte-identical however the locations were sharded.
TEST(ExperimentResults, ChecksumPinnedAtOneAndFourThreads) {
  // The metrics docs/OBSERVABILITY.md promises for an experiment run.
  const std::vector<std::string> required = {
      "eval.experiments",        "eval.locations",         "ff.kernels.isa",
      "ff.kernels.precision",    "eval.category.low_snr_low_rank",
      "eval.wins.ff",            "eval.median_mbps.ff",    "relay.design.ff",
      "relay.design.gain_db",    "relay.cnf.split_error_db",
      "eval.experiment.wall_us", "eval.location.wall_us"};
  std::vector<std::string> canonical;
  for (const std::size_t threads : {1u, 4u}) {
    MetricsRegistry registry;
    const auto results = run_experiment(ExperimentConfig::for_testbed(TestbedPreset::kMimo2x2)
                                            .with_clients(50)
                                            .with_seed(20140817)
                                            .with_threads(threads)
                                            .with_metrics(&registry));
    EXPECT_EQ(results.checksum(), 0x518fed5126199c41ULL) << threads << " threads";

    const MetricsSnapshot snap = registry.snapshot();
    canonical.push_back(snap.to_json(/*include_timer_values=*/false));
    std::vector<std::string> names;
    for (const auto* section : {&snap.counters, &snap.gauges, &snap.histograms, &snap.timers}) {
      for (const auto& m : *section) names.push_back(m.name);
    }
    for (const auto& name : required) {
      EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
          << name << " missing at " << threads << " threads";
    }
    for (const auto& c : snap.counters) {
      if (c.name == "eval.locations") {
        EXPECT_EQ(c.count, 200u) << "50 clients x 4 plans";
      }
    }
  }
  EXPECT_EQ(canonical[0], canonical[1]);
}

// ---------------------------------------------------------- heatmap

TEST(Heatmap, RendersExpectedDimensions) {
  const auto plan = channel::FloorPlan::paper_home();
  HeatmapConfig cfg;
  cfg.step_m = 0.5;
  const std::string map =
      render_heatmap(plan, [](double x, double) { return x * 3.0; }, cfg);
  // 9 m / 0.5 m = 18 columns, 6.5 / 0.5 = 13 rows + legend.
  std::size_t rows = 0, cols = 0;
  for (const char c : map)
    if (c == '\n') ++rows;
  cols = map.find('\n');
  EXPECT_EQ(cols, 18u);
  EXPECT_EQ(rows, 14u);  // 13 grid rows + legend line
}

TEST(Heatmap, ShadesMonotonically) {
  const auto plan = channel::FloorPlan::paper_home();
  HeatmapConfig cfg;
  cfg.step_m = 1.0;
  cfg.min_value = 0.0;
  cfg.max_value = 9.0;
  const std::string map = render_heatmap(plan, [](double x, double) { return x; }, cfg);
  // First row: shade characters must be non-decreasing in x.
  const std::string row = map.substr(0, map.find('\n'));
  static const std::string shades = " .:-=+*%@#";
  for (std::size_t i = 0; i + 1 < row.size(); ++i)
    EXPECT_LE(shades.find(row[i]), shades.find(row[i + 1]));
}

}  // namespace
}  // namespace ff
