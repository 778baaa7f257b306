#include "eval/experiment.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/seeding.hpp"
#include "common/telemetry.hpp"
#include "dsp/kernels/kernels.hpp"
#include "eval/stats.hpp"

namespace ff::eval {

std::string to_string(LinkCategory c) {
  switch (c) {
    case LinkCategory::kLowSnrLowRank: return "low-SNR/low-rank";
    case LinkCategory::kMediumSnrLowRank: return "medium-SNR/low-rank";
    case LinkCategory::kHighSnrHighRank: return "high-SNR/high-rank";
    case LinkCategory::kOther: return "other";
  }
  return "?";
}

std::string category_slug(LinkCategory c) {
  switch (c) {
    case LinkCategory::kLowSnrLowRank: return "low_snr_low_rank";
    case LinkCategory::kMediumSnrLowRank: return "medium_snr_low_rank";
    case LinkCategory::kHighSnrHighRank: return "high_snr_high_rank";
    case LinkCategory::kOther: return "other";
  }
  return "unknown";
}

LinkCategory categorize(double baseline_snr_db, std::size_t baseline_streams,
                        std::size_t max_streams) {
  // Exhaustive partition mirroring Sec. 5.3: coverage-edge clients (low SNR
  // — rank is degraded there too), pinhole victims (usable SNR but fewer
  // streams than antennas), and healthy near-AP links.
  const bool low_rank = baseline_streams < max_streams;
  if (baseline_snr_db < 10.0) return LinkCategory::kLowSnrLowRank;
  if (low_rank) return LinkCategory::kMediumSnrLowRank;
  return LinkCategory::kHighSnrHighRank;
}

std::string to_string(Scheme s) {
  switch (s) {
    case Scheme::kApOnly: return "ap_only";
    case Scheme::kHdMesh: return "hd_mesh";
    case Scheme::kFastForward: return "ff";
    case Scheme::kAmplifyForward: return "af";
  }
  return "?";
}

double scheme_mbps(const SchemeResult& r, Scheme s) {
  switch (s) {
    case Scheme::kApOnly: return r.ap_only_mbps;
    case Scheme::kHdMesh: return r.hd_mesh_mbps;
    case Scheme::kFastForward: return r.ff_mbps;
    case Scheme::kAmplifyForward: return r.af_mbps;
  }
  return 0.0;
}

Scheme winner(const SchemeResult& r) {
  Scheme best = Scheme::kApOnly;
  double best_mbps = scheme_mbps(r, best);
  for (const Scheme s : kAllSchemes) {
    const double m = scheme_mbps(r, s);
    if (m > best_mbps) {
      best = s;
      best_mbps = m;
    }
  }
  return best;
}

TestbedConfig make_testbed(TestbedPreset preset) {
  TestbedConfig tb;
  switch (preset) {
    case TestbedPreset::kMimo2x2: break;  // the defaults ARE the 2x2 testbed
    case TestbedPreset::kSiso: tb.antennas = 1; break;
  }
  return tb;
}

std::vector<double> ExperimentResults::throughputs(Scheme s) const {
  std::vector<double> out;
  out.reserve(locations_.size());
  for (const auto& r : locations_) out.push_back(scheme_mbps(r.schemes, s));
  return out;
}

std::vector<double> ExperimentResults::gains_vs_hd(Scheme s) const {
  std::vector<double> out;
  out.reserve(locations_.size());
  for (const auto& r : locations_) {
    const double hd = r.schemes.hd_mesh_mbps;
    if (hd > 0.0) out.push_back(scheme_mbps(r.schemes, s) / hd);
  }
  return out;
}

ExperimentResults ExperimentResults::by_category(LinkCategory c) const {
  std::vector<LocationResult> subset;
  for (const auto& r : locations_)
    if (r.category == c) subset.push_back(r);
  return ExperimentResults(std::move(subset));
}

ExperimentSummary ExperimentResults::summary() const {
  ExperimentSummary s;
  s.locations = locations_.size();
  for (const auto& r : locations_) {
    s.category_counts[static_cast<std::size_t>(r.category)]++;
    s.wins[static_cast<std::size_t>(winner(r.schemes))]++;
  }
  for (const Scheme scheme : kAllSchemes) {
    const auto t = throughputs(scheme);
    s.median_mbps[static_cast<std::size_t>(scheme)] = t.empty() ? 0.0 : median(t);
  }
  return s;
}

namespace {

/// Fold raw bytes into an FNV-1a accumulator (bit-exact for the
/// little-endian IEEE-754 doubles this codebase runs on).
std::uint64_t fnv1a_fold(std::uint64_t h, const void* bytes, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace

std::uint64_t ExperimentResults::checksum() const {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const auto& r : locations_) {
    h = fnv1a_fold(h, r.plan.data(), r.plan.size());
    const double fields[] = {r.client.x,
                             r.client.y,
                             r.schemes.ap_only_mbps,
                             r.schemes.hd_mesh_mbps,
                             r.schemes.ff_mbps,
                             r.schemes.af_mbps,
                             r.schemes.baseline_snr_db,
                             static_cast<double>(r.schemes.baseline_streams),
                             static_cast<double>(r.category)};
    h = fnv1a_fold(h, fields, sizeof(fields));
  }
  return h;
}

relay::DesignOptions default_design_options(const TestbedConfig& cfg) {
  relay::DesignOptions opts;
  opts.f_grid_hz = cfg.ofdm.used_subcarrier_freqs();
  // The split runs at the prototype's 80 Msps converter rate (its default);
  // only the frequency grid depends on the PHY numerology.
  return opts;
}

namespace {

/// Serial post-pass: aggregate tallies that describe the WHOLE experiment.
/// Runs after the parallel phase so recording order — and therefore the
/// snapshot — is independent of the thread schedule.
void record_experiment_metrics(const ExperimentConfig& cfg,
                               const ExperimentResults& results) {
  MetricsRegistry* m = cfg.metrics;
  metrics::add(m, "eval.experiments");
  metrics::add(m, "eval.locations", results.size());
  // Which kernel ISA this process resolved (docs/PERFORMANCE.md, "Kernel
  // layer") — the tag that lets a telemetry snapshot explain a perf delta.
  metrics::set(m, "ff.kernels.isa",
               static_cast<double>(static_cast<int>(dsp::kernels::active_isa())));
  // Which arithmetic width the experiment ran at. The eval path is float64
  // end to end (the float32 family is a stream-runtime fast path, see
  // docs/PERFORMANCE.md "The float32 family"), so this is a constant tag —
  // recorded anyway so snapshots from mixed deployments stay comparable.
  metrics::set(m, "ff.kernels.precision", 64.0);
  const ExperimentSummary s = results.summary();
  for (std::size_t c = 0; c < s.category_counts.size(); ++c)
    metrics::add(m, "eval.category." + category_slug(static_cast<LinkCategory>(c)),
                 s.category_counts[c]);
  for (const Scheme scheme : kAllSchemes) {
    const auto i = static_cast<std::size_t>(scheme);
    // AF wins/medians are only meaningful when AF was evaluated.
    if (scheme == Scheme::kAmplifyForward && !cfg.evaluate_af) continue;
    metrics::add(m, "eval.wins." + to_string(scheme), s.wins[i]);
    metrics::set(m, "eval.median_mbps." + to_string(scheme), s.median_mbps[i]);
  }
}

}  // namespace

ExperimentResults run_experiment(const ExperimentConfig& cfg) {
  FF_CHECK_MSG(cfg.clients_per_plan > 0,
               "ExperimentConfig.clients_per_plan must be positive — an experiment "
               "with no clients has no results to aggregate");
  FF_CHECK_MSG(std::isfinite(cfg.testbed.cancellation_db),
               "TestbedConfig.cancellation_db must be finite");
  MetricsRegistry::ScopedTimer experiment_timer(cfg.metrics, "eval.experiment.wall_us");

  SchemeOptions sopts;
  sopts.evaluate_af = cfg.evaluate_af;
  sopts.design = default_design_options(cfg.testbed);
  // Design metrics flow through the same sink. They are recorded from the
  // parallel phase, but every record is an order-independent merge (counter
  // sums, sample sets), so the snapshot stays thread-count-invariant.
  sopts.design.metrics = cfg.metrics;

  // Phase 1 (serial): draw every client location and fork one RNG stream per
  // location, in a fixed order. This pins all randomness up front, so the
  // expensive phase below can run its locations in any schedule — on any
  // number of threads — and still produce bit-identical results.
  struct LocationJob {
    const Placement* placement = nullptr;
    channel::Point client{};
    Rng rng{0};
  };
  const auto plans = channel::FloorPlan::evaluation_set();
  std::vector<Placement> placements;
  placements.reserve(plans.size());
  std::vector<LocationJob> jobs;
  jobs.reserve(plans.size() * cfg.clients_per_plan);

  Rng master(cfg.seed);
  for (const auto& plan : plans) {
    placements.push_back(make_placement(plan));
    Rng plan_rng = seeding::fork_named(master, plan.name());
    for (std::size_t c = 0; c < cfg.clients_per_plan; ++c) {
      LocationJob job;
      job.placement = &placements.back();
      job.client = random_client_location(plan, plan_rng);
      job.rng = seeding::fork_indexed(plan_rng, c);
      jobs.push_back(std::move(job));
    }
  }

  // Phase 2 (parallel): each location evaluates independently from its own
  // RNG stream and writes only its own slot of the pre-sized output.
  std::vector<LocationResult> out(jobs.size());
  parallel_for(
      jobs.size(),
      [&](std::size_t i) {
        MetricsRegistry::ScopedTimer location_timer(cfg.metrics, "eval.location.wall_us");
        LocationJob& job = jobs[i];
        LocationResult r;
        r.plan = job.placement->plan.name();
        r.client = job.client;
        const relay::RelayLink link =
            build_link(*job.placement, job.client, cfg.testbed, job.rng);
        r.schemes = evaluate_location(link, sopts);
        r.category = categorize(r.schemes.baseline_snr_db, r.schemes.baseline_streams,
                                cfg.testbed.antennas);
        out[i] = std::move(r);
      },
      cfg.threads);

  ExperimentResults results(std::move(out));
  if (cfg.metrics) record_experiment_metrics(cfg, results);
  return results;
}

}  // namespace ff::eval
