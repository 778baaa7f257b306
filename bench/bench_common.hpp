// Shared setup for the per-figure bench binaries. Every binary regenerates
// one table/figure of the paper's evaluation (Sec. 5/6) and prints the
// series the paper plots; EXPERIMENTS.md records paper-vs-measured.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "eval/cli.hpp"
#include "eval/experiment.hpp"
#include "eval/stats.hpp"
#include "eval/table.hpp"

namespace ffbench {

using namespace ff;
using namespace ff::eval;

// ------------------------------------------------------------- experiments

/// Default full-evaluation run (2x2 MIMO, all four floor plans), shared by
/// Figs. 12/13/15/17. Deterministic.
inline ExperimentResults standard_run(std::size_t clients_per_plan = 50,
                                      bool with_af = false,
                                      double cancellation_db = 110.0,
                                      MetricsRegistry* metrics = nullptr) {
  // SIGCOMM'14 started August 17.
  return run_experiment(ExperimentConfig::for_testbed(TestbedPreset::kMimo2x2)
                            .with_clients(clients_per_plan)
                            .with_seed(20140817)
                            .with_af(with_af)
                            .with_cancellation_db(cancellation_db)
                            .with_metrics(metrics));
}

/// Print a CDF as a fixed-quantile table (one row per 5% step).
inline void print_cdf_table(const std::string& series_name, std::vector<double> values,
                            const std::string& unit) {
  Table t({"CDF", series_name + " (" + unit + ")"});
  for (int p = 5; p <= 100; p += 5)
    t.row({Table::num(p / 100.0, 2), Table::num(percentile(values, p), 2)});
  t.print();
}

/// Print several series side by side at fixed quantiles.
inline void print_cdf_columns(const std::vector<std::string>& names,
                              const std::vector<std::vector<double>>& series,
                              int step_percent = 5) {
  std::vector<std::string> headers{"CDF"};
  headers.insert(headers.end(), names.begin(), names.end());
  Table t(headers);
  for (int p = step_percent; p <= 100; p += step_percent) {
    std::vector<std::string> row{Table::num(p / 100.0, 2)};
    for (const auto& s : series) row.push_back(Table::num(percentile(s, p), 2));
    t.row(row);
  }
  t.print();
}

}  // namespace ffbench
