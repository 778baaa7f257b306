#include "fullduplex/tuner.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/telemetry.hpp"
#include "common/units.hpp"
#include "dsp/correlation.hpp"
#include "dsp/fir.hpp"
#include "fullduplex/digital_canceller.hpp"

namespace ff::fd {

CVec inject_probe(Rng& rng, CMutSpan tx, double level_below_signal_db,
                  MetricsRegistry* metrics) {
  const double sig_power = dsp::mean_power(tx);
  const double probe_power = sig_power * power_from_db(-level_below_signal_db);
  CVec probe(tx.size());
  for (std::size_t i = 0; i < tx.size(); ++i) {
    probe[i] = rng.cgaussian(probe_power);
    tx[i] += probe[i];
  }
  ff::metrics::add(metrics, "fd.probe.injections");
  ff::metrics::set(metrics, "fd.probe.level_below_signal_db", level_below_signal_db);
  return probe;
}

CVec estimate_si_fir_probe(CSpan probe, CSpan rx, std::size_t taps) {
  return estimate_fir_ls_fast(probe, rx, taps, /*lookahead=*/0, /*ridge=*/1e-12);
}

CVec estimate_si_fir_probe_iterative(CSpan probe, CSpan tx, CSpan rx, std::size_t taps,
                                     int iterations, MetricsRegistry* metrics) {
  FF_CHECK(tx.size() == rx.size() && probe.size() == rx.size());
  // Convergence condition: each round shrinks the estimation error by
  // roughly (taps / N) * (P_tx / P_probe); the record must be long enough
  // that this factor is < 1 (the hardware adapts over ms-scale windows, i.e.
  // tens of thousands of samples, for the same reason).
  CVec h(taps, Complex{});
  CVec best_h = h;
  double best_power = dsp::mean_power(rx);
  CVec residual(rx.begin(), rx.end());
  int stall = 0;
  int executed = 0;
  for (int it = 0; it < iterations; ++it) {
    ++executed;
    const CVec delta = estimate_si_fir_probe(probe, residual, taps);
    for (std::size_t k = 0; k < taps; ++k) h[k] += delta[k];
    const CVec recon = dsp::filter(h, tx);
    for (std::size_t i = 0; i < rx.size(); ++i) residual[i] = rx[i] - recon[i];
    const double p = dsp::mean_power(residual);
    if (p < best_power * 0.999) {
      best_power = p;
      best_h = h;
      stall = 0;
    } else if (++stall >= 3) {
      break;  // diverging or converged — keep the best setting seen
    }
  }
  ff::metrics::add(metrics, "relay.tuner.calls");
  ff::metrics::add(metrics, "relay.tuner.iterations", static_cast<std::uint64_t>(executed));
  ff::metrics::observe(metrics, "relay.tuner.residual_dbm", db_from_power(best_power));
  return best_h;
}

CVec fir_response_on_grid(CSpan fir, RSpan f_bb_hz, double sample_rate_hz) {
  CVec out(f_bb_hz.size());
  for (std::size_t i = 0; i < f_bb_hz.size(); ++i) {
    const double f_norm = f_bb_hz[i] / sample_rate_hz;
    const Complex h = dsp::freq_response(fir, f_norm);
    // De-rotate the shared alignment delay so the value is comparable with
    // MultipathChannel::response (which has no alignment term).
    const double ang = kTwoPi * f_norm * static_cast<double>(kSiAlignSamples);
    out[i] = h * Complex{std::cos(ang), std::sin(ang)};
  }
  return out;
}

}  // namespace ff::fd
