// Cancellation tuning for a full-duplex RELAY (Sec. 3.3).
//
// Tuning a relay's canceller is harder than a normal full-duplex radio's:
// the transmitted signal is a delayed copy of the received signal, so a
// naive frequency-domain estimate H(f) = Y(f)/X_T(f) converges to
// alpha(f) + H(f) (alpha = the source-signal term) and the "canceller" then
// nulls the desired signal too. FF's fix: inject known Gaussian probe noise
// ~30 dB below the transmitted signal, and estimate the self-interference
// channel by regressing the received signal against the probe alone — the
// probe never traverses the source path, so the estimate is unbiased.
#pragma once

#include "common/rng.hpp"
#include "common/types.hpp"
#include "fullduplex/si_channel.hpp"

namespace ff {
class MetricsRegistry;
}

namespace ff::fd {

struct ProbeConfig {
  double level_below_signal_db = 30.0;  // paper: 30 dB below the TX signal
  std::size_t est_taps = 24;            // FIR taps for the probe-based estimate
};

/// Add probe noise to a transmit stream. Returns the noise that was added
/// (the tuner correlates against it). With a registry, each injection is
/// counted (`fd.probe.injections`) alongside its configured level.
CVec inject_probe(Rng& rng, CMutSpan tx, double level_below_signal_db,
                  MetricsRegistry* metrics = nullptr);

/// Estimate the (discretized, alignment-grid) SI channel FIR by least
/// squares of `rx` against the known injected `probe` only.
CVec estimate_si_fir_probe(CSpan probe, CSpan rx, std::size_t taps);

/// Iterative probe-based estimation (what the hardware tuning loop does:
/// observe the residual after the current canceller setting, correlate with
/// the probe, update). Each round removes self-interference using the full
/// transmitted stream, so the probe regression sees less interference and
/// the estimate sharpens. Iteration stops early when the residual stops
/// improving; the record must be long enough that taps/N * P_tx/P_probe < 1
/// or the first estimate is the best one obtainable. A registry records the
/// convergence behaviour (`relay.tuner.iterations`, the executed round
/// count, and `relay.tuner.residual_dbm`, the best residual power reached).
CVec estimate_si_fir_probe_iterative(CSpan probe, CSpan tx, CSpan rx, std::size_t taps,
                                     int iterations = 12,
                                     MetricsRegistry* metrics = nullptr);

/// Evaluate a sample-spaced FIR (on the kSiAlignSamples grid) at baseband
/// frequencies, de-rotated so it is directly comparable with
/// MultipathChannel::response on the same grid.
CVec fir_response_on_grid(CSpan fir, RSpan f_bb_hz, double sample_rate_hz);

}  // namespace ff::fd
