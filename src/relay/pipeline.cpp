#include "relay/pipeline.hpp"

#include <cmath>
#include <type_traits>
#include <utility>

#include "common/check.hpp"
#include "common/telemetry.hpp"
#include "common/units.hpp"
#include "dsp/kernels/kernels.hpp"

namespace ff::relay {

namespace {

// Validated before anything is built from it: the taps and the rotator.
PipelineConfig validated(PipelineConfig cfg) {
  FF_CHECK(!cfg.prefilter.empty());
  FF_CHECK_MSG(std::isfinite(cfg.sample_rate_hz) && cfg.sample_rate_hz > 0.0,
               "PipelineConfig.sample_rate_hz must be positive and finite, got "
                   << cfg.sample_rate_hz);
  FF_CHECK_MSG(std::isfinite(cfg.cfo_hz), "PipelineConfig.cfo_hz must be finite");
  FF_CHECK_MSG(std::isfinite(cfg.gain_db), "PipelineConfig.gain_db must be finite");
  FF_CHECK_MSG(std::isfinite(cfg.analog_rotation.real()) &&
                   std::isfinite(cfg.analog_rotation.imag()),
               "PipelineConfig.analog_rotation must be finite");
  return cfg;
}

// h = [D zeros | g * ((p[k] * e^{+j w k}) (*) t)], pipeline.hpp's identity.
// Each output tap sums its products with k ascending, from +0.
CVec forward_taps(const PipelineConfig& cfg) {
  const std::size_t delay =
      cfg.extra_buffer_samples + (cfg.tx_filter.empty() ? cfg.adc_dac_delay_samples : 0);
  const double w = cfg.restore_cfo
                       ? std::remainder(kTwoPi * cfg.cfo_hz / cfg.sample_rate_hz, kTwoPi)
                       : 0.0;
  const Complex g = amplitude_from_db(cfg.gain_db) * cfg.analog_rotation;
  const Complex one{1.0, 0.0};
  const CSpan t = cfg.tx_filter.empty() ? CSpan{&one, 1} : CSpan{cfg.tx_filter};
  CVec h(delay + cfg.prefilter.size() + t.size() - 1, Complex{});
  for (std::size_t k = 0; k < cfg.prefilter.size(); ++k) {
    const Complex q = cfg.prefilter[k] * std::polar(1.0, w * static_cast<double>(k));
    for (std::size_t j = 0; j < t.size(); ++j) h[delay + k + j] += q * t[j];
  }
  for (std::size_t m = delay; m < h.size(); ++m) h[m] = g * h[m];
  return h;
}

}  // namespace

ForwardPipeline::ForwardPipeline(PipelineConfig cfg)
    : cfg_(validated(std::move(cfg))),
      cfo_remove_(-cfg_.cfo_hz, cfg_.sample_rate_hz),
      f64_{dsp::FirFilter(forward_taps(cfg_))},
      f32_{dsp::FirFilter32(dsp::kernels::narrowed(f64_.fir.taps()))} {
  // A registry given at construction records what attaching it later would.
  set_metrics(std::exchange(cfg_.metrics, nullptr));
}

void ForwardPipeline::set_metrics(MetricsRegistry* metrics) {
  if (metrics == cfg_.metrics) return;
  cfg_.metrics = metrics;
  if (cfg_.metrics) {
    metrics::add(cfg_.metrics, "relay.pipeline.instances");
    metrics::observe(cfg_.metrics, "relay.pipeline.max_delay_s", max_delay_s());
    metrics::set(cfg_.metrics, "relay.pipeline.prefilter_taps",
                 static_cast<double>(cfg_.prefilter.size()));
    // Which arithmetic width the forward path runs at (64 or 32) — like
    // ff.kernels.isa, the tag that lets a snapshot explain a perf delta.
    metrics::set(cfg_.metrics, "ff.kernels.precision",
                 cfg_.precision == Precision::kF32 ? 32.0 : 64.0);
  }
}

double ForwardPipeline::max_delay_s() const {
  return (static_cast<double>(bulk_delay_samples()) +
          static_cast<double>(cfg_.prefilter.size() - 1)) /
         cfg_.sample_rate_hz;
}

CVec ForwardPipeline::process(CSpan rx) {
  CVec out(rx.size());
  process_into(rx, out);
  return out;
}

void ForwardPipeline::process_into(CSpan rx, CMutSpan out) {
  FF_CHECK_MSG(out.size() == rx.size(),
               "ForwardPipeline::process_into needs out.size() == rx.size(), got "
                   << out.size() << " vs " << rx.size());
  const std::uint64_t scrubbed_before = scrubbed_;
  if (!rx.empty()) {
    if (cfg_.precision == Precision::kF32)
      run(rx, out, f32_);
    else
      run(rx, out, f64_);
  }
  // Counted per batch, not per sample: the hot loops stay metrics-free.
  metrics::add(cfg_.metrics, "relay.pipeline.samples", rx.size());
  if (scrubbed_ > scrubbed_before)
    metrics::add(cfg_.metrics, "relay.pipeline.scrubbed", scrubbed_ - scrubbed_before);
}

template <typename T>
void ForwardPipeline::run(CSpan rx, CMutSpan out, Lane<T>& lane) {
  // Below double width the block converts once at the edges and stays
  // narrow inside. The scrub runs on the double-width values: its test must
  // see the original sample.
  constexpr bool kNarrow = !std::is_same_v<T, double>;
  const std::size_t n = rx.size();
  std::span<std::complex<T>> buf;
  if constexpr (kNarrow)
    buf = ws_.get<T>(1, n);  // slot 0 is the FIR's (and rotator's) scratch
  else
    buf = out;
  for (std::size_t i = 0; i < n; ++i) {
    Complex v = rx[i];
    if (cfg_.scrub_nonfinite && (!std::isfinite(v.real()) || !std::isfinite(v.imag()))) {
      v = Complex{};
      ++scrubbed_;
    }
    buf[i] = {static_cast<T>(v.real()), static_cast<T>(v.imag())};
  }
  if (!cfg_.restore_cfo) cfo_remove_.process_into(buf, buf, ws_);
  lane.fir.process_into(buf, buf, ws_);
  if constexpr (kNarrow) dsp::kernels::widen(buf, out);
  if (cfg_.metrics && ws_.grows<T>() > lane.ws_grows_reported) {
    // Workspace growth only ever happens in the first blocks; a quiet
    // ff.alloc.workspace_grows (or _f32_grows) counter is the telemetry
    // proof that the steady-state path performs zero heap allocations.
    metrics::add(cfg_.metrics,
                 kNarrow ? "ff.alloc.workspace_f32_grows" : "ff.alloc.workspace_grows",
                 ws_.grows<T>() - lane.ws_grows_reported);
    lane.ws_grows_reported = ws_.grows<T>();
    metrics::set(cfg_.metrics,
                 kNarrow ? "ff.alloc.workspace_f32_bytes" : "ff.alloc.workspace_bytes",
                 static_cast<double>(ws_.bytes<T>()));
  }
}

void ForwardPipeline::reset() {
  cfo_remove_.reset();
  f64_.fir.reset();
  f32_.fir.reset();
  // A reset pipeline should report like a fresh one; leaving the scrub count
  // behind double-counted glitches across experiment repetitions.
  scrubbed_ = 0;
}

}  // namespace ff::relay
