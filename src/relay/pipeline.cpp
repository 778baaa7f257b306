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

CVec tx_taps(const PipelineConfig& cfg) {
  return cfg.tx_filter.empty() ? CVec{Complex{1.0, 0.0}} : cfg.tx_filter;
}

}  // namespace

ForwardPipeline::ForwardPipeline(PipelineConfig cfg)
    : cfg_(std::move(cfg)),
      cfo_remove_(-cfg_.cfo_hz, cfg_.sample_rate_hz),
      cfo_restore_(cfg_.restore_cfo ? cfg_.cfo_hz : 0.0, cfg_.sample_rate_hz),
      f64_{dsp::FirFilter(cfg_.prefilter), dsp::FirFilter(tx_taps(cfg_)),
           amplitude_from_db(cfg_.gain_db) * cfg_.analog_rotation},
      f32_{dsp::FirFilter32(dsp::kernels::narrowed(cfg_.prefilter)),
           dsp::FirFilter32(dsp::kernels::narrowed(tx_taps(cfg_))),
           {static_cast<float>(f64_.gain_rotation.real()),
            static_cast<float>(f64_.gain_rotation.imag())}},
      delay_line_(std::max<std::size_t>(delay_fifo_len(), 1), Complex{}) {
  FF_CHECK(!cfg_.prefilter.empty());
  FF_CHECK_MSG(std::isfinite(cfg_.sample_rate_hz) && cfg_.sample_rate_hz > 0.0,
               "PipelineConfig.sample_rate_hz must be positive and finite, got "
                   << cfg_.sample_rate_hz);
  FF_CHECK_MSG(std::isfinite(cfg_.cfo_hz), "PipelineConfig.cfo_hz must be finite");
  FF_CHECK_MSG(std::isfinite(cfg_.gain_db), "PipelineConfig.gain_db must be finite");
  FF_CHECK_MSG(std::isfinite(cfg_.analog_rotation.real()) &&
                   std::isfinite(cfg_.analog_rotation.imag()),
               "PipelineConfig.analog_rotation must be finite");
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

std::size_t ForwardPipeline::delay_fifo_len() const {
  // With a TX filter, the converter latency lives in the filter's group
  // delay; only the artificial buffering remains a FIFO.
  if (!cfg_.tx_filter.empty()) return cfg_.extra_buffer_samples;
  return bulk_delay_samples();
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
  // Stage-wise over the block. Every stage is causal (sample i of a stage's
  // output depends only on samples <= i of its input), so where the block
  // boundaries fall moves no arithmetic and changes no bits.
  //
  // Below double width the block converts once at the edges and stays
  // narrow inside. Scrubbing and the FIFO run on the double-width values:
  // the scrub test must see the original sample, and the FIFO is a pure
  // shuffle after an exact widen(), so no arithmetic moves into f32.
  constexpr bool kNarrow = !std::is_same_v<T, double>;
  const std::size_t n = rx.size();
  std::span<std::complex<T>> buf;
  if constexpr (kNarrow)
    buf = ws_.get<T>(1, n);  // slot 0 is per-stage scratch
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
  cfo_remove_.process_into(buf, buf, ws_);
  lane.prefilter.process_into(buf, buf, ws_);
  cfo_restore_.process_into(buf, buf, ws_);
  dsp::kernels::scale(lane.gain_rotation, buf, buf);
  if (!cfg_.tx_filter.empty()) lane.tx_filter.process_into(buf, buf, ws_);
  if constexpr (kNarrow) dsp::kernels::widen(buf, out);
  if (delay_fifo_len() > 0) {
    for (std::size_t i = 0; i < n; ++i) {
      const Complex s = out[i];
      out[i] = delay_line_[delay_pos_];
      delay_line_[delay_pos_] = s;
      ++delay_pos_;
      if (delay_pos_ == delay_line_.size()) delay_pos_ = 0;
    }
  }
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
  cfo_restore_.reset();
  f64_.prefilter.reset();
  f64_.tx_filter.reset();
  f32_.prefilter.reset();
  f32_.tx_filter.reset();
  std::fill(delay_line_.begin(), delay_line_.end(), Complex{});
  delay_pos_ = 0;
  // A reset pipeline should report like a fresh one; leaving the scrub count
  // behind double-counted glitches across experiment repetitions.
  scrubbed_ = 0;
}

}  // namespace ff::relay
