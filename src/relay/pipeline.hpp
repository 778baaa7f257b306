// Sample-level relay forward path (Sec. 4.1 + 4.3).
//
// After the canceller every stage is linear and time-invariant, so the
// pipeline runs the whole path as one FIR whose taps are built once, in
// double, at construction:
//
//   h = [D zeros | g * ((p[k] * e^{+j w k}) (*) t)]
//
// Stages, in order, with their latency at 20 Msps and their place in h:
//   ADC                      ~0.5 sample   in D (adc_dac_delay)
//   CFO correction           0             e^{-j w n}, folded into p
//   causal digital cancel    0             (the Sec. 3.3 invention; upstream)
//   digital CNF pre-filter   (taps-1) * Ts of delay spread: p
//   CFO restore              0             e^{+j w n}, folded into p
//   amplify                  0             |g| = amplitude_from_db(gain_db)
//   DAC                      ~0.5 sample   in D, or t's group delay
//   analog CNF rotator       ~0.3 ns       arg g (analog_rotation)
//   TX filter                (taps-1)/2    t ([1] when tx_filter is empty)
//   extra buffering          extra_buffer  in D
//
// D is adc_dac_delay + extra_buffer samples, or extra_buffer alone when a
// TX filter carries the converter latency; BasicFirFilter skips the leading
// zeros as an integer delay line. w = 2*pi*cfo/fs reduced into (-pi, pi],
// the CfoRotator's own step.
//
// The CFO trick: the relay corrects the source's carrier offset for its own
// processing, then re-applies it before transmission, so the destination
// sees one consistent offset across the direct and relayed paths and its
// own CFO correction still works. Remove, filter, restore is itself a
// filter: x[n-k] e^{-j w (n-k)} p[k] e^{+j w n} = p[k] e^{+j w k} x[n-k].
// The restore_cfo=false ablation keeps the removal only: a CfoRotator at
// -cfo runs ahead of the same FIR built with w = 0.
#pragma once

#include "channel/cfo.hpp"
#include "common/types.hpp"
#include "dsp/fir.hpp"
#include "dsp/kernels/workspace.hpp"
#include "phy/params.hpp"

namespace ff {
class MetricsRegistry;
}

namespace ff::relay {

struct PipelineConfig {
  double sample_rate_hz = 20e6;
  std::size_t adc_dac_delay_samples = 1;   // 50 ns at 20 Msps (paper's figure)
  std::size_t extra_buffer_samples = 0;    // artificial latency (Fig. 16 sweeps)
  double cfo_hz = 0.0;                     // relay's estimate of the source CFO
  bool restore_cfo = true;                 // Sec. 4.1 (ablation: false)
  CVec prefilter{Complex{1.0, 0.0}};       // digital CNF taps
  Complex analog_rotation{1.0, 0.0};       // analog CNF response at carrier
  double gain_db = 0.0;
  /// DAC reconstruction / TX low-pass filter. When non-empty it REPLACES
  /// the plain ADC/DAC delay (D above): its group delay ((taps-1)/2 samples)
  /// should equal adc_dac_delay_samples, since in real hardware those
  /// filters ARE where the converter latency lives. It is what keeps
  /// amplified out-of-band receiver noise from reaching the antenna.
  CVec tx_filter{};
  /// Scrub non-finite input samples, forwarding 0 in their place. A single
  /// NaN from a glitching converter would otherwise live in the FIR delay
  /// lines forever and poison every later output; zeroing is what real
  /// front-ends do (a clamped/blanked sample) and bounds the damage to the
  /// filter memory around the glitch. Scrubbed samples are counted as
  /// `relay.pipeline.scrubbed` when metrics is set.
  bool scrub_nonfinite = true;
  /// Optional metrics sink: construction records the pipeline's worst-case
  /// forward delay (`relay.pipeline.max_delay_s`) and prefilter tap count;
  /// process() counts forwarded samples. Default nullptr records nothing.
  MetricsRegistry* metrics = nullptr;
  /// Arithmetic precision of the forward path. kF32 converts each block to
  /// float32 once on entry, runs the forward FIR (and the ablation's CFO
  /// rotator) on the f32 kernel family (double the SIMD lanes), and widens
  /// once on exit — the mixed-precision fast path (docs/PERFORMANCE.md, "The
  /// float32 family"). The taps are built in double and narrowed once, and
  /// the CFO phase recurrence stays double; only the sample stream narrows.
  /// f32 output is deterministic (its own pinned checksum family) but
  /// numerically distinct from kF64, the accuracy reference.
  Precision precision = Precision::kF64;
};

/// Streaming forward-path processor. Feed blocks of received (already
/// SI-cancelled) samples, get transmit samples with all latencies applied.
class ForwardPipeline {
 public:
  explicit ForwardPipeline(PipelineConfig cfg);

  const PipelineConfig& config() const { return cfg_; }

  /// Bulk (integer-sample) delay of the pipeline: ADC/DAC + extra buffering.
  /// The pre-filter's delay spread rides on top via its tap positions.
  std::size_t bulk_delay_samples() const {
    return cfg_.adc_dac_delay_samples + cfg_.extra_buffer_samples;
  }

  /// Worst-case extra delay of any relayed signal component (seconds):
  /// bulk delay plus the last pre-filter tap.
  double max_delay_s() const;

  CVec process(CSpan rx);

  /// Process a block into a caller-owned buffer (stateful). `out` must be
  /// exactly rx.size() samples and may alias `rx`: the streaming runtime's
  /// allocation-free block path. Metrics accounting matches process().
  ///
  /// Runs two sweeps over the block: the scrub, then the one forward FIR
  /// (h above; the restore_cfo=false ablation rotates by -cfo in between).
  /// Both are causal, so the output is bit-identical at any block size,
  /// down to one sample (tests/relay_test.cpp and tests/stream_test.cpp pin
  /// that). Scratch comes from the pipeline-owned Workspace; after warmup no
  /// heap allocation happens here (`ff.alloc.*` telemetry and
  /// tests/kernels_test.cpp hold that).
  void process_into(CSpan rx, CMutSpan out);

  /// Non-finite input samples zeroed so far (see PipelineConfig::scrub_nonfinite).
  std::uint64_t scrubbed_samples() const { return scrubbed_; }

  /// Install (or remove, nullptr) a telemetry sink after construction — the
  /// declarative stream path builds the pipeline before a registry exists
  /// and injects it via Graph::set_metrics. Transitioning from no registry
  /// to one records the same construction-time gauges the metrics-carrying
  /// constructor would have; re-installing the current registry is a no-op
  /// (no double-counted instances).
  void set_metrics(MetricsRegistry* metrics);

  /// Return to the freshly-constructed state: clears the FIR delay lines,
  /// the ablation rotator's phase, and the scrubbed-sample count.
  void reset();

 private:
  // The forward FIR at the path's arithmetic width T. Both widths are built
  // at construction (the f32 taps are the f64 ones narrowed once), so
  // precision never changes filter state layout; cfg_.precision picks the
  // one that runs.
  template <typename T>
  struct Lane {
    dsp::BasicFirFilter<T> fir;
    std::uint64_t ws_grows_reported = 0;  // ff.alloc.* telemetry watermark
  };

  template <typename T>
  void run(CSpan rx, CMutSpan out, Lane<T>& lane);

  PipelineConfig cfg_;
  channel::CfoRotator cfo_remove_;  // runs only when !cfg_.restore_cfo
  Lane<double> f64_;
  Lane<float> f32_;
  std::uint64_t scrubbed_ = 0;
  dsp::kernels::Workspace ws_;  // shared scratch for the block sweeps
};

}  // namespace ff::relay
