// Carrier frequency offset application (oscillator mismatch between radios).
//
// Sec. 4.1: the relay must remove the source's CFO for its own processing but
// restore it before retransmission, so the destination sees a single
// consistent offset. These helpers rotate a sample stream by a frequency
// offset with phase continuity across blocks.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "dsp/kernels/workspace.hpp"

namespace ff::channel {

/// Stateful CFO rotator: multiplies successive samples by e^{j 2 pi f n Ts},
/// keeping phase across process() calls (a real oscillator doesn't reset).
class CfoRotator {
 public:
  CfoRotator(double cfo_hz, double sample_rate_hz, double initial_phase_rad = 0.0);

  double cfo_hz() const { return cfo_hz_; }

  /// Rotate a block (stateful).
  CVec process(CSpan x);

  /// Rotate a block into a caller-owned buffer (stateful). `out` must be
  /// exactly x.size() samples and may alias `x` — the streaming runtime's
  /// allocation-free block path.
  ///
  /// Every overload draws its phasors from one generator. The phase
  /// recurrence (including the wrap at +/-2pi) advances in double, scalar
  /// and sample-sequential. The per-sample phasor comes from a double
  /// complex-rotation recurrence re-anchored with one sincos every 256
  /// samples at absolute stream positions (within ~1.5e-13 of per-sample
  /// sincos). Only the complex multiply is vectorized
  /// (kernels::rotate_phasor over a per-block phasor table), so the
  /// rotation is bit-identical at any block size.
  void process_into(CSpan x, CMutSpan out);

  /// Same, with the phasor table drawn from a caller-owned Workspace
  /// (slot 0) shared across an owning pipeline's stages.
  void process_into(CSpan x, CMutSpan out, dsp::kernels::Workspace& ws);

  /// Float32 block path (the mixed-precision relay fast path). The same
  /// double phase and phasor recurrence as the f64 paths — a rotator's
  /// phase never loses precision to the sample format — with each phasor
  /// narrowed once to f32 before the f32 rotate kernel, so an f32 block's
  /// phasors are the f64 path's rounded to float. Phasor table: the
  /// Workspace's f32 slot 0.
  void process_into(CSpan32 x, CMutSpan32 out, dsp::kernels::Workspace& ws);

  /// Retune the oscillator frequency while keeping the accumulated phase —
  /// a real oscillator drifts continuously, it never phase-jumps. This is
  /// the retune path for long-running streams; constructing a fresh rotator
  /// instead would reset the phase and glitch the stream. Here and in the
  /// constructor the per-sample step is reduced into (-pi, pi], so a CFO at
  /// or beyond the sample rate aliases in band.
  void set_cfo(double cfo_hz, double sample_rate_hz);

  /// Current accumulated phase (radians).
  double phase() const { return phase_; }

  void reset(double initial_phase_rad = 0.0) {
    phase_ = initial_phase_rad;
    pos_ = 0;  // re-anchor the phasor recurrence on the next sample
  }

 private:
  // Writes the next phasors.size() phasors and advances the stream.
  template <typename T>
  void fill_phasors(std::span<std::complex<T>> phasors);

  double cfo_hz_;
  double step_rad_;
  double phase_;
  // Phasor recurrence: (rec_cos_, rec_sin_) is advanced by the step's
  // (step_cos_, step_sin_) and re-anchored at absolute positions; pos_
  // counts samples of either width since reset().
  double rec_cos_ = 1.0;
  double rec_sin_ = 0.0;
  double step_cos_;
  double step_sin_;
  std::uint64_t pos_ = 0;
  dsp::kernels::Workspace ws_;  // phasor table for the two-arg process_into
};

/// One-shot: apply CFO `cfo_hz` to a block starting at phase 0.
CVec apply_cfo(CSpan x, double cfo_hz, double sample_rate_hz, double initial_phase_rad = 0.0);

}  // namespace ff::channel
