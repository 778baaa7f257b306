// AWGN generation and power scaling helpers.
//
// Power convention used throughout the simulator: a complex baseband sample
// stream with mean |x|^2 = P carries P milliwatts, so 10*log10(mean|x|^2)
// is directly dBm. TX at 20 dBm => mean power 100; noise floor -90 dBm =>
// variance 1e-9.
#pragma once

#include "common/rng.hpp"
#include "common/types.hpp"

namespace ff::dsp {

/// Generate `n` complex AWGN samples with total (I+Q) variance `power_mw`.
CVec awgn(Rng& rng, std::size_t n, double power_mw);

/// Generate AWGN at a dBm level.
CVec awgn_dbm(Rng& rng, std::size_t n, double power_dbm);

/// Add noise of the given power in place; returns the noise actually added
/// (needed by the cancellation tuner, which correlates against it).
CVec add_awgn(Rng& rng, CMutSpan x, double power_mw);

/// Add Rng::cgaussian_zig(variance) to every sample, a block at a time: the
/// same values, from the same engine words in the same order, as
/// `for (auto& s : x) s += rng.cgaussian_zig(variance)`, and the engine ends
/// on the same next word. The ziggurat's fast path runs as the dispatched
/// kernels::ziggurat_accept over the engine's pending words; each word it
/// rejects is drawn in full by Ziggurat::operator(). The stream Channel
/// element's noise.
void add_cgaussian_zig(Rng& rng, CMutSpan x, double variance);

/// The f32 channel's noise: the f64 draws above rounded to float and added
/// in float, exactly as `s += rng.cgaussian32(variance)` adds them.
void add_cgaussian_zig(Rng& rng, CMutSpan32 x, float variance);

namespace scalar {
/// The same block draws on kernels::scalar::ziggurat_accept: the reference
/// the dispatched path is tested against.
void add_cgaussian_zig(Rng& rng, CMutSpan x, double variance);
void add_cgaussian_zig(Rng& rng, CMutSpan32 x, float variance);
}  // namespace scalar

/// Scale a signal to an exact mean power (no-op on silence).
void set_mean_power(CMutSpan x, double power_mw);

/// Multiply all samples by a linear amplitude factor.
void scale(CMutSpan x, double amplitude);

/// Element-wise sum b into a (sizes must match).
void accumulate(CMutSpan a, CSpan b);

}  // namespace ff::dsp
