// Correlation primitives used by preamble detection, PN-signature matching
// (Sec. 6) and the Gaussian-noise cancellation tuner (Sec. 3.3).
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace ff::dsp {

/// Normalized sliding correlation magnitude in [0, 1] of `x` against
/// template `ref` (K = ref.size()):
///   m[n] = |sum_k conj(ref[k]) x[n+k]| / (||ref|| * ||x[n..n+K)||),
///   n in [0, x.size()-K]. Empty if x is shorter than ref.
/// Robust detection statistic: invariant to signal scale.
std::vector<double> normalized_correlation(CSpan x, CSpan ref);

/// Index of the maximum of a real sequence (first occurrence).
std::size_t argmax(std::span<const double> v);

/// Mean of |x[n]|^2 over the span (0 for empty spans).
double mean_power(CSpan x);

/// Mean power expressed in dB (returns -inf-like -400 dB for silence).
double mean_power_db(CSpan x);

/// Error vector magnitude between a received and a reference sequence,
/// as a power ratio: sum|x-ref|^2 / sum|ref|^2.
double evm_power_ratio(CSpan x, CSpan ref);

}  // namespace ff::dsp
