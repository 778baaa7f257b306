// Fractional-delay FIR design (windowed sinc).
//
// Channel taps in the simulator fall at arbitrary (non-integer) sample
// offsets: a 100 ps analog-filter tap is 0.002 samples at 20 Msps. A
// windowed-sinc interpolator realizes e^{-j w d} across the band to high
// accuracy, which is exactly what Sec. 3.4 of the paper says is expensive to
// do with a short digital filter — our CNF design experiments rely on this
// reference implementation being accurate.
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace ff::dsp {

/// Design a real-coefficient fractional-delay filter.
///
/// The returned taps implement a total delay of `delay_samples` (may be
/// non-integer, must be >= 0 and at most max_fractional_delay(half_width)).
/// The integer part shifts the filter peak, the fractional part comes from a
/// Hamming-windowed sinc of `half_width` taps on each side of the peak.
/// Filter length ~= ceil(delay) + 2*half_width + 1.
CVec design_fractional_delay(double delay_samples, std::size_t half_width = 16);

/// The longest delay, in samples, whose filter a CVec can hold: the bound
/// design_fractional_delay checks before it converts the delay to an index.
double max_fractional_delay(std::size_t half_width = 16);

/// Delay a signal by a (possibly fractional) number of samples, keeping the
/// output aligned with the input timeline (output[n] ~= x(n - delay)).
CVec delay_signal(CSpan x, double delay_samples, std::size_t half_width = 16);

}  // namespace ff::dsp
