#include "dsp/fractional_delay.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/units.hpp"
#include "dsp/fir.hpp"

namespace ff::dsp {

namespace {

double sinc(double x) {
  if (std::abs(x) < 1e-12) return 1.0;
  return std::sin(kPi * x) / (kPi * x);
}

}  // namespace

double max_fractional_delay(std::size_t half_width) {
  return static_cast<double>(CVec().max_size() - half_width - 2);
}

CVec design_fractional_delay(double delay_samples, std::size_t half_width) {
  FF_CHECK_MSG(delay_samples >= 0.0, "delay must be non-negative");
  // Checked before the cast: a delay past size_t's range would convert to
  // an unrelated index (undefined behavior), and one past a CVec's length
  // has no filter.
  FF_CHECK_MSG(delay_samples <= max_fractional_delay(half_width),
               "delay of " << delay_samples << " samples is longer than a filter can be ("
                           << max_fractional_delay(half_width) << " samples)");
  const auto int_delay = static_cast<std::size_t>(std::floor(delay_samples));
  const double frac = delay_samples - static_cast<double>(int_delay);

  // Center of the sinc sits at index int_delay + frac; pad half_width on each
  // side. For a purely integer delay, collapse to an exact impulse.
  if (frac < 1e-12) {
    CVec taps(int_delay + 1, Complex{});
    taps[int_delay] = 1.0;
    return taps;
  }

  const std::size_t center = int_delay;
  const std::size_t lead = std::min(center, half_width);
  const std::size_t len = center + half_width + 2;
  CVec taps(len, Complex{});
  const double peak = static_cast<double>(center) + frac;
  for (std::size_t n = center - lead; n < len; ++n) {
    const double t = static_cast<double>(n) - peak;
    // Hamming window over the sinc support.
    const double w = 0.54 + 0.46 * std::cos(kPi * t / (static_cast<double>(half_width) + 1.0));
    if (std::abs(t) <= static_cast<double>(half_width) + 1.0)
      taps[n] = sinc(t) * std::max(w, 0.0);
  }
  return taps;
}

CVec delay_signal(CSpan x, double delay_samples, std::size_t half_width) {
  const CVec taps = design_fractional_delay(delay_samples, half_width);
  return filter(taps, x);
}

}  // namespace ff::dsp
