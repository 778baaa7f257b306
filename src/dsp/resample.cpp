#include "dsp/resample.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/units.hpp"
#include "dsp/fir.hpp"
#include "dsp/kernels/kernels.hpp"

namespace ff::dsp {

CVec resample_kernel(std::size_t factor, std::size_t half_width) {
  FF_CHECK(factor >= 1);
  FF_CHECK_MSG(half_width >= 1,
               "resample half_width must be >= 1: a zero-width kernel degenerates to "
               "a passthrough that leaves the stuffed zeros in the output");
  const auto span = static_cast<long>(half_width * factor);
  CVec taps;
  taps.reserve(static_cast<std::size_t>(2 * span + 1));
  for (long m = -span; m <= span; ++m) {
    const double x = static_cast<double>(m) / static_cast<double>(factor);
    const double s = std::abs(x) < 1e-12 ? 1.0 : std::sin(kPi * x) / (kPi * x);
    const double w =
        0.54 + 0.46 * std::cos(kPi * static_cast<double>(m) / (static_cast<double>(span) + 1.0));
    taps.push_back(Complex{s * w, 0.0});
  }
  return taps;
}

std::size_t resample_group_delay(std::size_t factor, std::size_t half_width) {
  return half_width * factor;
}

CVec upsample(CSpan x, std::size_t factor, std::size_t half_width) {
  FF_CHECK(factor >= 1);
  if (factor == 1) return CVec(x.begin(), x.end());
  const CVec kernel = resample_kernel(factor, half_width);
  // Polyphase form of "zero-stuff, then filter with `kernel`": output
  // m*factor + p only meets the non-zero stuffed samples through taps
  // kernel[p], kernel[p + factor], ... applied to x[m], x[m - 1], ... Each
  // phase runs fir_core over [zero history | x] with exactly those taps in
  // ascending order, so every output accumulates the same non-zero products
  // in the same order. The terms the stuffed form also adds are h * (+-0):
  // under round-to-nearest adding +-0 never changes a non-zero sum and never
  // turns the +0-initialised sum into -0, so the result is bit-identical.
  const std::size_t n = x.size();
  const std::size_t hist = (kernel.size() - 1) / factor;  // longest phase - 1
  CVec ext(hist + n, Complex{});
  std::copy(x.begin(), x.end(), ext.begin() + static_cast<std::ptrdiff_t>(hist));
  CVec taps, y(n);
  CVec out(n * factor);
  for (std::size_t p = 0; p < factor; ++p) {
    taps.clear();
    for (std::size_t k = p; k < kernel.size(); k += factor) taps.push_back(kernel[k]);
    fir_core(taps, ext.data() + (hist + 1 - taps.size()), y);
    for (std::size_t m = 0; m < n; ++m) out[m * factor + p] = y[m];
  }
  return out;
}

CVec downsample(CSpan x, std::size_t factor, std::size_t half_width) {
  FF_CHECK(factor >= 1);
  if (factor == 1) return CVec(x.begin(), x.end());
  const CVec kernel = resample_kernel(factor, half_width);
  // Only every factor-th filter output is kept, so compute only those:
  // output i is sum_k kernel[k] * ext[H + i*factor - k] over
  // ext = [H zeros | x], one kernels::fir call at stride `factor`. It sums
  // taps ascending from +0, as filtering at the full rate does, so the kept
  // samples are bit-identical to filtering at the full rate and decimating.
  const std::size_t hist = kernel.size() - 1;
  CVec ext(hist + x.size(), Complex{});
  std::copy(x.begin(), x.end(), ext.begin() + static_cast<std::ptrdiff_t>(hist));
  CVec out(x.size() / factor);
  kernels::fir(kernel, ext.data(), out, factor);
  for (auto& v : out) v /= static_cast<double>(factor);
  return out;
}

}  // namespace ff::dsp
