#include "dsp/noise.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/check.hpp"
#include "common/units.hpp"
#include "dsp/correlation.hpp"
#include "dsp/kernels/kernels.hpp"

namespace ff::dsp {

namespace {

using ZigAccept = std::size_t (*)(std::span<const std::uint64_t>, RSpan, std::span<double>);

// Fills `out` with the normals Ziggurat::operator() draws from `engine`, in
// order. The fast path runs over the current twist's pending words until it
// rejects one; Ziggurat::operator() then draws that normal from the same
// word (its fast test rejects it again) and settles it in the wedge or the
// tail, spending more words as it needs.
void ziggurat_normals(Mt19937_64& engine, std::span<double> out, ZigAccept accept) {
  const Ziggurat& zig = Ziggurat::tables();
  std::size_t done = 0;
  while (done < out.size()) {
    const auto words = engine.pending();
    const auto run = words.first(std::min(words.size(), out.size() - done));
    const std::size_t accepted = accept(run, zig.layers(), out.subspan(done));
    engine.mark_drawn(accepted);
    done += accepted;
    if (accepted < run.size()) out[done++] = zig(engine);
  }
}

// x[j] += s * normal, real part first, in stack chunks of kChunk samples.
// An f32 sample adds the product rounded to float, as cgaussian32 does;
// s is computed once, as cgaussian_zig computes it.
template <typename T>
void add_zig_noise(Rng& rng, std::span<std::complex<T>> x, double variance, ZigAccept accept) {
  constexpr std::size_t kChunk = 256;
  const double s = std::sqrt(variance / 2.0);
  double normals[2 * kChunk];
  for (std::size_t done = 0; done < x.size(); done += kChunk) {
    const std::size_t n = 2 * std::min(kChunk, x.size() - done);
    ziggurat_normals(rng.engine(), {normals, n}, accept);
    T* y = reinterpret_cast<T*>(x.data() + done);
    for (std::size_t j = 0; j < n; ++j) y[j] += static_cast<T>(s * normals[j]);
  }
}

}  // namespace

CVec awgn(Rng& rng, std::size_t n, double power_mw) {
  FF_CHECK_MSG(std::isfinite(power_mw) && power_mw >= 0.0,
               "awgn noise power must be finite and non-negative, got " << power_mw);
  CVec out(n);
  for (auto& s : out) s = rng.cgaussian(power_mw);
  return out;
}

CVec awgn_dbm(Rng& rng, std::size_t n, double power_dbm) {
  return awgn(rng, n, power_from_db(power_dbm));
}

CVec add_awgn(Rng& rng, CMutSpan x, double power_mw) {
  CVec noise = awgn(rng, x.size(), power_mw);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += noise[i];
  return noise;
}

void add_cgaussian_zig(Rng& rng, CMutSpan x, double variance) {
  add_zig_noise<double>(rng, x, variance, &kernels::ziggurat_accept);
}

void add_cgaussian_zig(Rng& rng, CMutSpan32 x, float variance) {
  add_zig_noise<float>(rng, x, variance, &kernels::ziggurat_accept);
}

namespace scalar {

void add_cgaussian_zig(Rng& rng, CMutSpan x, double variance) {
  add_zig_noise<double>(rng, x, variance, &kernels::scalar::ziggurat_accept);
}

void add_cgaussian_zig(Rng& rng, CMutSpan32 x, float variance) {
  add_zig_noise<float>(rng, x, variance, &kernels::scalar::ziggurat_accept);
}

}  // namespace scalar

void set_mean_power(CMutSpan x, double power_mw) {
  const double p = mean_power(x);
  if (p <= 0.0) return;
  const double g = std::sqrt(power_mw / p);
  for (auto& s : x) s *= g;
}

void scale(CMutSpan x, double amplitude) {
  for (auto& s : x) s *= amplitude;
}

void accumulate(CMutSpan a, CSpan b) {
  FF_CHECK(a.size() == b.size());
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
}

}  // namespace ff::dsp
