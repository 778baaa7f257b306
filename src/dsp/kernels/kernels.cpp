#include "dsp/kernels/kernels.hpp"

#include <cmath>
#include <cstdint>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "dsp/kernels/kernels_detail.hpp"

namespace ff::dsp::kernels {
namespace detail {
namespace {

// The textbook complex product, spelled out on raw lanes so no operator
// overload (which libstdc++ may route through __mulsc3-style scaling on
// other platforms) can change the arithmetic. re = ar*br - ai*bi,
// im = ar*bi + ai*br — exactly what the SIMD paths compute.
template <typename T>
std::complex<T> cmul_one(std::complex<T> a, std::complex<T> b) {
  const T ar = a.real(), ai = a.imag();
  const T br = b.real(), bi = b.imag();
  return {ar * br - ai * bi, ar * bi + ai * br};
}

// conj(a) * b: re = ar*br + ai*bi, im = ar*bi - ai*br.
template <typename T>
std::complex<T> cmul_conj_one(std::complex<T> a, std::complex<T> b) {
  const T ar = a.real(), ai = a.imag();
  const T br = b.real(), bi = b.imag();
  return {ar * br + ai * bi, ar * bi - ai * br};
}

}  // namespace

// ----------------------------------------------------------- scalar cores
// This TU is compiled -ffp-contract=off: the mul/add sequences below must
// not be fused into FMA, or scalar and SIMD results would diverge.

template <typename T>
void Scalar<T>::cmul(const C* a, const C* b, C* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = cmul_one(a[i], b[i]);
}

template <typename T>
void Scalar<T>::axpy(C alpha, const C* x, C* y, std::size_t n) {
  const T ar = alpha.real(), ai = alpha.imag();
  for (std::size_t i = 0; i < n; ++i) {
    const T xr = x[i].real(), xi = x[i].imag();
    y[i] = {y[i].real() + (xr * ar - xi * ai), y[i].imag() + (xr * ai + xi * ar)};
  }
}

// Each output starts at +0 and adds axpy's product one tap at a time, taps
// ascending: the sum a per-tap axpy sweep over a zeroed y would build.
template <typename T>
void Scalar<T>::fir(const C* h, std::size_t taps, const C* ext, C* y, std::size_t n,
                    std::size_t stride) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t newest = (taps - 1) + i * stride;
    T re = 0, im = 0;
    for (std::size_t k = 0; k < taps; ++k) {
      const T hr = h[k].real(), hi = h[k].imag();
      const T xr = ext[newest - k].real(), xi = ext[newest - k].imag();
      re = re + (xr * hr - xi * hi);
      im = im + (xr * hi + xi * hr);
    }
    y[i] = {re, im};
  }
}

template <typename T>
void Scalar<T>::scale_real(T alpha, const C* x, C* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    out[i] = {x[i].real() * alpha, x[i].imag() * alpha};
}

template <typename T>
std::complex<T> Scalar<T>::cdot_conj(const C* a, const C* b, std::size_t n) {
  C lanes[4] = {};
  for (std::size_t k = 0; k < n; ++k) {
    const C p = cmul_conj_one(a[k], b[k]);
    C& acc = lanes[k % 4];
    acc = {acc.real() + p.real(), acc.imag() + p.imag()};
  }
  const C s01{lanes[0].real() + lanes[1].real(), lanes[0].imag() + lanes[1].imag()};
  const C s23{lanes[2].real() + lanes[3].real(), lanes[2].imag() + lanes[3].imag()};
  return {s01.real() + s23.real(), s01.imag() + s23.imag()};
}

template <typename T>
T Scalar<T>::magsq_accum(const C* x, std::size_t n) {
  T lanes[4] = {};
  for (std::size_t k = 0; k < n; ++k) {
    const T re = x[k].real(), im = x[k].imag();
    lanes[k % 4] += re * re + im * im;
  }
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

template <typename T>
void Scalar<T>::radix2_stage(const C* src, C* dst, const C* tw, std::size_t half,
                             std::size_t m) {
  for (std::size_t j = 0; j < half; ++j) {
    const C w = tw[j];
    const C* s0 = src + m * j;
    const C* s1 = src + m * (j + half);
    C* d0 = dst + m * (2 * j);
    C* d1 = d0 + m;
    for (std::size_t k = 0; k < m; ++k) {
      const C c0 = s0[k];
      const C c1 = s1[k];
      d0[k] = {c0.real() + c1.real(), c0.imag() + c1.imag()};
      d1[k] = cmul_one(w, C{c0.real() - c1.real(), c0.imag() - c1.imag()});
    }
  }
}

template <typename T>
void Scalar<T>::radix4_stage(const C* src, C* dst, const C* tw, std::size_t quarter,
                             std::size_t m, bool invert) {
  for (std::size_t j = 0; j < quarter; ++j) {
    const C w1 = tw[3 * j];
    const C w2 = tw[3 * j + 1];
    const C w3 = tw[3 * j + 2];
    const C* s0 = src + m * j;
    const C* s1 = src + m * (j + quarter);
    const C* s2 = src + m * (j + 2 * quarter);
    const C* s3 = src + m * (j + 3 * quarter);
    C* d0 = dst + m * (4 * j);
    C* d1 = d0 + m;
    C* d2 = d1 + m;
    C* d3 = d2 + m;
    for (std::size_t k = 0; k < m; ++k) {
      const C c0 = s0[k], c1 = s1[k], c2 = s2[k], c3 = s3[k];
      const C e0{c0.real() + c2.real(), c0.imag() + c2.imag()};
      const C e1{c0.real() - c2.real(), c0.imag() - c2.imag()};
      const C e2{c1.real() + c3.real(), c1.imag() + c3.imag()};
      const C t{c1.real() - c3.real(), c1.imag() - c3.imag()};
      // e3 = -i*t (forward) or +i*t (inverse): pure component swap + sign
      // flip, exact in IEEE arithmetic.
      const C e3 = invert ? C{-t.imag(), t.real()} : C{t.imag(), -t.real()};
      d0[k] = {e0.real() + e2.real(), e0.imag() + e2.imag()};
      d1[k] = cmul_one(w1, C{e1.real() + e3.real(), e1.imag() + e3.imag()});
      d2[k] = cmul_one(w2, C{e0.real() - e2.real(), e0.imag() - e2.imag()});
      d3[k] = cmul_one(w3, C{e1.real() - e3.real(), e1.imag() - e3.imag()});
    }
  }
}

// Ziggurat::operator()'s first test, one engine word at a time: temper the
// word, pick layer i from its low 8 bits, u in [-1, 1) from its top 53, and
// accept z = u * x[i] when |z| < x[i + 1]. The first rejected word ends the
// run; the caller draws its normal in full (wedge or tail).
template <typename T>
std::size_t Scalar<T>::ziggurat_accept(const std::uint64_t* words, std::size_t n, const T* x,
                                       T* out) {
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t w = Mt19937_64::temper(words[k]);
    const std::size_t i = w & 0xFF;
    const T u = static_cast<T>(w >> 11) * 0x1p-52 - 1.0;
    const T z = u * x[i];
    if (!(std::abs(z) < x[i + 1])) return k;
    out[k] = z;
  }
  return n;
}

// The AVX2 TU links against these (it sees only the declarations): all of
// Scalar<double>, and the two f32 cores its f32 bodies call for loop tails.
template struct Scalar<double>;
template void Scalar<float>::cmul(const C*, const C*, C*, std::size_t);
template void Scalar<float>::fir(const C*, std::size_t, const C*, C*, std::size_t,
                                 std::size_t);

}  // namespace detail

namespace {

using detail::KernelOps;
using detail::Scalar;

// The f32 fir slot has no stride: every f32 FIR filters at stride 1.
void scalar_fir32(const Complex32* h, std::size_t taps, const Complex32* ext, Complex32* y,
                  std::size_t n) {
  Scalar<float>::fir(h, taps, ext, y, n, 1);
}

constexpr KernelOps kScalarOps = {
    .cmul = &Scalar<double>::cmul,
    .fir = &Scalar<double>::fir,
    .radix2_stage = &Scalar<double>::radix2_stage,
    .radix4_stage = &Scalar<double>::radix4_stage,
    .cmul32 = &Scalar<float>::cmul,
    .fir32 = &scalar_fir32,
    .ziggurat_accept = &Scalar<double>::ziggurat_accept,
};

Isa resolve_isa() {
#if defined(FF_SIMD_ENABLED) && (defined(__x86_64__) || defined(_M_X64))
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
#endif
  return Isa::kScalar;
}

const KernelOps& resolve_ops() {
#if defined(FF_SIMD_ENABLED) && (defined(__x86_64__) || defined(_M_X64))
  if (active_isa() == Isa::kAvx2) return detail::avx2_ops();
#endif
  return kScalarOps;
}

// The table the dispatched ops run on, resolved once.
const KernelOps& ops() {
  static const KernelOps& table = resolve_ops();
  return table;
}

template <typename T>
using Span = std::span<const std::complex<T>>;
template <typename T>
using MutSpan = std::span<std::complex<T>>;

// The span checks shared by the public overloads, one per op shape. A
// dispatched op passes its table slot; a scalar:: wrapper, or an op with
// no AVX2 body, passes the scalar template.
template <typename T>
void pairwise(void (*f)(const std::complex<T>*, const std::complex<T>*, std::complex<T>*,
                        std::size_t),
              Span<T> a, Span<T> b, MutSpan<T> out) {
  FF_CHECK(a.size() == b.size() && a.size() == out.size());
  f(a.data(), b.data(), out.data(), a.size());
}

template <typename T>
void with_alpha(void (*f)(std::complex<T>, const std::complex<T>*, std::complex<T>*,
                          std::size_t),
                std::complex<T> alpha, Span<T> x, MutSpan<T> y) {
  FF_CHECK(x.size() == y.size());
  f(alpha, x.data(), y.data(), x.size());
}

// ziggurat_accept's checks: the full layer table, and room for every word's
// normal.
std::size_t checked_ziggurat_accept(std::size_t (*f)(const std::uint64_t*, std::size_t,
                                                     const double*, double*),
                                    std::span<const std::uint64_t> words,
                                    RSpan x, std::span<double> out) {
  FF_CHECK_MSG(x.size() == Ziggurat::kLayers + 1,
               "ziggurat_accept needs the " << Ziggurat::kLayers + 1 << "-entry layer table");
  FF_CHECK_MSG(out.size() >= words.size(), "ziggurat_accept needs one output per word");
  return f(words.data(), words.size(), x.data(), out.data());
}

// fir's checks: at least one tap, a positive stride, and no overlap between
// y and the ext samples it reads, ext[0 .. (taps - 1) + (n - 1) * stride].
template <typename T>
void check_fir(Span<T> h, const std::complex<T>* ext, MutSpan<T> y, std::size_t stride) {
  FF_CHECK_MSG(!h.empty(), "fir needs at least one tap");
  FF_CHECK_MSG(stride >= 1, "fir needs stride >= 1");
  if (y.empty()) return;
  const std::size_t read = h.size() + (y.size() - 1) * stride;
  // Compared as integers: a raw `<` between unrelated pointers is unspecified.
  const auto ext_begin = reinterpret_cast<std::uintptr_t>(ext);
  const auto y_begin = reinterpret_cast<std::uintptr_t>(y.data());
  FF_CHECK_MSG(ext_begin + read * sizeof(std::complex<T>) <= y_begin ||
                   y_begin + y.size() * sizeof(std::complex<T>) <= ext_begin,
               "fir: y must not overlap the ext samples it reads");
}

}  // namespace

Isa active_isa() {
  static const Isa isa = resolve_isa();
  return isa;
}

const char* isa_name(Isa isa) { return isa == Isa::kAvx2 ? "avx2" : "scalar"; }

const char* isa_name() { return isa_name(active_isa()); }

bool simd_compiled() {
#if defined(FF_SIMD_ENABLED) && (defined(__x86_64__) || defined(_M_X64))
  return true;
#else
  return false;
#endif
}

// ------------------------------------------------------------------ span API
// rotate_phasor is cmul under its stage name (kernels.hpp).

void cmul(CSpan a, CSpan b, CMutSpan out) { pairwise(ops().cmul, a, b, out); }
void axpy(Complex alpha, CSpan x, CMutSpan y) {
  with_alpha(&Scalar<double>::axpy, alpha, x, y);
}
void fir(CSpan h, const Complex* ext, CMutSpan y, std::size_t stride) {
  check_fir(h, ext, y, stride);
  ops().fir(h.data(), h.size(), ext, y.data(), y.size(), stride);
}
void scale_real(double alpha, CSpan x, CMutSpan out) {
  FF_CHECK(x.size() == out.size());
  Scalar<double>::scale_real(alpha, x.data(), out.data(), x.size());
}
void rotate_phasor(CSpan x, CSpan phasors, CMutSpan out) {
  pairwise(ops().cmul, x, phasors, out);
}
Complex cdot_conj(CSpan a, CSpan b) {
  FF_CHECK(a.size() == b.size());
  return Scalar<double>::cdot_conj(a.data(), b.data(), a.size());
}
double magsq_accum(CSpan x) { return Scalar<double>::magsq_accum(x.data(), x.size()); }
void radix2_stage(const Complex* src, Complex* dst, const Complex* tw, std::size_t half,
                  std::size_t m) {
  ops().radix2_stage(src, dst, tw, half, m);
}
void radix4_stage(const Complex* src, Complex* dst, const Complex* tw, std::size_t quarter,
                  std::size_t m, bool invert) {
  ops().radix4_stage(src, dst, tw, quarter, m, invert);
}

void cmul(CSpan32 a, CSpan32 b, CMutSpan32 out) { pairwise(ops().cmul32, a, b, out); }
void axpy(Complex32 alpha, CSpan32 x, CMutSpan32 y) {
  with_alpha(&Scalar<float>::axpy, alpha, x, y);
}
void fir(CSpan32 h, const Complex32* ext, CMutSpan32 y) {
  check_fir(h, ext, y, 1);
  ops().fir32(h.data(), h.size(), ext, y.data(), y.size());
}
void rotate_phasor(CSpan32 x, CSpan32 phasors, CMutSpan32 out) {
  pairwise(ops().cmul32, x, phasors, out);
}

std::size_t ziggurat_accept(std::span<const std::uint64_t> words, RSpan x,
                            std::span<double> out) {
  return checked_ziggurat_accept(ops().ziggurat_accept, words, x, out);
}

// ------------------------------------------------ precision edge conversion

void widen(CSpan32 x, CMutSpan out) {
  FF_CHECK(x.size() == out.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    out[i] = {static_cast<double>(x[i].real()), static_cast<double>(x[i].imag())};
}

void narrow(CSpan x, CMutSpan32 out) {
  FF_CHECK(x.size() == out.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    out[i] = {static_cast<float>(x[i].real()), static_cast<float>(x[i].imag())};
}

CVec32 narrowed(CSpan x) {
  CVec32 out(x.size());
  narrow(x, out);
  return out;
}

// ------------------------------------------------------------ scalar wrappers

namespace scalar {

void cmul(CSpan a, CSpan b, CMutSpan out) { pairwise(&Scalar<double>::cmul, a, b, out); }
void fir(CSpan h, const Complex* ext, CMutSpan y, std::size_t stride) {
  check_fir(h, ext, y, stride);
  Scalar<double>::fir(h.data(), h.size(), ext, y.data(), y.size(), stride);
}
void rotate_phasor(CSpan x, CSpan phasors, CMutSpan out) {
  pairwise(&Scalar<double>::cmul, x, phasors, out);
}
void radix2_stage(const Complex* src, Complex* dst, const Complex* tw, std::size_t half,
                  std::size_t m) {
  Scalar<double>::radix2_stage(src, dst, tw, half, m);
}
void radix4_stage(const Complex* src, Complex* dst, const Complex* tw, std::size_t quarter,
                  std::size_t m, bool invert) {
  Scalar<double>::radix4_stage(src, dst, tw, quarter, m, invert);
}

void cmul(CSpan32 a, CSpan32 b, CMutSpan32 out) {
  pairwise(&Scalar<float>::cmul, a, b, out);
}
void fir(CSpan32 h, const Complex32* ext, CMutSpan32 y) {
  check_fir(h, ext, y, 1);
  Scalar<float>::fir(h.data(), h.size(), ext, y.data(), y.size(), 1);
}
void rotate_phasor(CSpan32 x, CSpan32 phasors, CMutSpan32 out) {
  pairwise(&Scalar<float>::cmul, x, phasors, out);
}
std::size_t ziggurat_accept(std::span<const std::uint64_t> words, RSpan x,
                            std::span<double> out) {
  return checked_ziggurat_accept(&Scalar<double>::ziggurat_accept, words, x, out);
}

}  // namespace scalar
}  // namespace ff::dsp::kernels
