#include "dsp/kernels/kernels.hpp"

#include "common/check.hpp"
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
void Scalar<T>::cmac(const C* a, const C* b, C* acc, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const C p = cmul_one(a[i], b[i]);
    acc[i] = {acc[i].real() + p.real(), acc[i].imag() + p.imag()};
  }
}

template <typename T>
void Scalar<T>::axpy(C alpha, const C* x, C* y, std::size_t n) {
  const T ar = alpha.real(), ai = alpha.imag();
  for (std::size_t i = 0; i < n; ++i) {
    const T xr = x[i].real(), xi = x[i].imag();
    y[i] = {y[i].real() + (xr * ar - xi * ai), y[i].imag() + (xr * ai + xi * ar)};
  }
}

template <typename T>
void Scalar<T>::scale(C alpha, const C* x, C* out, std::size_t n) {
  const T ar = alpha.real(), ai = alpha.imag();
  for (std::size_t i = 0; i < n; ++i) {
    const T xr = x[i].real(), xi = x[i].imag();
    out[i] = {xr * ar - xi * ai, xr * ai + xi * ar};
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
void Scalar<T>::split(const C* x, T* re, T* im, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    re[i] = x[i].real();
    im[i] = x[i].imag();
  }
}

template <typename T>
void Scalar<T>::interleave(const T* re, const T* im, C* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = {re[i], im[i]};
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

template <typename T>
const KernelOps<T> Scalar<T>::ops = {
    &Scalar::cmul,        &Scalar::cmac,        &Scalar::axpy,
    &Scalar::scale,       &Scalar::scale_real,  &Scalar::cdot_conj,
    &Scalar::magsq_accum, &Scalar::split,       &Scalar::interleave,
    &Scalar::radix2_stage, &Scalar::radix4_stage,
};

// The AVX2 TU links against these (it sees only the declarations).
template struct Scalar<double>;
template struct Scalar<float>;

}  // namespace detail

namespace {

using detail::KernelOps;
using detail::Scalar;

Isa resolve_isa() {
#if defined(FF_SIMD_ENABLED) && (defined(__x86_64__) || defined(_M_X64))
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
#endif
  return Isa::kScalar;
}

template <typename T>
const KernelOps<T>& resolve_ops() {
#if defined(FF_SIMD_ENABLED) && (defined(__x86_64__) || defined(_M_X64))
  if (active_isa() == Isa::kAvx2) return detail::avx2_ops<T>();
#endif
  return Scalar<T>::ops;
}

// The table the dispatched span API runs on, resolved once per lane type.
template <typename T>
const KernelOps<T>& ops() {
  static const KernelOps<T>& table = resolve_ops<T>();
  return table;
}

// One body per op behind every public overload: the dispatched functions
// pass ops<T>(), the scalar:: wrappers pass Scalar<T>::ops.
template <typename T>
using Span = std::span<const std::complex<T>>;
template <typename T>
using MutSpan = std::span<std::complex<T>>;

template <typename T>
void cmul_on(const KernelOps<T>& k, Span<T> a, Span<T> b, MutSpan<T> out) {
  FF_CHECK(a.size() == b.size() && a.size() == out.size());
  k.cmul(a.data(), b.data(), out.data(), a.size());
}

template <typename T>
void cmac_on(const KernelOps<T>& k, Span<T> a, Span<T> b, MutSpan<T> acc) {
  FF_CHECK(a.size() == b.size() && a.size() == acc.size());
  k.cmac(a.data(), b.data(), acc.data(), a.size());
}

template <typename T>
void axpy_on(const KernelOps<T>& k, std::complex<T> alpha, Span<T> x, MutSpan<T> y) {
  FF_CHECK(x.size() == y.size());
  k.axpy(alpha, x.data(), y.data(), x.size());
}

template <typename T>
void scale_on(const KernelOps<T>& k, std::complex<T> alpha, Span<T> x, MutSpan<T> out) {
  FF_CHECK(x.size() == out.size());
  k.scale(alpha, x.data(), out.data(), x.size());
}

template <typename T>
void scale_real_on(const KernelOps<T>& k, T alpha, Span<T> x, MutSpan<T> out) {
  FF_CHECK(x.size() == out.size());
  k.scale_real(alpha, x.data(), out.data(), x.size());
}

template <typename T>
std::complex<T> cdot_conj_on(const KernelOps<T>& k, Span<T> a, Span<T> b) {
  FF_CHECK(a.size() == b.size());
  return k.cdot_conj(a.data(), b.data(), a.size());
}

template <typename T>
void split_on(const KernelOps<T>& k, Span<T> x, std::span<T> re, std::span<T> im) {
  FF_CHECK(x.size() == re.size() && x.size() == im.size());
  k.split(x.data(), re.data(), im.data(), x.size());
}

template <typename T>
void interleave_on(const KernelOps<T>& k, std::span<const T> re, std::span<const T> im,
                   MutSpan<T> out) {
  FF_CHECK(re.size() == im.size() && re.size() == out.size());
  k.interleave(re.data(), im.data(), out.data(), out.size());
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

// ------------------------------------------------------- dispatched span API
// rotate_phasor is cmul under its stage name (kernels.hpp).

void cmul(CSpan a, CSpan b, CMutSpan out) { cmul_on(ops<double>(), a, b, out); }
void cmac(CSpan a, CSpan b, CMutSpan acc) { cmac_on(ops<double>(), a, b, acc); }
void axpy(Complex alpha, CSpan x, CMutSpan y) { axpy_on(ops<double>(), alpha, x, y); }
void scale(Complex alpha, CSpan x, CMutSpan out) {
  scale_on(ops<double>(), alpha, x, out);
}
void scale_real(double alpha, CSpan x, CMutSpan out) {
  scale_real_on(ops<double>(), alpha, x, out);
}
void rotate_phasor(CSpan x, CSpan phasors, CMutSpan out) {
  cmul_on(ops<double>(), x, phasors, out);
}
Complex cdot_conj(CSpan a, CSpan b) { return cdot_conj_on(ops<double>(), a, b); }
double magsq_accum(CSpan x) { return ops<double>().magsq_accum(x.data(), x.size()); }
void split(CSpan x, std::span<double> re, std::span<double> im) {
  split_on(ops<double>(), x, re, im);
}
void interleave(std::span<const double> re, std::span<const double> im, CMutSpan out) {
  interleave_on(ops<double>(), re, im, out);
}
void radix2_stage(const Complex* src, Complex* dst, const Complex* tw, std::size_t half,
                  std::size_t m) {
  ops<double>().radix2_stage(src, dst, tw, half, m);
}
void radix4_stage(const Complex* src, Complex* dst, const Complex* tw, std::size_t quarter,
                  std::size_t m, bool invert) {
  ops<double>().radix4_stage(src, dst, tw, quarter, m, invert);
}

void cmul(CSpan32 a, CSpan32 b, CMutSpan32 out) { cmul_on(ops<float>(), a, b, out); }
void cmac(CSpan32 a, CSpan32 b, CMutSpan32 acc) { cmac_on(ops<float>(), a, b, acc); }
void axpy(Complex32 alpha, CSpan32 x, CMutSpan32 y) {
  axpy_on(ops<float>(), alpha, x, y);
}
void scale(Complex32 alpha, CSpan32 x, CMutSpan32 out) {
  scale_on(ops<float>(), alpha, x, out);
}
void scale_real(float alpha, CSpan32 x, CMutSpan32 out) {
  scale_real_on(ops<float>(), alpha, x, out);
}
void rotate_phasor(CSpan32 x, CSpan32 phasors, CMutSpan32 out) {
  cmul_on(ops<float>(), x, phasors, out);
}
Complex32 cdot_conj(CSpan32 a, CSpan32 b) { return cdot_conj_on(ops<float>(), a, b); }
float magsq_accum(CSpan32 x) { return ops<float>().magsq_accum(x.data(), x.size()); }
void split(CSpan32 x, std::span<float> re, std::span<float> im) {
  split_on(ops<float>(), x, re, im);
}
void interleave(std::span<const float> re, std::span<const float> im, CMutSpan32 out) {
  interleave_on(ops<float>(), re, im, out);
}
void radix2_stage(const Complex32* src, Complex32* dst, const Complex32* tw,
                  std::size_t half, std::size_t m) {
  ops<float>().radix2_stage(src, dst, tw, half, m);
}
void radix4_stage(const Complex32* src, Complex32* dst, const Complex32* tw,
                  std::size_t quarter, std::size_t m, bool invert) {
  ops<float>().radix4_stage(src, dst, tw, quarter, m, invert);
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

CVec widened(CSpan32 x) {
  CVec out(x.size());
  widen(x, out);
  return out;
}

// ------------------------------------------------------------ scalar wrappers

namespace scalar {

void cmul(CSpan a, CSpan b, CMutSpan out) { cmul_on(Scalar<double>::ops, a, b, out); }
void cmac(CSpan a, CSpan b, CMutSpan acc) { cmac_on(Scalar<double>::ops, a, b, acc); }
void axpy(Complex alpha, CSpan x, CMutSpan y) {
  axpy_on(Scalar<double>::ops, alpha, x, y);
}
void scale(Complex alpha, CSpan x, CMutSpan out) {
  scale_on(Scalar<double>::ops, alpha, x, out);
}
void scale_real(double alpha, CSpan x, CMutSpan out) {
  scale_real_on(Scalar<double>::ops, alpha, x, out);
}
void rotate_phasor(CSpan x, CSpan phasors, CMutSpan out) {
  cmul_on(Scalar<double>::ops, x, phasors, out);
}
Complex cdot_conj(CSpan a, CSpan b) { return cdot_conj_on(Scalar<double>::ops, a, b); }
double magsq_accum(CSpan x) { return Scalar<double>::magsq_accum(x.data(), x.size()); }
void split(CSpan x, std::span<double> re, std::span<double> im) {
  split_on(Scalar<double>::ops, x, re, im);
}
void interleave(std::span<const double> re, std::span<const double> im, CMutSpan out) {
  interleave_on(Scalar<double>::ops, re, im, out);
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
  cmul_on(Scalar<float>::ops, a, b, out);
}
void cmac(CSpan32 a, CSpan32 b, CMutSpan32 acc) {
  cmac_on(Scalar<float>::ops, a, b, acc);
}
void axpy(Complex32 alpha, CSpan32 x, CMutSpan32 y) {
  axpy_on(Scalar<float>::ops, alpha, x, y);
}
void scale(Complex32 alpha, CSpan32 x, CMutSpan32 out) {
  scale_on(Scalar<float>::ops, alpha, x, out);
}
void scale_real(float alpha, CSpan32 x, CMutSpan32 out) {
  scale_real_on(Scalar<float>::ops, alpha, x, out);
}
void rotate_phasor(CSpan32 x, CSpan32 phasors, CMutSpan32 out) {
  cmul_on(Scalar<float>::ops, x, phasors, out);
}
Complex32 cdot_conj(CSpan32 a, CSpan32 b) {
  return cdot_conj_on(Scalar<float>::ops, a, b);
}
float magsq_accum(CSpan32 x) { return Scalar<float>::magsq_accum(x.data(), x.size()); }
void split(CSpan32 x, std::span<float> re, std::span<float> im) {
  split_on(Scalar<float>::ops, x, re, im);
}
void interleave(std::span<const float> re, std::span<const float> im, CMutSpan32 out) {
  interleave_on(Scalar<float>::ops, re, im, out);
}
void radix2_stage(const Complex32* src, Complex32* dst, const Complex32* tw,
                  std::size_t half, std::size_t m) {
  Scalar<float>::radix2_stage(src, dst, tw, half, m);
}
void radix4_stage(const Complex32* src, Complex32* dst, const Complex32* tw,
                  std::size_t quarter, std::size_t m, bool invert) {
  Scalar<float>::radix4_stage(src, dst, tw, quarter, m, invert);
}

}  // namespace scalar
}  // namespace ff::dsp::kernels
