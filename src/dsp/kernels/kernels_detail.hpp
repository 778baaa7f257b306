// Internal glue shared by the kernel TUs (the scalar reference in
// kernels.cpp, the AVX2 path in kernels_avx2.cpp). Not installed as public
// API — include kernels.hpp instead.
//
// Scalar<T> is the bitwise ground truth: every op without an AVX2 body
// calls it directly, the scalar dispatch table points at it, and the AVX2
// TU reuses it for loop tails and for whole stages its vector bodies do
// not cover, so a dispatched call is indistinguishable from the scalar one
// on any span length. Its members are defined only in kernels.cpp, which
// explicitly instantiates the ones the AVX2 TU calls; the -mavx2 TU sees
// declarations alone, so no VEX-encoded copy of shared scalar code exists
// for the linker to pick. Keep every formula there in sync with the
// contract documented in kernels.hpp (no FMA, fixed association).
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>

namespace ff::dsp::kernels::detail {

// Pointer-level dispatch table: one slot per op and lane type with an AVX2
// body, and nothing else. One instance per compiled ISA; kernels.cpp picks
// the ISA at process start. The fir slots take (h, taps, ext, y, n[, stride]);
// the f32 one is stride 1 only, because no f32 caller decimates. The
// ziggurat slot takes (words, n, x, out) and returns the accepted count.
struct KernelOps {
  using C = std::complex<double>;
  using C32 = std::complex<float>;
  void (*cmul)(const C*, const C*, C*, std::size_t);
  void (*fir)(const C*, std::size_t, const C*, C*, std::size_t, std::size_t);
  void (*radix2_stage)(const C*, C*, const C*, std::size_t, std::size_t);
  void (*radix4_stage)(const C*, C*, const C*, std::size_t, std::size_t, bool);
  void (*cmul32)(const C32*, const C32*, C32*, std::size_t);
  void (*fir32)(const C32*, std::size_t, const C32*, C32*, std::size_t);
  std::size_t (*ziggurat_accept)(const std::uint64_t*, std::size_t, const double*, double*);
};

// The scalar reference cores for lane type T. Every multiply/add is one
// IEEE operation at width T — no wider intermediates — so SIMD lanes of the
// same width reproduce them bit for bit.
template <typename T>
struct Scalar {
  using C = std::complex<T>;
  static void cmul(const C* a, const C* b, C* out, std::size_t n);
  static void axpy(C alpha, const C* x, C* y, std::size_t n);
  // y[i] = sum_k h[k] * ext[(taps - 1) + i * stride - k], k = 0..taps-1.
  static void fir(const C* h, std::size_t taps, const C* ext, C* y, std::size_t n,
                  std::size_t stride);
  static void scale_real(T alpha, const C* x, C* out, std::size_t n);
  static C cdot_conj(const C* a, const C* b, std::size_t n);
  static T magsq_accum(const C* x, std::size_t n);
  static void radix2_stage(const C* src, C* dst, const C* tw, std::size_t half,
                           std::size_t m);
  static void radix4_stage(const C* src, C* dst, const C* tw, std::size_t quarter,
                           std::size_t m, bool invert);
  // The ziggurat's one-word fast path over untempered engine words: writes
  // out[k] = z while word k's |z| < x[i + 1] and returns that count. f64
  // only (the ziggurat's table is double); kernels.hpp has the formula.
  static std::size_t ziggurat_accept(const std::uint64_t* words, std::size_t n, const T* x,
                                     T* out);
};

#if defined(FF_SIMD_ENABLED) && (defined(__x86_64__) || defined(_M_X64))
// Defined in kernels_avx2.cpp.
const KernelOps& avx2_ops();
#endif

}  // namespace ff::dsp::kernels::detail
