// Internal glue shared by the kernel TUs (the scalar reference in
// kernels.cpp, the AVX2 path in kernels_avx2.cpp). Not installed as public
// API — include kernels.hpp instead.
//
// Scalar<T> is the bitwise ground truth: the AVX2 TU reuses it for loop
// tails, for whole stages its vector bodies do not cover, and as the table
// entry of every op that has no AVX2 body, so a dispatched call is
// indistinguishable from the scalar one on any span length. Its members are
// defined only in kernels.cpp, which explicitly instantiates both lane
// types; the -mavx2 TU sees declarations alone and takes their addresses,
// so no VEX-encoded copy of shared scalar code exists for the linker to
// pick. Keep every formula there in sync with the contract documented in
// kernels.hpp (no FMA, fixed association).
#pragma once

#include <complex>
#include <cstddef>

namespace ff::dsp::kernels::detail {

// Pointer-level dispatch table for one lane type (double or float). One
// instance per compiled ISA and lane type; kernels.cpp picks the ISA at
// process start.
template <typename T>
struct KernelOps {
  using C = std::complex<T>;
  void (*cmul)(const C*, const C*, C*, std::size_t);
  void (*cmac)(const C*, const C*, C*, std::size_t);
  void (*axpy)(C, const C*, C*, std::size_t);
  void (*scale)(C, const C*, C*, std::size_t);
  void (*scale_real)(T, const C*, C*, std::size_t);
  C (*cdot_conj)(const C*, const C*, std::size_t);
  T (*magsq_accum)(const C*, std::size_t);
  void (*split)(const C*, T*, T*, std::size_t);
  void (*interleave)(const T*, const T*, C*, std::size_t);
  void (*radix2_stage)(const C*, C*, const C*, std::size_t, std::size_t);
  void (*radix4_stage)(const C*, C*, const C*, std::size_t, std::size_t, bool);
};

// The scalar reference cores for lane type T (explicitly instantiated for
// double and float in kernels.cpp). Every multiply/add is one IEEE
// operation at width T — no wider intermediates — so SIMD lanes of the same
// width reproduce them bit for bit.
template <typename T>
struct Scalar {
  using C = std::complex<T>;
  static void cmul(const C* a, const C* b, C* out, std::size_t n);
  static void cmac(const C* a, const C* b, C* acc, std::size_t n);
  static void axpy(C alpha, const C* x, C* y, std::size_t n);
  static void scale(C alpha, const C* x, C* out, std::size_t n);
  static void scale_real(T alpha, const C* x, C* out, std::size_t n);
  static C cdot_conj(const C* a, const C* b, std::size_t n);
  static T magsq_accum(const C* x, std::size_t n);
  static void split(const C* x, T* re, T* im, std::size_t n);
  static void interleave(const T* re, const T* im, C* out, std::size_t n);
  static void radix2_stage(const C* src, C* dst, const C* tw, std::size_t half,
                           std::size_t m);
  static void radix4_stage(const C* src, C* dst, const C* tw, std::size_t quarter,
                           std::size_t m, bool invert);

  static const KernelOps<T> ops;
};

#if defined(FF_SIMD_ENABLED) && (defined(__x86_64__) || defined(_M_X64))
// Defined in kernels_avx2.cpp, one table per lane type.
template <typename T>
const KernelOps<T>& avx2_ops();
template <>
const KernelOps<double>& avx2_ops();
template <>
const KernelOps<float>& avx2_ops();
#endif

}  // namespace ff::dsp::kernels::detail
