// AVX2 kernel path: two complex doubles per __m256d. Compiled with -mavx2
// (only this TU) when FF_SIMD=ON; selected at runtime by
// __builtin_cpu_supports("avx2") in kernels.cpp.
//
// Bitwise contract (kernels.hpp): identical per-element formulas to the
// scalar reference — same products, additions commuted at most (IEEE
// addition is commutative bitwise), subtraction as addition of a negation
// (exact), +/-i rotation as swap + sign flip (exact). Reductions keep the
// fixed four-lane association. -ffp-contract=off pins out FMA fusion.
#include "common/types.hpp"
#include "dsp/kernels/kernels_detail.hpp"

#if defined(FF_SIMD_ENABLED) && (defined(__x86_64__) || defined(_M_X64))

#include <immintrin.h>

namespace ff::dsp::kernels::detail {
namespace {

inline __m256d load2(const Complex* p) {
  return _mm256_loadu_pd(reinterpret_cast<const double*>(p));
}

inline void store2(Complex* p, __m256d v) {
  _mm256_storeu_pd(reinterpret_cast<double*>(p), v);
}

// [wr, wi, wr, wi] from a single complex.
inline __m256d bcast(const Complex* w) {
  return _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(w));
}

// a * b per complex lane: re = ar*br - ai*bi, im = ai*br + ar*bi.
inline __m256d cmul2(__m256d a, __m256d b) {
  const __m256d br = _mm256_movedup_pd(b);
  const __m256d bi = _mm256_permute_pd(b, 0xF);
  const __m256d asw = _mm256_permute_pd(a, 0x5);
  return _mm256_addsub_pd(_mm256_mul_pd(a, br), _mm256_mul_pd(asw, bi));
}

// conj(a) * b per complex lane: re = br*ar + bi*ai, im = bi*ar - br*ai.
inline __m256d cmul2_conj(__m256d a, __m256d b) {
  const __m256d ar = _mm256_movedup_pd(a);
  const __m256d ai = _mm256_permute_pd(a, 0xF);
  const __m256d bsw = _mm256_permute_pd(b, 0x5);
  const __m256d t0 = _mm256_mul_pd(b, ar);
  const __m256d t1 = _mm256_mul_pd(bsw, ai);
  // [t0.re + t1.re, t0.im - t1.im]: negate the imaginary (odd) lanes of t1.
  const __m256d mask = _mm256_set_pd(-0.0, 0.0, -0.0, 0.0);
  return _mm256_add_pd(t0, _mm256_xor_pd(t1, mask));
}

void cmul_avx2(const Complex* a, const Complex* b, Complex* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) store2(out + i, cmul2(load2(a + i), load2(b + i)));
  Scalar<double>::cmul(a + i, b + i, out + i, n - i);
}

void cmac_avx2(const Complex* a, const Complex* b, Complex* acc, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d p = cmul2(load2(a + i), load2(b + i));
    store2(acc + i, _mm256_add_pd(load2(acc + i), p));
  }
  Scalar<double>::cmac(a + i, b + i, acc + i, n - i);
}

void axpy_avx2(Complex alpha, const Complex* x, Complex* y, std::size_t n) {
  const __m256d av = bcast(&alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d p0 = cmul2(load2(x + i), av);
    const __m256d p1 = cmul2(load2(x + i + 2), av);
    store2(y + i, _mm256_add_pd(load2(y + i), p0));
    store2(y + i + 2, _mm256_add_pd(load2(y + i + 2), p1));
  }
  for (; i + 2 <= n; i += 2) {
    const __m256d p = cmul2(load2(x + i), av);
    store2(y + i, _mm256_add_pd(load2(y + i), p));
  }
  Scalar<double>::axpy(alpha, x + i, y + i, n - i);
}

void scale_avx2(Complex alpha, const Complex* x, Complex* out, std::size_t n) {
  const __m256d av = bcast(&alpha);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) store2(out + i, cmul2(load2(x + i), av));
  Scalar<double>::scale(alpha, x + i, out + i, n - i);
}

void scale_real_avx2(double alpha, const Complex* x, Complex* out, std::size_t n) {
  const __m256d av = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) store2(out + i, _mm256_mul_pd(load2(x + i), av));
  Scalar<double>::scale_real(alpha, x + i, out + i, n - i);
}

Complex cdot_conj_avx2(const Complex* a, const Complex* b, std::size_t n) {
  // v01 holds lanes {0,1}, v23 lanes {2,3} of the four-lane schedule.
  __m256d v01 = _mm256_setzero_pd(), v23 = v01;
  const std::size_t n4 = n - n % 4;
  for (std::size_t k = 0; k < n4; k += 4) {
    v01 = _mm256_add_pd(v01, cmul2_conj(load2(a + k), load2(b + k)));
    v23 = _mm256_add_pd(v23, cmul2_conj(load2(a + k + 2), load2(b + k + 2)));
  }
  Complex lanes[4];
  _mm_storeu_pd(reinterpret_cast<double*>(&lanes[0]), _mm256_castpd256_pd128(v01));
  _mm_storeu_pd(reinterpret_cast<double*>(&lanes[1]), _mm256_extractf128_pd(v01, 1));
  _mm_storeu_pd(reinterpret_cast<double*>(&lanes[2]), _mm256_castpd256_pd128(v23));
  _mm_storeu_pd(reinterpret_cast<double*>(&lanes[3]), _mm256_extractf128_pd(v23, 1));
  Scalar<double>::cdot_conj_tail(a, b, n4, n, lanes);
  const double re = (lanes[0].real() + lanes[1].real()) + (lanes[2].real() + lanes[3].real());
  const double im = (lanes[0].imag() + lanes[1].imag()) + (lanes[2].imag() + lanes[3].imag());
  return {re, im};
}

double magsq_accum_avx2(const Complex* x, std::size_t n) {
  // vacc lanes accumulate [A0, A2, A1, A3] of the four-lane schedule.
  __m256d vacc = _mm256_setzero_pd();
  const std::size_t n4 = n - n % 4;
  for (std::size_t k = 0; k < n4; k += 4) {
    const __m256d va = load2(x + k);
    const __m256d vb = load2(x + k + 2);
    const __m256d sqa = _mm256_mul_pd(va, va);
    const __m256d sqb = _mm256_mul_pd(vb, vb);
    // Pairwise re^2 + im^2 (term order matches the scalar core).
    const __m256d pa = _mm256_add_pd(sqa, _mm256_permute_pd(sqa, 0x5));
    const __m256d pb = _mm256_add_pd(sqb, _mm256_permute_pd(sqb, 0x5));
    // [t0, t2, t1, t3]
    vacc = _mm256_add_pd(vacc, _mm256_shuffle_pd(pa, pb, 0x0));
  }
  alignas(32) double e[4];
  _mm256_store_pd(e, vacc);
  double lanes[4] = {e[0], e[2], e[1], e[3]};
  Scalar<double>::magsq_accum_tail(x, n4, n, lanes);
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

void split_avx2(const Complex* x, double* re, double* im, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v0 = load2(x + i);      // [r0 i0 r1 i1]
    const __m256d v1 = load2(x + i + 2);  // [r2 i2 r3 i3]
    const __m256d lo = _mm256_unpacklo_pd(v0, v1);  // [r0 r2 r1 r3]
    const __m256d hi = _mm256_unpackhi_pd(v0, v1);  // [i0 i2 i1 i3]
    _mm256_storeu_pd(re + i, _mm256_permute4x64_pd(lo, 0xD8));  // [r0 r1 r2 r3]
    _mm256_storeu_pd(im + i, _mm256_permute4x64_pd(hi, 0xD8));
  }
  Scalar<double>::split(x + i, re + i, im + i, n - i);
}

void interleave_avx2(const double* re, const double* im, Complex* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vr = _mm256_permute4x64_pd(_mm256_loadu_pd(re + i), 0xD8);  // [r0 r2 r1 r3]
    const __m256d vi = _mm256_permute4x64_pd(_mm256_loadu_pd(im + i), 0xD8);  // [i0 i2 i1 i3]
    store2(out + i, _mm256_unpacklo_pd(vr, vi));      // [r0 i0 r1 i1]
    store2(out + i + 2, _mm256_unpackhi_pd(vr, vi));  // [r2 i2 r3 i3]
  }
  Scalar<double>::interleave(re + i, im + i, out + i, n - i);
}

// The butterfly stages vectorize along k, two samples of one butterfly per
// register. A stage whose m is not a multiple of that runs the scalar core
// whole (bitwise identical by the scalar contract); for power-of-two sizes
// that is only the first stage, m == 1.

void radix2_stage_avx2(const Complex* src, Complex* dst, const Complex* tw,
                       std::size_t half, std::size_t m) {
  if (m % 2 != 0) {
    Scalar<double>::radix2_stage(src, dst, tw, half, m);
    return;
  }
  for (std::size_t j = 0; j < half; ++j) {
    const __m256d w = bcast(tw + j);
    const Complex* s0 = src + m * j;
    const Complex* s1 = src + m * (j + half);
    Complex* d0 = dst + m * (2 * j);
    Complex* d1 = d0 + m;
    for (std::size_t k = 0; k < m; k += 2) {
      const __m256d c0 = load2(s0 + k);
      const __m256d c1 = load2(s1 + k);
      store2(d0 + k, _mm256_add_pd(c0, c1));
      store2(d1 + k, cmul2(_mm256_sub_pd(c0, c1), w));
    }
  }
}

void radix4_stage_avx2(const Complex* src, Complex* dst, const Complex* tw,
                       std::size_t quarter, std::size_t m, bool invert) {
  if (m % 2 != 0) {
    Scalar<double>::radix4_stage(src, dst, tw, quarter, m, invert);
    return;
  }
  // e3 = -i*t (forward): [t.im, -t.re]; +i*t (inverse): [-t.im, t.re].
  const __m256d fwd_mask = _mm256_set_pd(-0.0, 0.0, -0.0, 0.0);
  const __m256d inv_mask = _mm256_set_pd(0.0, -0.0, 0.0, -0.0);
  const __m256d rot = invert ? inv_mask : fwd_mask;
  for (std::size_t j = 0; j < quarter; ++j) {
    const __m256d w1 = bcast(tw + 3 * j);
    const __m256d w2 = bcast(tw + 3 * j + 1);
    const __m256d w3 = bcast(tw + 3 * j + 2);
    const Complex* s0 = src + m * j;
    const Complex* s1 = src + m * (j + quarter);
    const Complex* s2 = src + m * (j + 2 * quarter);
    const Complex* s3 = src + m * (j + 3 * quarter);
    Complex* d0 = dst + m * (4 * j);
    Complex* d1 = d0 + m;
    Complex* d2 = d1 + m;
    Complex* d3 = d2 + m;
    for (std::size_t k = 0; k < m; k += 2) {
      const __m256d c0 = load2(s0 + k), c1 = load2(s1 + k);
      const __m256d c2 = load2(s2 + k), c3 = load2(s3 + k);
      const __m256d e0 = _mm256_add_pd(c0, c2);
      const __m256d e1 = _mm256_sub_pd(c0, c2);
      const __m256d e2 = _mm256_add_pd(c1, c3);
      const __m256d t = _mm256_sub_pd(c1, c3);
      const __m256d e3 = _mm256_xor_pd(_mm256_permute_pd(t, 0x5), rot);
      store2(d0 + k, _mm256_add_pd(e0, e2));
      store2(d1 + k, cmul2(_mm256_add_pd(e1, e3), w1));
      store2(d2 + k, cmul2(_mm256_sub_pd(e0, e2), w2));
      store2(d3 + k, cmul2(_mm256_sub_pd(e1, e3), w3));
    }
  }
}

// ------------------------------------------------------------ float32 path
// Four complex<float> per __m256 — double the lane count of the f64 path,
// which is the entire point of the f32 family. Same bitwise contract: every
// lane computes the scalar reference formula, reductions keep the four-lane
// schedule (one __m256 accumulator IS the four lanes).

inline __m256 load4f(const Complex32* p) {
  return _mm256_loadu_ps(reinterpret_cast<const float*>(p));
}

inline void store4f(Complex32* p, __m256 v) {
  _mm256_storeu_ps(reinterpret_cast<float*>(p), v);
}

// [wr, wi] broadcast into all four complex lanes (64-bit dup, data movement
// only — no FP operation touches the bits).
inline __m256 bcast1f(const Complex32* w) {
  return _mm256_castpd_ps(_mm256_broadcast_sd(reinterpret_cast<const double*>(w)));
}

// a * b per complex lane: re = ar*br - ai*bi, im = ai*br + ar*bi.
inline __m256 cmul4f(__m256 a, __m256 b) {
  const __m256 br = _mm256_moveldup_ps(b);
  const __m256 bi = _mm256_movehdup_ps(b);
  const __m256 asw = _mm256_permute_ps(a, 0xB1);
  return _mm256_addsub_ps(_mm256_mul_ps(a, br), _mm256_mul_ps(asw, bi));
}

// conj(a) * b per complex lane: re = br*ar + bi*ai, im = bi*ar - br*ai.
inline __m256 cmul_conj4f(__m256 a, __m256 b) {
  const __m256 ar = _mm256_moveldup_ps(a);
  const __m256 ai = _mm256_movehdup_ps(a);
  const __m256 bsw = _mm256_permute_ps(b, 0xB1);
  const __m256 t0 = _mm256_mul_ps(b, ar);
  const __m256 t1 = _mm256_mul_ps(bsw, ai);
  const __m256 mask = _mm256_set_ps(-0.0f, 0.0f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f, 0.0f);
  return _mm256_add_ps(t0, _mm256_xor_ps(t1, mask));
}

void cmul_avx2_32(const Complex32* a, const Complex32* b, Complex32* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) store4f(out + i, cmul4f(load4f(a + i), load4f(b + i)));
  Scalar<float>::cmul(a + i, b + i, out + i, n - i);
}

void cmac_avx2_32(const Complex32* a, const Complex32* b, Complex32* acc, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256 p = cmul4f(load4f(a + i), load4f(b + i));
    store4f(acc + i, _mm256_add_ps(load4f(acc + i), p));
  }
  Scalar<float>::cmac(a + i, b + i, acc + i, n - i);
}

void axpy_avx2_32(Complex32 alpha, const Complex32* x, Complex32* y, std::size_t n) {
  const __m256 av = bcast1f(&alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 p0 = cmul4f(load4f(x + i), av);
    const __m256 p1 = cmul4f(load4f(x + i + 4), av);
    store4f(y + i, _mm256_add_ps(load4f(y + i), p0));
    store4f(y + i + 4, _mm256_add_ps(load4f(y + i + 4), p1));
  }
  for (; i + 4 <= n; i += 4) {
    const __m256 p = cmul4f(load4f(x + i), av);
    store4f(y + i, _mm256_add_ps(load4f(y + i), p));
  }
  Scalar<float>::axpy(alpha, x + i, y + i, n - i);
}

void scale_avx2_32(Complex32 alpha, const Complex32* x, Complex32* out, std::size_t n) {
  const __m256 av = bcast1f(&alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) store4f(out + i, cmul4f(load4f(x + i), av));
  Scalar<float>::scale(alpha, x + i, out + i, n - i);
}

void scale_real_avx2_32(float alpha, const Complex32* x, Complex32* out, std::size_t n) {
  const __m256 av = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) store4f(out + i, _mm256_mul_ps(load4f(x + i), av));
  Scalar<float>::scale_real(alpha, x + i, out + i, n - i);
}

Complex32 cdot_conj_avx2_32(const Complex32* a, const Complex32* b, std::size_t n) {
  // One __m256 accumulator holds the four reduction lanes in order: term
  // k + j lands in complex lane j, i.e. lane (k + j) mod 4 — the scalar
  // schedule exactly.
  __m256 vacc = _mm256_setzero_ps();
  const std::size_t n4 = n - n % 4;
  for (std::size_t k = 0; k < n4; k += 4)
    vacc = _mm256_add_ps(vacc, cmul_conj4f(load4f(a + k), load4f(b + k)));
  Complex32 lanes[4];
  _mm256_storeu_ps(reinterpret_cast<float*>(lanes), vacc);
  Scalar<float>::cdot_conj_tail(a, b, n4, n, lanes);
  const float re = (lanes[0].real() + lanes[1].real()) + (lanes[2].real() + lanes[3].real());
  const float im = (lanes[0].imag() + lanes[1].imag()) + (lanes[2].imag() + lanes[3].imag());
  return {re, im};
}

float magsq_accum_avx2_32(const Complex32* x, std::size_t n) {
  // Four terms per iteration packed into a __m128 accumulator = the four
  // scalar lanes in order.
  __m128 vacc = _mm_setzero_ps();
  const std::size_t n4 = n - n % 4;
  for (std::size_t k = 0; k < n4; k += 4) {
    const __m256 v = load4f(x + k);
    const __m256 sq = _mm256_mul_ps(v, v);
    // term = re^2 + im^2 at the even lanes (one add per term, scalar order).
    const __m256 p = _mm256_add_ps(sq, _mm256_movehdup_ps(sq));
    const __m256 s = _mm256_shuffle_ps(p, p, _MM_SHUFFLE(2, 0, 2, 0));
    const __m128 lo = _mm256_castps256_ps128(s);       // [t0 t1 t0 t1]
    const __m128 hi = _mm256_extractf128_ps(s, 1);     // [t2 t3 t2 t3]
    vacc = _mm_add_ps(vacc, _mm_shuffle_ps(lo, hi, _MM_SHUFFLE(1, 0, 1, 0)));
  }
  float lanes[4];
  _mm_storeu_ps(lanes, vacc);
  Scalar<float>::magsq_accum_tail(x, n4, n, lanes);
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

void split_avx2_32(const Complex32* x, float* re, float* im, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v0 = load4f(x + i);      // [r0 i0 r1 i1 | r2 i2 r3 i3]
    const __m256 v1 = load4f(x + i + 4);  // [r4 i4 r5 i5 | r6 i6 r7 i7]
    const __m256 lo = _mm256_shuffle_ps(v0, v1, _MM_SHUFFLE(2, 0, 2, 0));  // [r0 r1 r4 r5 | r2 r3 r6 r7]
    const __m256 hi = _mm256_shuffle_ps(v0, v1, _MM_SHUFFLE(3, 1, 3, 1));  // imag twin
    _mm256_storeu_ps(re + i, _mm256_castpd_ps(_mm256_permute4x64_pd(_mm256_castps_pd(lo), 0xD8)));
    _mm256_storeu_ps(im + i, _mm256_castpd_ps(_mm256_permute4x64_pd(_mm256_castps_pd(hi), 0xD8)));
  }
  Scalar<float>::split(x + i, re + i, im + i, n - i);
}

void interleave_avx2_32(const float* re, const float* im, Complex32* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vr = _mm256_castpd_ps(
        _mm256_permute4x64_pd(_mm256_castps_pd(_mm256_loadu_ps(re + i)), 0xD8));  // [r0 r1 r4 r5 | r2 r3 r6 r7]
    const __m256 vi = _mm256_castpd_ps(
        _mm256_permute4x64_pd(_mm256_castps_pd(_mm256_loadu_ps(im + i)), 0xD8));
    store4f(out + i, _mm256_unpacklo_ps(vr, vi));      // [r0 i0 r1 i1 | r2 i2 r3 i3]
    store4f(out + i + 4, _mm256_unpackhi_ps(vr, vi));  // [r4 i4 r5 i5 | r6 i6 r7 i7]
  }
  Scalar<float>::interleave(re + i, im + i, out + i, n - i);
}

// Same stage structure as the f64 path with four samples per register, so
// a stage whose m is not a multiple of four runs the scalar core whole.

void radix2_stage_avx2_32(const Complex32* src, Complex32* dst, const Complex32* tw,
                          std::size_t half, std::size_t m) {
  if (m % 4 != 0) {
    Scalar<float>::radix2_stage(src, dst, tw, half, m);
    return;
  }
  for (std::size_t j = 0; j < half; ++j) {
    const __m256 w = bcast1f(tw + j);
    const Complex32* s0 = src + m * j;
    const Complex32* s1 = src + m * (j + half);
    Complex32* d0 = dst + m * (2 * j);
    Complex32* d1 = d0 + m;
    for (std::size_t k = 0; k < m; k += 4) {
      const __m256 c0 = load4f(s0 + k);
      const __m256 c1 = load4f(s1 + k);
      store4f(d0 + k, _mm256_add_ps(c0, c1));
      store4f(d1 + k, cmul4f(_mm256_sub_ps(c0, c1), w));
    }
  }
}

void radix4_stage_avx2_32(const Complex32* src, Complex32* dst, const Complex32* tw,
                          std::size_t quarter, std::size_t m, bool invert) {
  // The first stage (m == 1) vectorizes across butterflies instead, so
  // there it is `quarter` that must fill whole registers.
  if ((m == 1 ? quarter : m) % 4 != 0) {
    Scalar<float>::radix4_stage(src, dst, tw, quarter, m, invert);
    return;
  }
  const __m256 fwd_mask = _mm256_set_ps(-0.0f, 0.0f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f, 0.0f);
  const __m256 inv_mask = _mm256_set_ps(0.0f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f);
  const __m256 rot = invert ? inv_mask : fwd_mask;
  if (m == 1) {
    // First Stockham stage: one complex per butterfly, so vectorize ACROSS
    // butterflies — four j's per register. Loads are contiguous within each
    // quarter, twiddles gather at stride 3, and the four result streams
    // transpose (4x4 over 64-bit complex lanes) into contiguous
    // dst[4j .. 4j+15]. Every lane computes the scalar butterfly formula
    // with the same per-op rounding, so the bitwise contract holds.
    const __m256i idx3 = _mm256_setr_epi64x(0, 3, 6, 9);
    for (std::size_t j = 0; j < quarter; j += 4) {
      const __m256 c0 = load4f(src + j);
      const __m256 c1 = load4f(src + quarter + j);
      const __m256 c2 = load4f(src + 2 * quarter + j);
      const __m256 c3 = load4f(src + 3 * quarter + j);
      const __m256 e0 = _mm256_add_ps(c0, c2);
      const __m256 e1 = _mm256_sub_ps(c0, c2);
      const __m256 e2 = _mm256_add_ps(c1, c3);
      const __m256 t = _mm256_sub_ps(c1, c3);
      const __m256 e3 = _mm256_xor_ps(_mm256_permute_ps(t, 0xB1), rot);
      const long long* twp = reinterpret_cast<const long long*>(tw + 3 * j);
      const __m256 w1 = _mm256_castsi256_ps(_mm256_i64gather_epi64(twp, idx3, 8));
      const __m256 w2 = _mm256_castsi256_ps(_mm256_i64gather_epi64(twp + 1, idx3, 8));
      const __m256 w3 = _mm256_castsi256_ps(_mm256_i64gather_epi64(twp + 2, idx3, 8));
      const __m256d r0 = _mm256_castps_pd(_mm256_add_ps(e0, e2));
      const __m256d r1 = _mm256_castps_pd(cmul4f(_mm256_add_ps(e1, e3), w1));
      const __m256d r2 = _mm256_castps_pd(cmul4f(_mm256_sub_ps(e0, e2), w2));
      const __m256d r3 = _mm256_castps_pd(cmul4f(_mm256_sub_ps(e1, e3), w3));
      const __m256d lo01 = _mm256_unpacklo_pd(r0, r1);  // [j:0 j:1 | j+2:0 j+2:1]
      const __m256d hi01 = _mm256_unpackhi_pd(r0, r1);  // [j+1:0 j+1:1 | j+3:0 j+3:1]
      const __m256d lo23 = _mm256_unpacklo_pd(r2, r3);
      const __m256d hi23 = _mm256_unpackhi_pd(r2, r3);
      store4f(dst + 4 * j, _mm256_castpd_ps(_mm256_permute2f128_pd(lo01, lo23, 0x20)));
      store4f(dst + 4 * j + 4, _mm256_castpd_ps(_mm256_permute2f128_pd(hi01, hi23, 0x20)));
      store4f(dst + 4 * j + 8, _mm256_castpd_ps(_mm256_permute2f128_pd(lo01, lo23, 0x31)));
      store4f(dst + 4 * j + 12, _mm256_castpd_ps(_mm256_permute2f128_pd(hi01, hi23, 0x31)));
    }
    return;
  }
  for (std::size_t j = 0; j < quarter; ++j) {
    const __m256 w1 = bcast1f(tw + 3 * j);
    const __m256 w2 = bcast1f(tw + 3 * j + 1);
    const __m256 w3 = bcast1f(tw + 3 * j + 2);
    const Complex32* s0 = src + m * j;
    const Complex32* s1 = src + m * (j + quarter);
    const Complex32* s2 = src + m * (j + 2 * quarter);
    const Complex32* s3 = src + m * (j + 3 * quarter);
    Complex32* d0 = dst + m * (4 * j);
    Complex32* d1 = d0 + m;
    Complex32* d2 = d1 + m;
    Complex32* d3 = d2 + m;
    for (std::size_t k = 0; k < m; k += 4) {
      const __m256 c0 = load4f(s0 + k), c1 = load4f(s1 + k);
      const __m256 c2 = load4f(s2 + k), c3 = load4f(s3 + k);
      const __m256 e0 = _mm256_add_ps(c0, c2);
      const __m256 e1 = _mm256_sub_ps(c0, c2);
      const __m256 e2 = _mm256_add_ps(c1, c3);
      const __m256 t = _mm256_sub_ps(c1, c3);
      const __m256 e3 = _mm256_xor_ps(_mm256_permute_ps(t, 0xB1), rot);
      store4f(d0 + k, _mm256_add_ps(e0, e2));
      store4f(d1 + k, cmul4f(_mm256_add_ps(e1, e3), w1));
      store4f(d2 + k, cmul4f(_mm256_sub_ps(e0, e2), w2));
      store4f(d3 + k, cmul4f(_mm256_sub_ps(e1, e3), w3));
    }
  }
}

}  // namespace

template <>
const KernelOps<double>& avx2_ops() {
  static const KernelOps<double> ops = {
      &cmul_avx2,     &cmac_avx2,        &axpy_avx2,
      &scale_avx2,    &scale_real_avx2,  &cdot_conj_avx2,
      &magsq_accum_avx2, &split_avx2,    &interleave_avx2,
      &radix2_stage_avx2, &radix4_stage_avx2,
  };
  return ops;
}

template <>
const KernelOps<float>& avx2_ops() {
  static const KernelOps<float> ops = {
      &cmul_avx2_32,  &cmac_avx2_32,     &axpy_avx2_32,
      &scale_avx2_32, &scale_real_avx2_32, &cdot_conj_avx2_32,
      &magsq_accum_avx2_32, &split_avx2_32, &interleave_avx2_32,
      &radix2_stage_avx2_32, &radix4_stage_avx2_32,
  };
  return ops;
}

}  // namespace ff::dsp::kernels::detail

#endif  // FF_SIMD_ENABLED && x86-64
