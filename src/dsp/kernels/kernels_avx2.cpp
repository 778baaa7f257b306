// AVX2 kernel path: two complex doubles per __m256d, four complex floats
// per __m256. Compiled with -mavx2 (only this TU) when FF_SIMD=ON; selected
// at runtime by __builtin_cpu_supports("avx2") in kernels.cpp.
//
// Six bodies, the ones the relay's timed paths run and the only six
// dispatch slots: f64 cmul (which rotate_phasor is), axpy (every FIR tap),
// radix2_stage and radix4_stage (the f64 FFT behind packet modulation), and
// f32 cmul and axpy. Loop tails, and whole FFT stages a register cannot
// fill, call the scalar templates.
//
// Bitwise contract (kernels.hpp): identical per-element formulas to the
// scalar reference — same products, additions commuted at most (IEEE
// addition is commutative bitwise), subtraction as addition of a negation
// (exact), +/-i rotation as swap + sign flip (exact). -ffp-contract=off
// pins out FMA fusion.
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

void cmul_avx2(const Complex* a, const Complex* b, Complex* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) store2(out + i, cmul2(load2(a + i), load2(b + i)));
  Scalar<double>::cmul(a + i, b + i, out + i, n - i);
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
// Four complex<float> per __m256, double the lane count of the f64 path.
// Same bitwise contract: every lane computes the scalar reference formula.

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

void cmul_avx2_32(const Complex32* a, const Complex32* b, Complex32* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) store4f(out + i, cmul4f(load4f(a + i), load4f(b + i)));
  Scalar<float>::cmul(a + i, b + i, out + i, n - i);
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

}  // namespace

const KernelOps& avx2_ops() {
  static const KernelOps ops = {
      .cmul = &cmul_avx2,
      .axpy = &axpy_avx2,
      .radix2_stage = &radix2_stage_avx2,
      .radix4_stage = &radix4_stage_avx2,
      .cmul32 = &cmul_avx2_32,
      .axpy32 = &axpy_avx2_32,
  };
  return ops;
}

}  // namespace ff::dsp::kernels::detail

#endif  // FF_SIMD_ENABLED && x86-64
