// AVX2 kernel path: two complex doubles per __m256d, four complex floats
// per __m256. Compiled with -mavx2 (only this TU) when FF_SIMD=ON; selected
// at runtime by __builtin_cpu_supports("avx2") in kernels.cpp.
//
// Seven bodies, the ones the relay's timed paths run and the only seven
// dispatch slots: f64 cmul (which rotate_phasor is), fir (every FIR block),
// radix2_stage and radix4_stage (the f64 FFT behind packet modulation),
// ziggurat_accept (the stream channel's noise), and f32 cmul and fir. Loop
// tails, and whole FFT stages a register cannot fill, call the scalar
// templates.
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

// x * h per complex lane with h's real and imaginary parts already
// broadcast: cmul2's arithmetic with the tap-side shuffles done once per tap.
inline __m256d cmul2_split(__m256d x, __m256d hr, __m256d hi) {
  return _mm256_addsub_pd(_mm256_mul_pd(x, hr), _mm256_mul_pd(_mm256_permute_pd(x, 0x5), hi));
}

// The ext samples outputs i and i + 1 meet at one tap: one 256-bit load at
// stride 1, two 128-bit loads otherwise.
template <bool kUnitStride>
inline __m256d load_pair(const Complex* p, std::size_t stride) {
  if constexpr (kUnitStride) {
    return load2(p);
  } else {
    return _mm256_loadu2_m128d(reinterpret_cast<const double*>(p + stride),
                               reinterpret_cast<const double*>(p));
  }
}

// FIR outputs held in registers for the whole tap loop: 8 per chunk (four
// accumulators of two), then 2 per chunk, then the scalar tail. Each output
// starts at +0 and adds one tap at a time, taps ascending, as the scalar
// template does; y is written once.
template <bool kUnitStride>
void fir_rows_avx2(const Complex* h, std::size_t taps, const Complex* ext, Complex* y,
                   std::size_t n, std::size_t stride) {
  const std::size_t s = kUnitStride ? 1 : stride;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const Complex* newest = ext + (taps - 1) + i * s;
    __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd(), a3 = _mm256_setzero_pd();
    for (std::size_t k = 0; k < taps; ++k) {
      const double* hk = reinterpret_cast<const double*>(h + k);
      const __m256d hr = _mm256_broadcast_sd(hk), hi = _mm256_broadcast_sd(hk + 1);
      const Complex* x = newest - k;
      a0 = _mm256_add_pd(a0, cmul2_split(load_pair<kUnitStride>(x, s), hr, hi));
      a1 = _mm256_add_pd(a1, cmul2_split(load_pair<kUnitStride>(x + 2 * s, s), hr, hi));
      a2 = _mm256_add_pd(a2, cmul2_split(load_pair<kUnitStride>(x + 4 * s, s), hr, hi));
      a3 = _mm256_add_pd(a3, cmul2_split(load_pair<kUnitStride>(x + 6 * s, s), hr, hi));
    }
    store2(y + i, a0);
    store2(y + i + 2, a1);
    store2(y + i + 4, a2);
    store2(y + i + 6, a3);
  }
  for (; i + 2 <= n; i += 2) {
    const Complex* newest = ext + (taps - 1) + i * s;
    __m256d a = _mm256_setzero_pd();
    for (std::size_t k = 0; k < taps; ++k) {
      const double* hk = reinterpret_cast<const double*>(h + k);
      a = _mm256_add_pd(a, cmul2_split(load_pair<kUnitStride>(newest - k, s),
                                       _mm256_broadcast_sd(hk), _mm256_broadcast_sd(hk + 1)));
    }
    store2(y + i, a);
  }
  Scalar<double>::fir(h, taps, ext + i * s, y + i, n - i, s);
}

void fir_avx2(const Complex* h, std::size_t taps, const Complex* ext, Complex* y,
              std::size_t n, std::size_t stride) {
  if (stride == 1)
    fir_rows_avx2<true>(h, taps, ext, y, n, 1);
  else
    fir_rows_avx2<false>(h, taps, ext, y, n, stride);
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

// cmul4f's arithmetic with h's real and imaginary parts already broadcast.
inline __m256 cmul4f_split(__m256 x, __m256 hr, __m256 hi) {
  return _mm256_addsub_ps(_mm256_mul_ps(x, hr), _mm256_mul_ps(_mm256_permute_ps(x, 0xB1), hi));
}

// fir_rows_avx2 at float, stride 1: 16 outputs per chunk (four accumulators
// of four), then 4 per chunk, then the scalar tail.
void fir_avx2_32(const Complex32* h, std::size_t taps, const Complex32* ext, Complex32* y,
                 std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const Complex32* newest = ext + (taps - 1) + i;
    __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
    for (std::size_t k = 0; k < taps; ++k) {
      const float* hk = reinterpret_cast<const float*>(h + k);
      const __m256 hr = _mm256_broadcast_ss(hk), hi = _mm256_broadcast_ss(hk + 1);
      const Complex32* x = newest - k;
      a0 = _mm256_add_ps(a0, cmul4f_split(load4f(x), hr, hi));
      a1 = _mm256_add_ps(a1, cmul4f_split(load4f(x + 4), hr, hi));
      a2 = _mm256_add_ps(a2, cmul4f_split(load4f(x + 8), hr, hi));
      a3 = _mm256_add_ps(a3, cmul4f_split(load4f(x + 12), hr, hi));
    }
    store4f(y + i, a0);
    store4f(y + i + 4, a1);
    store4f(y + i + 8, a2);
    store4f(y + i + 12, a3);
  }
  for (; i + 4 <= n; i += 4) {
    const Complex32* newest = ext + (taps - 1) + i;
    __m256 a = _mm256_setzero_ps();
    for (std::size_t k = 0; k < taps; ++k) {
      const float* hk = reinterpret_cast<const float*>(h + k);
      a = _mm256_add_ps(a, cmul4f_split(load4f(newest - k), _mm256_broadcast_ss(hk),
                                        _mm256_broadcast_ss(hk + 1)));
    }
    store4f(y + i, a);
  }
  Scalar<float>::fir(h, taps, ext + i, y + i, n - i, 1);
}

// ------------------------------------------------------------ ziggurat
// Four engine words per step, one per 64-bit lane. The tempering is
// Mt19937_64::temper's shifts, masks and xors, written out here because
// rng.hpp's inline code must not reach this -mavx2 TU. AVX2 has no
// u64 -> double conversion, so
// u = (w >> 11) * 2^-52 - 1 is formed from bits: the low 52 bits m of
// w >> 11 ORed into 1.0's exponent give d = 1 + m * 2^-52, and u is d - 1
// when bit 63 of w (the top bit of w >> 11) is set and d - 2 when it is
// clear. Both subtractions are exact, as is the scalar conversion, scale
// and subtraction, so u matches the scalar template bit for bit; z is one
// IEEE multiply and the test one compare, as there.

inline __m256i masked(__m256i v, std::uint64_t mask) {
  return _mm256_and_si256(v, _mm256_set1_epi64x(static_cast<long long>(mask)));
}

inline __m256i temper4(__m256i z) {
  z = _mm256_xor_si256(z, masked(_mm256_srli_epi64(z, 29), 0x5555555555555555ULL));
  z = _mm256_xor_si256(z, masked(_mm256_slli_epi64(z, 17), 0x71D67FFFEDA60000ULL));
  z = _mm256_xor_si256(z, masked(_mm256_slli_epi64(z, 37), 0xFFF7EEE000000000ULL));
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 43));
}

std::size_t ziggurat_accept_avx2(const std::uint64_t* words, std::size_t n, const double* x,
                                 double* out) {
  const __m256i one = _mm256_castpd_si256(_mm256_set1_pd(1.0));
  const __m256d magnitude = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256i w =
        temper4(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + k)));
    const __m256i i = masked(w, 0xFF);
    const __m256d d = _mm256_castsi256_pd(
        _mm256_or_si256(masked(_mm256_srli_epi64(w, 11), 0x000FFFFFFFFFFFFFULL), one));
    // blendv picks by each lane's sign bit, which is bit 63 of w.
    const __m256d lead = _mm256_blendv_pd(_mm256_set1_pd(2.0), _mm256_set1_pd(1.0),
                                          _mm256_castsi256_pd(w));
    const __m256d u = _mm256_sub_pd(d, lead);
    const __m256d z = _mm256_mul_pd(u, _mm256_i64gather_pd(x, i, 8));
    const __m256d bound = _mm256_i64gather_pd(x + 1, i, 8);
    const int inside =
        _mm256_movemask_pd(_mm256_cmp_pd(_mm256_and_pd(z, magnitude), bound, _CMP_LT_OQ));
    if (inside == 0xF) {
      _mm256_storeu_pd(out + k, z);
      continue;
    }
    // Keep the lanes before the first rejected one.
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, z);
    const int accepted = __builtin_ctz(~inside);
    for (int j = 0; j < accepted; ++j) out[k + j] = lanes[j];
    return k + static_cast<std::size_t>(accepted);
  }
  return k + Scalar<double>::ziggurat_accept(words + k, n - k, x, out + k);
}

}  // namespace

const KernelOps& avx2_ops() {
  static const KernelOps ops = {
      .cmul = &cmul_avx2,
      .fir = &fir_avx2,
      .radix2_stage = &radix2_stage_avx2,
      .radix4_stage = &radix4_stage_avx2,
      .cmul32 = &cmul_avx2_32,
      .fir32 = &fir_avx2_32,
      .ziggurat_accept = &ziggurat_accept_avx2,
  };
  return ops;
}

}  // namespace ff::dsp::kernels::detail

#endif  // FF_SIMD_ENABLED && x86-64
