// The kernel layer's three contracts (src/dsp/kernels/kernels.hpp):
//
//  1. Bitwise arithmetic: the dispatched kernels (whatever ISA resolved on
//     this machine) produce byte-identical output to the scalar reference,
//     on aligned, unaligned and odd-tail spans, on every f64 FFT stage
//     shape and on every FIR tap count and stride the repository runs; the
//     ops without an AVX2 body, and fir, produce byte-identical output to
//     the formula kernels.hpp documents, written out here.
//  2. Numerical accuracy of the mixed-radix Stockham FFT against the seed
//     radix-2 reference (a tight ulp-scale bound; the two associate
//     differently, so bitwise equality is not expected — this is the one
//     sanctioned checksum change, docs/PERFORMANCE.md).
//  3. Zero steady-state heap allocation in the streaming hot paths
//     (ForwardPipeline::process_into, CancellerElement::cancel_into,
//     ChannelElement's block path, moving a block through a channel, and
//     the sink keeping it without a copy), in recording telemetry (a
//     stream's per-block metrics, a timer's observations) and in the relay
//     design's inner loops (a Nelder-Mead iteration, a CNF objective
//     evaluation), asserted with a global operator-new hook.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <new>
#include <ranges>
#include <span>
#include <type_traits>
#include <vector>

#include "channel/multipath.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/kernels/kernels.hpp"
#include "dsp/kernels/workspace.hpp"
#include "linalg/matrix.hpp"
#include "opt/optimizers.hpp"
#include "relay/cnf_design.hpp"
#include "relay/pipeline.hpp"
#include "stream/elements.hpp"
#include "stream/graph.hpp"
#include "stream/scheduler.hpp"

// ------------------------------------------------------- operator-new hook
// Every global allocation in this binary routes through alloc_count (and
// its size through alloc_bytes) so the zero-allocation tests can assert
// "no heap traffic between these lines". All eight new variants and their
// deletes are replaced consistently (malloc/posix_memalign + free), which
// keeps the sanitizer builds honest.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (n == 0) n = 1;
  if (align > alignof(std::max_align_t)) {
    void* p = nullptr;
    if (posix_memalign(&p, align, n) != 0) return nullptr;
    return p;
  }
  return std::malloc(n);
}

std::uint64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }
std::uint64_t alloc_bytes() { return g_alloc_bytes.load(std::memory_order_relaxed); }
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n, 0)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n, 0)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_alloc(n, static_cast<std::size_t>(al))) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = counted_alloc(n, static_cast<std::size_t>(al))) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new(std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(al));
}

// noinline keeps GCC 12 from inlining free() into gtest (false -Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ff {
namespace {

namespace k = dsp::kernels;

// Sizes chosen to exercise every SIMD code path: below one vector, exactly
// one/two vectors, odd tails after the 2- and 4-wide loops, and large.
const std::size_t kSizes[] = {1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 64, 129, 1000};

template <typename T>
using Vec = k::AlignedVec<std::complex<T>>;
template <typename T>
using Span = std::span<const std::complex<T>>;

template <typename T>
Vec<T> random_vec(Rng& rng, std::size_t n) {
  Vec<T> v(n);
  for (auto& x : v) {
    const Complex d = rng.cgaussian();
    x = {static_cast<T>(d.real()), static_cast<T>(d.imag())};
  }
  return v;
}

// Byte equality of two sample ranges (spans or vectors) of one type.
template <typename A, typename B>
bool bitwise_equal(const A& a, const B& b) {
  static_assert(std::is_same_v<std::ranges::range_value_t<A>, std::ranges::range_value_t<B>>);
  return std::size(a) == std::size(b) &&
         std::memcmp(std::data(a), std::data(b), std::size(a) * sizeof(*std::data(a))) == 0;
}

// Run `check` over aligned views and deliberately misaligned (data()+1)
// views of freshly drawn inputs, for every size in kSizes.
template <typename T, typename Fn>
void for_each_shape(Fn&& check) {
  Rng rng(std::is_same_v<T, double> ? 20140817 : 20140818);
  for (const std::size_t n : kSizes) {
    Vec<T> a = random_vec<T>(rng, n + 1);
    Vec<T> b = random_vec<T>(rng, n + 1);
    check(Span<T>{a.data(), n}, Span<T>{b.data(), n}, n);          // aligned
    check(Span<T>{a.data() + 1, n}, Span<T>{b.data() + 1, n}, n);  // unaligned
  }
}

// The KernelsBitwise suite runs these checks at double and KernelsBitwiseF32
// at float. An op with an AVX2 body compares the dispatched call with its
// scalar:: reference; an op without one compares it with the documented
// formula, so the test pins the contract rather than whichever body
// implements it. f32 and f64 are separate checksum families, so nothing
// here compares one precision with the other (accuracy of the f32 family is
// covered by the StreamF32 tests).

template <typename T>
void check_cmul() {
  for_each_shape<T>([](Span<T> a, Span<T> b, std::size_t n) {
    Vec<T> got(n), want(n);
    k::cmul(a, b, got);
    k::scalar::cmul(a, b, want);
    EXPECT_TRUE(bitwise_equal(got, want)) << "n=" << n;
  });
}

// y[i] += alpha * x[i]: re = yr + (xr*ar - xi*ai), im = yi + (xr*ai + xi*ar).
template <typename T>
void check_axpy() {
  const std::complex<T> alpha{static_cast<T>(0.7), static_cast<T>(-1.3)};
  for_each_shape<T>([&](Span<T> a, Span<T>, std::size_t n) {
    Rng rng(n);
    Vec<T> got = random_vec<T>(rng, n);
    Vec<T> want = got;
    k::axpy(alpha, a, got);
    const T ar = alpha.real(), ai = alpha.imag();
    for (std::size_t i = 0; i < n; ++i) {
      const T xr = a[i].real(), xi = a[i].imag();
      want[i] = {want[i].real() + (xr * ar - xi * ai), want[i].imag() + (xr * ai + xi * ar)};
    }
    EXPECT_TRUE(bitwise_equal(got, want)) << "n=" << n;
  });
}

// The per-tap axpy sweep fir must equal bit for bit: y filled with +0, then
// one axpy sweep per tap, taps ascending.
template <typename T>
void fir_by_axpy(Span<T> h, const std::complex<T>* ext, std::span<std::complex<T>> y,
                 std::size_t stride) {
  std::fill(y.begin(), y.end(), std::complex<T>{});
  for (std::size_t k = 0; k < h.size(); ++k) {
    const T hr = h[k].real(), hi = h[k].imag();
    for (std::size_t i = 0; i < y.size(); ++i) {
      const std::complex<T> x = ext[(h.size() - 1) + i * stride - k];
      const T xr = x.real(), xi = x.imag();
      y[i] = {y[i].real() + (xr * hr - xi * hi), y[i].imag() + (xr * hi + xi * hr)};
    }
  }
}

// Dispatched and scalar fir at either width; the f32 op is stride 1 only.
template <typename T>
void run_fir(Span<T> h, const std::complex<T>* ext, std::span<std::complex<T>> got,
             std::span<std::complex<T>> ref, std::size_t stride) {
  if constexpr (std::is_same_v<T, double>) {
    k::fir(h, ext, got, stride);
    k::scalar::fir(h, ext, ref, stride);
  } else {
    k::fir(h, ext, got);
    k::scalar::fir(h, ext, ref);
  }
}

// Every tap count a FIR in the repository comes near (the one-tap txgain,
// short prefilters, the 49- and 61-tap channels), every output length in
// kSizes, aligned and data()+1 inputs. The taps' first quarter are exact
// zeros, and the input carries a run of exact +-0 samples long enough to
// fill whole windows.
template <typename T>
void check_fir(std::initializer_list<std::size_t> strides) {
  const std::size_t tap_counts[] = {1, 2, 3, 4, 9, 49, 61};
  const T zero = 0, neg_zero = -zero;
  Rng rng(std::is_same_v<T, double> ? 20140820 : 20140821);
  for (const std::size_t taps : tap_counts) {
    Vec<T> h = random_vec<T>(rng, taps);
    for (std::size_t k = 0; k < taps / 4; ++k) h[k] = {};
    for (const std::size_t stride : strides) {
      for (const std::size_t n : kSizes) {
        const std::size_t read = taps + (n - 1) * stride;
        Vec<T> ext = random_vec<T>(rng, read + 1);
        for (std::size_t j = read / 3; j < std::min(read, read / 3 + taps + 3 * stride); ++j)
          ext[j] = {j % 2 ? neg_zero : zero, j % 3 ? neg_zero : zero};
        for (const std::size_t offset : {0, 1}) {
          Vec<T> got(n), ref(n), want(n);
          run_fir<T>(h, ext.data() + offset, got, ref, stride);
          fir_by_axpy<T>(h, ext.data() + offset, want, stride);
          EXPECT_TRUE(bitwise_equal(got, ref))
              << "taps=" << taps << " stride=" << stride << " n=" << n << " offset=" << offset;
          EXPECT_TRUE(bitwise_equal(got, want) && bitwise_equal(ref, want))
              << "taps=" << taps << " stride=" << stride << " n=" << n << " offset=" << offset;
        }
      }
    }
  }
  // One tap with positive parts over (-0, -0) samples. Summing from +0
  // gives (+0, +0); seeding the sum with the first product would give
  // (+0, -0).
  const Vec<T> h(1, {static_cast<T>(0.5), static_cast<T>(0.25)});
  for (const std::size_t n : kSizes) {
    const Vec<T> ext(n, {neg_zero, neg_zero});
    Vec<T> got(n), ref(n), want(n);
    run_fir<T>(h, ext.data(), got, ref, 1);
    fir_by_axpy<T>(h, ext.data(), want, 1);
    EXPECT_FALSE(std::signbit(want[0].imag()));
    EXPECT_TRUE(bitwise_equal(got, want) && bitwise_equal(ref, want)) << "n=" << n;
  }
}

void check_scale_real() {
  const double alpha = 1.0 / 64.0;
  for_each_shape<double>([&](CSpan a, CSpan, std::size_t n) {
    Vec<double> got(n), want(n);
    k::scale_real(alpha, a, got);
    for (std::size_t i = 0; i < n; ++i) want[i] = {a[i].real() * alpha, a[i].imag() * alpha};
    EXPECT_TRUE(bitwise_equal(got, want)) << "n=" << n;
  });
}

template <typename T>
void check_rotate_phasor() {
  for_each_shape<T>([](Span<T> a, Span<T> b, std::size_t n) {
    Vec<T> got(n), want(n);
    k::rotate_phasor(a, b, got);
    k::scalar::rotate_phasor(a, b, want);
    EXPECT_TRUE(bitwise_equal(got, want)) << "n=" << n;
  });
}

// The reductions' association: term k goes into partial sum k mod 4, and
// the result is (p0 + p1) + (p2 + p3). Receiver sync, PN detection and
// canceller training all read these exact bits.
void check_cdot_conj() {
  for_each_shape<double>([](CSpan a, CSpan b, std::size_t n) {
    const Complex got = k::cdot_conj(a, b);
    double re[4] = {}, im[4] = {};
    for (std::size_t i = 0; i < n; ++i) {
      const double ar = a[i].real(), ai = a[i].imag();
      const double br = b[i].real(), bi = b[i].imag();
      re[i % 4] += ar * br + ai * bi;  // conj(a) * b
      im[i % 4] += ar * bi - ai * br;
    }
    const Complex want{(re[0] + re[1]) + (re[2] + re[3]), (im[0] + im[1]) + (im[2] + im[3])};
    EXPECT_TRUE(std::memcmp(&got, &want, sizeof got) == 0) << "n=" << n;
  });
}

void check_magsq_accum() {
  for_each_shape<double>([](CSpan a, CSpan, std::size_t n) {
    const double got = k::magsq_accum(a);
    double p[4] = {};
    for (std::size_t i = 0; i < n; ++i) {
      const double re = a[i].real(), im = a[i].imag();
      p[i % 4] += re * re + im * im;
    }
    const double want = (p[0] + p[1]) + (p[2] + p[3]);
    EXPECT_TRUE(std::memcmp(&got, &want, sizeof got) == 0) << "n=" << n;
  });
}

// The FFT stage kernels, on every (butterflies, m) shape the Stockham
// schedule (dsp::FftPlan) builds for n = 2..4096, forward and inverse (the
// inverse runs over the conjugated twiddle table, as the plan does). That
// covers the first stage (m == 1), which the AVX2 bodies hand whole to the
// scalar core, and n = 4 and 8, whose stages do not fill a register. One
// odd-m shape no power-of-two size produces rides along.
void check_radix_stage(std::size_t radix) {
  struct Shape {
    std::size_t butterflies, m;
  };
  std::vector<Shape> shapes;
  for (std::size_t n = 2; n <= 4096; n *= 2) {
    std::size_t len = n, m = 1;
    while (len > 1) {
      const std::size_t r = (len % 4 == 0) ? 4 : 2;
      if (r == radix) shapes.push_back({len / r, m});
      m *= r;
      len /= r;
    }
  }
  shapes.push_back({3, 5});
  Rng rng(20140819);
  for (const Shape& s : shapes) {
    const std::size_t n = radix * s.butterflies * s.m;
    const Vec<double> src = random_vec<double>(rng, n);
    const Vec<double> tw = random_vec<double>(rng, (radix == 4 ? 3 : 1) * s.butterflies);
    Vec<double> tw_inv(tw.size());
    for (std::size_t i = 0; i < tw.size(); ++i) tw_inv[i] = std::conj(tw[i]);
    for (const bool invert : {false, true}) {
      const Complex* w = invert ? tw_inv.data() : tw.data();
      Vec<double> got(n), want(n);
      if (radix == 4) {
        k::radix4_stage(src.data(), got.data(), w, s.butterflies, s.m, invert);
        k::scalar::radix4_stage(src.data(), want.data(), w, s.butterflies, s.m, invert);
      } else {
        k::radix2_stage(src.data(), got.data(), w, s.butterflies, s.m);
        k::scalar::radix2_stage(src.data(), want.data(), w, s.butterflies, s.m);
      }
      EXPECT_TRUE(bitwise_equal(got, want))
          << "butterflies=" << s.butterflies << " m=" << s.m << " invert=" << invert;
    }
  }
}

// ziggurat_accept over engine words sorted, one at a time by the scalar
// template, into those the fast path accepts and those it rejects. For
// every run length up to 23, the first rejected word sits at every
// position (each lane of a four-word step, and inside the odd tail after
// the last step) and nowhere; a later rejection changes nothing. Both
// bodies must return the same count and write the same prefix, and nothing
// past it. Then a long run of raw engine words, walked as
// dsp::add_cgaussian_zig walks them: past each rejected word.
void check_ziggurat_accept() {
  constexpr double kUntouched = 1e300;  // no normal is this large
  const auto& x = Ziggurat::tables().layers();
  Mt19937_64 engine(20140817);
  std::vector<std::uint64_t> accepted, rejected;
  while (accepted.size() < 64 || rejected.size() < 64) {
    const std::uint64_t w = engine();
    double z;
    auto& pool = k::scalar::ziggurat_accept({&w, 1}, x, {&z, 1}) == 1 ? accepted : rejected;
    if (pool.size() < 64) pool.push_back(w);
  }
  for (std::size_t n = 1; n <= 23; ++n) {
    for (std::size_t first = 0; first <= n; ++first) {
      std::vector<std::uint64_t> words(n);
      for (std::size_t j = 0; j < n; ++j) words[j] = accepted[(j + 3 * n) % accepted.size()];
      if (first < n) words[first] = rejected[first];
      if (first + 2 < n) words[n - 1] = rejected[n];
      std::vector<double> got(n, kUntouched), want(n, kUntouched);
      EXPECT_EQ(k::ziggurat_accept(words, x, got), first) << "n=" << n;
      EXPECT_EQ(k::scalar::ziggurat_accept(words, x, want), first) << "n=" << n;
      EXPECT_TRUE(bitwise_equal(got, want)) << "n=" << n << " first rejection " << first;
      for (std::size_t j = first; j < n; ++j)
        EXPECT_EQ(want[j], kUntouched) << "n=" << n << " wrote past the prefix at " << j;
    }
  }

  std::vector<std::uint64_t> words(100'000);
  for (auto& w : words) w = engine();
  std::vector<double> got(words.size(), kUntouched), want(words.size(), kUntouched);
  std::size_t runs = 0;
  for (std::size_t at = 0; at < words.size(); ++runs) {
    const std::span<const std::uint64_t> rest(words.data() + at, words.size() - at);
    const std::size_t n = k::ziggurat_accept(rest, x, std::span(got).subspan(at));
    ASSERT_EQ(n, k::scalar::ziggurat_accept(rest, x, std::span(want).subspan(at)))
        << "run from word " << at;
    at += n + 1;
  }
  EXPECT_TRUE(bitwise_equal(got, want));
  EXPECT_GT(runs, 500u);  // about 1.2% of words are rejected
}

TEST(KernelsBitwise, CmulMatchesScalar) { check_cmul<double>(); }
TEST(KernelsBitwise, AxpyMatchesScalar) { check_axpy<double>(); }
TEST(KernelsBitwise, FirMatchesScalar) { check_fir<double>({1, 2, 3, 4, 5}); }
TEST(KernelsBitwise, ScaleRealMatchesScalar) { check_scale_real(); }
TEST(KernelsBitwise, RotatePhasorMatchesScalar) { check_rotate_phasor<double>(); }
TEST(KernelsBitwise, CdotConjMatchesScalar) { check_cdot_conj(); }
TEST(KernelsBitwise, MagsqAccumMatchesScalar) { check_magsq_accum(); }
TEST(KernelsBitwise, Radix2StageMatchesScalar) { check_radix_stage(2); }
TEST(KernelsBitwise, Radix4StageMatchesScalar) { check_radix_stage(4); }
TEST(KernelsBitwise, ZigguratAcceptMatchesScalar) { check_ziggurat_accept(); }

TEST(KernelsBitwiseF32, CmulMatchesScalar) { check_cmul<float>(); }
TEST(KernelsBitwiseF32, AxpyMatchesScalar) { check_axpy<float>(); }
TEST(KernelsBitwiseF32, FirMatchesScalar) { check_fir<float>({1}); }
TEST(KernelsBitwiseF32, RotatePhasorMatchesScalar) { check_rotate_phasor<float>(); }

// Convert-at-the-edges exactness: widen is exact (every float is a double),
// and narrow of a widened f32 vector restores the original bit pattern. This
// is what lets the f32 stream path convert once on entry and once on exit
// without perturbing values the pipeline never touched.
TEST(KernelsF32, WidenNarrowRoundTripIsExact) {
  Rng rng(42);
  for (const std::size_t n : kSizes) {
    k::AlignedCVec32 x = random_vec<float>(rng, n);
    k::AlignedCVec wide(n);
    k::widen(CSpan32{x.data(), n}, wide);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(wide[i].real(), static_cast<double>(x[i].real()));
      EXPECT_EQ(wide[i].imag(), static_cast<double>(x[i].imag()));
    }
    k::AlignedCVec32 back(n);
    k::narrow(wide, back);
    EXPECT_TRUE(bitwise_equal(back, CSpan32{x.data(), n})) << "n=" << n;
    // The allocating convenience agrees with the span form.
    const CVec32 back2 = k::narrowed(wide);
    EXPECT_TRUE(bitwise_equal(back, back2)) << "n=" << n;
  }
}

// fir's three checks, one test each: an empty tap span (taps - 1 would wrap
// to SIZE_MAX), a zero stride, and an output that overlaps the input
// samples it reads.
TEST(KernelsFir, RejectsEmptyTaps) {
  k::AlignedCVec ext(8), y(4);
  k::AlignedCVec32 ext32(8), y32(4);
  EXPECT_THROW(k::fir(CSpan{}, ext.data(), y), std::logic_error);
  EXPECT_THROW(k::fir(CSpan32{}, ext32.data(), y32), std::logic_error);
  EXPECT_THROW(dsp::fir_core(CSpan{}, ext.data(), CMutSpan{y.data(), y.size()}),
               std::logic_error);
}

TEST(KernelsFir, RejectsZeroStride) {
  const k::AlignedCVec h(3, Complex{1.0, 0.0});
  k::AlignedCVec ext(8), y(4);
  EXPECT_THROW(k::fir(h, ext.data(), y, 0), std::logic_error);
  EXPECT_THROW(k::scalar::fir(h, ext.data(), y, 0), std::logic_error);
}

TEST(KernelsFir, RejectsOutputOverlappingItsInput) {
  const k::AlignedCVec h(3, Complex{1.0, 0.0});
  k::AlignedCVec buf(64);
  // 4 outputs at stride 3 read ext[0 .. 2 + 3*3], 12 samples.
  EXPECT_THROW(k::fir(h, buf.data(), CMutSpan{buf.data() + 11, 4}, 3), std::logic_error);
  EXPECT_THROW(k::fir(h, buf.data() + 3, CMutSpan{buf.data(), 4}, 3), std::logic_error);
  EXPECT_THROW(k::fir(h, buf.data(), CMutSpan{buf.data(), 4}, 3), std::logic_error);
  EXPECT_NO_THROW(k::fir(h, buf.data(), CMutSpan{buf.data() + 12, 4}, 3));
  EXPECT_NO_THROW(k::fir(h, buf.data() + 4, CMutSpan{buf.data(), 4}, 3));
  const k::AlignedCVec32 h32(3, Complex32{1.0f, 0.0f});
  k::AlignedCVec32 buf32(64);
  EXPECT_THROW(k::fir(h32, buf32.data(), CMutSpan32{buf32.data() + 5, 4}), std::logic_error);
  EXPECT_NO_THROW(k::fir(h32, buf32.data(), CMutSpan32{buf32.data() + 6, 4}));
}

// ziggurat_accept's two checks: the whole 257-entry layer table (the AVX2
// body gathers x[i + 1] up to index 256), and an output per word.
TEST(KernelsZiggurat, RejectsAShortTableOrOutput) {
  const auto& x = Ziggurat::tables().layers();
  const std::vector<std::uint64_t> words(8, 0);
  std::vector<double> out(8);
  EXPECT_THROW(k::ziggurat_accept(words, RSpan(x).first(256), out), std::logic_error);
  EXPECT_THROW(k::ziggurat_accept(words, x, std::span(out).first(7)), std::logic_error);
  EXPECT_THROW(k::scalar::ziggurat_accept(words, x, std::span(out).first(7)), std::logic_error);
}

TEST(Kernels, IsaReportingIsConsistent) {
  const k::Isa isa = k::active_isa();
  EXPECT_STREQ(k::isa_name(), k::isa_name(isa));
  if (!k::simd_compiled()) {
    EXPECT_EQ(isa, k::Isa::kScalar);
  }
  // The name is one of the documented tokens bench JSON carries.
  const std::string name = k::isa_name();
  EXPECT_TRUE(name == "scalar" || name == "avx2") << name;
}

// -------------------------------------------------- mixed-radix FFT accuracy

TEST(FftMixedRadix, MatchesRadix2WithinUlpBound) {
  Rng rng(7);
  for (std::size_t n = 8; n <= 4096; n *= 2) {
    const dsp::FftPlan plan(n);
    CVec a(n);
    for (auto& v : a) v = rng.cgaussian();
    CVec b = a;
    plan.forward(a);         // Stockham mixed-radix (radix-4 dominant)
    plan.forward_radix2(b);  // the seed's iterative radix-2 reference
    // The two associate butterflies differently, so allow an error on the
    // ulp scale of the output magnitude: eps * ||X||_inf * log2(n) stages,
    // with a x16 cushion. Empirically the observed error is ~10x smaller.
    double scale = 0.0;
    for (const Complex& v : b)
      scale = std::max({scale, std::abs(v.real()), std::abs(v.imag())});
    const double stages = std::log2(static_cast<double>(n));
    const double tol =
        16.0 * std::numeric_limits<double>::epsilon() * scale * stages;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(a[i].real(), b[i].real(), tol) << "n=" << n << " i=" << i;
      EXPECT_NEAR(a[i].imag(), b[i].imag(), tol) << "n=" << n << " i=" << i;
    }
  }
}

TEST(FftMixedRadix, InverseRoundTrip) {
  Rng rng(8);
  for (std::size_t n = 8; n <= 1024; n *= 4) {
    const dsp::FftPlan plan(n);
    CVec x(n);
    for (auto& v : x) v = rng.cgaussian();
    CVec y = x;
    plan.forward(y);
    plan.inverse(y);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(y[i].real(), x[i].real(), 1e-12) << "n=" << n;
      EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-12) << "n=" << n;
    }
  }
}

// The batched transform is bit-identical to one forward() or inverse() per
// block, at an odd (64: 4·4·4) and an even (128: 2·4·4·4) stage count. The
// inverse is the OFDM modulator's path. Overlapping buffers are refused.
TEST(FftMixedRadix, ExecuteManyMatchesSingleTransforms) {
  Rng rng(9);
  const std::size_t count = 5;
  for (const std::size_t n : {64, 128}) {
    const dsp::FftPlan plan(n);
    k::AlignedCVec in(n * count), out(n * count);
    for (auto& v : in) v = rng.cgaussian();
    for (const bool invert : {false, true}) {
      plan.execute_many(in, out, count, invert);
      for (std::size_t c = 0; c < count; ++c) {
        CVec one(in.begin() + static_cast<std::ptrdiff_t>(c * n),
                 in.begin() + static_cast<std::ptrdiff_t>((c + 1) * n));
        if (invert)
          plan.inverse(one);
        else
          plan.forward(one);
        EXPECT_TRUE(bitwise_equal(CSpan{out.data() + c * n, n}, one))
            << "n=" << n << " invert=" << invert << " block " << c;
      }
    }
    EXPECT_THROW(plan.execute_many(in, in, count), std::logic_error) << "n=" << n;
    k::AlignedCVec both(n * (count + 1));
    EXPECT_THROW(plan.execute_many(CSpan{both.data(), n * count},
                                   CMutSpan{both.data() + n / 2, n * count}, count),
                 std::logic_error)
        << "n=" << n;
  }
}

// ----------------------------------------------------- zero-allocation hold

TEST(ZeroAllocation, HookIsLive) {
  const std::uint64_t before = alloc_count();
  CVec v(256);
  EXPECT_NE(v.data(), nullptr);
  EXPECT_GT(alloc_count(), before);
}

TEST(ZeroAllocation, ForwardPipelineSteadyState) {
  relay::PipelineConfig cfg;
  cfg.cfo_hz = 30e3;
  cfg.prefilter = CVec(12, Complex{0.25, 0.05});
  cfg.tx_filter = dsp::design_lowpass(9, 0.25);
  cfg.adc_dac_delay_samples = 4;
  cfg.gain_db = 40.0;
  relay::ForwardPipeline pipe(cfg);
  Rng rng(10);
  CVec x(512), out(512);
  for (auto& v : x) v = rng.cgaussian();
  // Warmup grows the pipeline's Workspace to this block size.
  for (int i = 0; i < 3; ++i) pipe.process_into(x, out);
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 32; ++i) pipe.process_into(x, out);
  EXPECT_EQ(alloc_count(), before)
      << "ForwardPipeline::process_into allocated in steady state";
}

TEST(ZeroAllocation, CancellerElementSteadyState) {
  Rng rng(11);
  CVec analog(24), digital(120);
  for (auto& t : analog) t = rng.cgaussian(1e-4);
  for (auto& t : digital) t = rng.cgaussian(1e-6);
  stream::CancellerElement canc("c", analog, digital);
  CVec rx(512), tx(512);
  for (auto& v : rx) v = rng.cgaussian();
  for (auto& v : tx) v = rng.cgaussian();
  for (int i = 0; i < 3; ++i)
    canc.cancel_into(CMutSpan{rx.data(), rx.size()}, CSpan{tx.data(), tx.size()});
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 32; ++i)
    canc.cancel_into(CMutSpan{rx.data(), rx.size()}, CSpan{tx.data(), tx.size()});
  EXPECT_EQ(alloc_count(), before)
      << "CancellerElement::cancel_into allocated in steady state";
}

// The f32 path has its own Workspace slots and FIR scratch; prove the fast
// path is as allocation-free in steady state as the reference path.
TEST(ZeroAllocation, ForwardPipelineF32SteadyState) {
  relay::PipelineConfig cfg;
  cfg.cfo_hz = 30e3;
  cfg.prefilter = CVec(12, Complex{0.25, 0.05});
  cfg.tx_filter = dsp::design_lowpass(9, 0.25);
  cfg.adc_dac_delay_samples = 4;
  cfg.gain_db = 40.0;
  cfg.precision = Precision::kF32;
  relay::ForwardPipeline pipe(cfg);
  Rng rng(15);
  CVec x(512), out(512);
  for (auto& v : x) v = rng.cgaussian();
  for (int i = 0; i < 3; ++i) pipe.process_into(x, out);
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 32; ++i) pipe.process_into(x, out);
  EXPECT_EQ(alloc_count(), before)
      << "ForwardPipeline f32 process_into allocated in steady state";
}

TEST(ZeroAllocation, CancellerElementF32SteadyState) {
  Rng rng(16);
  CVec analog(24), digital(120);
  for (auto& t : analog) t = rng.cgaussian(1e-4);
  for (auto& t : digital) t = rng.cgaussian(1e-6);
  stream::CancellerElement canc("c", analog, digital);
  stream::Params p;
  p.set("analog", stream::format_cvec(analog));
  p.set("digital", stream::format_cvec(digital));
  p.set("precision", "f32");
  canc.configure(p);
  CVec rx(512), tx(512);
  for (auto& v : rx) v = rng.cgaussian();
  for (auto& v : tx) v = rng.cgaussian();
  for (int i = 0; i < 3; ++i)
    canc.cancel_into(CMutSpan{rx.data(), rx.size()}, CSpan{tx.data(), tx.size()});
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 32; ++i)
    canc.cancel_into(CMutSpan{rx.data(), rx.size()}, CSpan{tx.data(), tx.size()});
  EXPECT_EQ(alloc_count(), before)
      << "CancellerElement f32 cancel_into allocated in steady state";
}

// A static two-path channel with noise on: the FIR and the noise draw, in
// 512-sample blocks. process() is protected; the stream runs it per block.
class ChannelUnderTest : public stream::ChannelElement {
 public:
  using stream::ChannelElement::ChannelElement;
  using stream::ChannelElement::process;
};

void expect_channel_allocation_free(Precision precision) {
  stream::ChannelElementConfig cfg;
  cfg.channel = channel::MultipathChannel(
      {{0.0, Complex{0.8, 0.1}}, {150e-9, Complex{-0.2, 0.3}}}, 2.45e9);
  cfg.sample_rate_hz = 80e6;
  cfg.noise_power = 1e-3;
  cfg.precision = precision;
  ChannelUnderTest chan("chan", cfg);
  Rng rng(17);
  CVec x(512);
  for (auto& v : x) v = rng.cgaussian();
  stream::Block block{x};
  const auto run_block = [&] {
    std::copy(x.begin(), x.end(), block.samples.begin());
    chan.process(block);
  };
  for (int i = 0; i < 3; ++i) run_block();
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 32; ++i) run_block();
  EXPECT_EQ(alloc_count(), before) << "ChannelElement::process allocated in steady state";
}

TEST(ZeroAllocation, ChannelElementSteadyState) {
  expect_channel_allocation_free(Precision::kF64);
}

TEST(ZeroAllocation, ChannelElementF32SteadyState) {
  expect_channel_allocation_free(Precision::kF32);
}

/// Heap allocations made while building and running VectorSource -> Fir ->
/// Cfo -> NullSink over `blocks` 256-sample blocks under the serial
/// reference scheduler, recording into `metrics` (nullptr = metrics off).
std::uint64_t allocs_for_stream_run(std::size_t blocks, MetricsRegistry* metrics) {
  constexpr std::size_t kBlock = 256;
  Rng rng(18);
  CVec data(blocks * kBlock);
  for (auto& v : data) v = rng.cgaussian();
  const CVec taps = dsp::design_lowpass(9, 0.25);
  const std::uint64_t before = alloc_count();
  {
    stream::Graph g;
    auto* src = g.emplace<stream::VectorSource>("src", std::move(data), kBlock);
    auto* fir = g.emplace<stream::FirElement>("fir", taps);
    auto* cfo = g.emplace<stream::CfoElement>("cfo", 30e3, 20e6);
    auto* sink = g.emplace<stream::NullSink>("sink");
    g.connect(*src, 0, *fir, 0);
    g.connect(*fir, 0, *cfo, 0);
    g.connect(*cfo, 0, *sink, 0);
    stream::SchedulerConfig cfg;
    cfg.threads = 1;
    cfg.metrics = metrics;
    stream::Scheduler(g, cfg).run();
  }
  return alloc_count() - before;
}

TEST(ZeroAllocation, MetricsAddNoAllocationsPerBlock) {
  // Every per-block metric name here (stream.src.block_us, ...) is longer
  // than the 15-character small-string buffer, so building a std::string
  // key per call would allocate. Differencing N and 2N blocks cancels the
  // one-time costs (graph set-up, metric names, end-of-run gauges); the
  // per-block cost with a warmed registry must equal the cost without one.
  constexpr std::size_t kN = 64;
  const std::uint64_t off_n = allocs_for_stream_run(kN, nullptr);
  const std::uint64_t off_2n = allocs_for_stream_run(2 * kN, nullptr);
  MetricsRegistry reg;
  (void)allocs_for_stream_run(kN, &reg);  // warm: first sight of every name
  const std::uint64_t on_n = allocs_for_stream_run(kN, &reg);
  const std::uint64_t on_2n = allocs_for_stream_run(2 * kN, &reg);
  EXPECT_EQ(on_2n - on_n, off_2n - off_n)
      << "recording metrics allocated per block: " << on_2n - on_n << " vs "
      << off_2n - off_n << " allocations over " << kN << " blocks";
  // The registry really recorded: four timed elements over N + N + 2N blocks.
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.timers.size(), 4u);
  for (const auto& t : snap.timers) EXPECT_EQ(t.count, 4 * kN) << t.name;
}

struct AllocTally {
  std::int64_t calls = 0;
  std::int64_t bytes = 0;
};

/// Heap allocations (calls and bytes) made while building and running
/// VectorSource -> [Queue ->] Sink over `blocks` 256-sample blocks, metrics
/// off, in reference mode or in throughput mode with every element on its
/// own chain.
template <typename Sink>
AllocTally allocs_for_sink_run(std::size_t blocks, bool queue, bool throughput) {
  constexpr std::size_t kBlock = 256;
  Rng rng(19);
  CVec data(blocks * kBlock);
  for (auto& v : data) v = rng.cgaussian();
  const std::uint64_t calls0 = alloc_count();
  const std::uint64_t bytes0 = alloc_bytes();
  {
    stream::Graph g;
    auto* src = g.emplace<stream::VectorSource>("src", std::move(data), kBlock);
    auto* sink = g.emplace<Sink>("sink");
    if (queue) {
      auto* q = g.emplace<stream::Queue>("q");
      g.connect(*src, 0, *q, 0);
      g.connect(*q, 0, *sink, 0);
    } else {
      g.connect(*src, 0, *sink, 0);
    }
    stream::SchedulerConfig cfg;
    if (throughput) {
      cfg.mode = stream::SchedulerMode::kThroughput;
      cfg.threads = queue ? 3 : 2;
      cfg.batch_size = 8;
    }
    stream::Scheduler(g, cfg).run();
  }
  return {static_cast<std::int64_t>(alloc_count() - calls0),
          static_cast<std::int64_t>(alloc_bytes() - bytes0)};
}

TEST(ZeroAllocation, SinkKeepsBlocksWithoutCopyingSamples) {
  // Differencing N and 2N blocks cancels the one-time costs. What the
  // accumulating sink adds over the counting one per block is its block
  // list (one 24-byte vector entry, doubled by growth) — not a copy of the
  // block's 4 KB of samples.
  constexpr std::int64_t kN = 64;
  for (const bool throughput : {false, true}) {
    const std::int64_t kept =
        allocs_for_sink_run<stream::AccumulatorSink>(2 * kN, false, throughput).bytes -
        allocs_for_sink_run<stream::AccumulatorSink>(kN, false, throughput).bytes;
    const std::int64_t counted =
        allocs_for_sink_run<stream::NullSink>(2 * kN, false, throughput).bytes -
        allocs_for_sink_run<stream::NullSink>(kN, false, throughput).bytes;
    EXPECT_LT(kept - counted, kN * 64)
        << "AccumulatorSink allocated " << kept << " bytes per " << kN
        << " blocks, NullSink " << counted << (throughput ? " (throughput)" : " (reference)");
  }
}

TEST(ZeroAllocation, ChannelsMoveBlocksWithoutAllocating) {
  // VectorSource -> Queue -> NullSink: the source's one buffer per block is
  // the only allocation per block; the two channels (and in throughput
  // mode the rings and stub channels bridging them) allocate only when
  // they are set up.
  constexpr std::int64_t kN = 64;
  for (const bool throughput : {false, true}) {
    const std::int64_t per_n =
        allocs_for_sink_run<stream::NullSink>(2 * kN, true, throughput).calls -
        allocs_for_sink_run<stream::NullSink>(kN, true, throughput).calls;
    EXPECT_EQ(per_n, kN) << "allocations per " << kN << " blocks"
                         << (throughput ? " (throughput)" : " (reference)");
  }
}

TEST(ZeroAllocation, TimerObservationsAllocateNothingAfterTheFirst) {
  MetricsRegistry reg;
  const std::string name = "stream.chan_sd.block_us";  // past the SSO buffer
  reg.observe_duration_us(name, 1.0);
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 100000; ++i)
    reg.observe_duration_us(name, 0.25 + static_cast<double>(i % 1000) * 0.37);
  EXPECT_EQ(alloc_count(), before) << "timer observations allocated";
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.timers.size(), 1u);
  EXPECT_EQ(snap.timers[0].count, 100001u);
}

/// Heap allocations one Nelder-Mead run makes on a 4-D quadratic bowl when
/// held to exactly `iterations` iterations (a negative tolerance never
/// stops it early).
std::uint64_t nelder_mead_allocs(std::size_t iterations) {
  const opt::Objective bowl = [](const std::vector<double>& x) {
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double d = x[i] - static_cast<double>(i);
      acc += d * d;
    }
    return acc;
  };
  opt::NelderMeadOptions opts;
  opts.max_iterations = iterations;
  opts.tolerance = -1.0;
  const std::vector<double> x0(4, 0.5);
  const std::uint64_t before = alloc_count();
  const opt::OptResult r = opt::nelder_mead(bowl, x0, opts);
  const std::uint64_t allocs = alloc_count() - before;
  EXPECT_EQ(r.iterations, iterations);
  return allocs;
}

TEST(ZeroAllocation, NelderMeadIterationsAllocateNothing) {
  const std::uint64_t short_run = nelder_mead_allocs(10);
  const std::uint64_t long_run = nelder_mead_allocs(1000);
  EXPECT_EQ(long_run, short_run) << "990 more Nelder-Mead iterations allocated "
                                 << long_run - short_run << " times";
}

TEST(ZeroAllocation, CnfMimoObjectiveAllocatesNothingPerEvaluation) {
  // BM_CnfMimoDesignPerSubcarrier's channel, warm-started at its own cold
  // solution: a run of 204 objective evaluations. What it allocates is
  // set-up (the reused matrices, the simplex, the result), so it stays far
  // below one allocation per evaluation.
  Rng rng(6);
  linalg::Matrix h_sd(2, 2), h_sr(2, 2), h_rd(2, 2);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j) {
      h_sd(i, j) = rng.cgaussian();
      h_sr(i, j) = rng.cgaussian();
      h_rd(i, j) = rng.cgaussian();
    }
  const relay::CnfMimoResult cold = relay::cnf_mimo_design(h_sd, h_sr, h_rd, 1.0);
  const std::uint64_t before = alloc_count();
  const relay::CnfMimoResult warm = relay::cnf_mimo_design(h_sd, h_sr, h_rd, 1.0, &cold.params);
  const std::uint64_t allocs = alloc_count() - before;
  EXPECT_LT(allocs, 64u) << "a warm CNF design allocated " << allocs << " times";
  EXPECT_GE(warm.objective, cold.objective * (1.0 - 1e-9));
}

TEST(Workspace, GrowsAreCountedAndStopInSteadyState) {
  k::Workspace ws;
  EXPECT_EQ(ws.grows(), 0u);
  (void)ws.get(0, 100);
  const std::uint64_t after_first = ws.grows();
  EXPECT_GT(after_first, 0u);
  (void)ws.get(0, 50);   // smaller: reuse
  (void)ws.get(0, 100);  // equal: reuse
  EXPECT_EQ(ws.grows(), after_first);
  (void)ws.get(0, 200);  // larger: must grow
  EXPECT_GT(ws.grows(), after_first);
  EXPECT_GT(ws.bytes(), 0u);
  ws.release();
  EXPECT_EQ(ws.bytes(), 0u);
}

TEST(Workspace, F32SlotsAreASeparateNamespace) {
  k::Workspace ws;
  (void)ws.get(0, 100);  // f64 slot 0
  EXPECT_EQ(ws.grows<float>(), 0u) << "f64 gets must not touch the f32 counters";
  (void)ws.get<float>(0, 100);
  const std::uint64_t after_first = ws.grows<float>();
  EXPECT_GT(after_first, 0u);
  EXPECT_GT(ws.bytes<float>(), 0u);
  (void)ws.get<float>(0, 64);   // smaller: reuse
  (void)ws.get<float>(0, 100);  // equal: reuse
  EXPECT_EQ(ws.grows<float>(), after_first);
  (void)ws.get<float>(0, 200);  // larger: must grow
  EXPECT_GT(ws.grows<float>(), after_first);
  ws.release();
  EXPECT_EQ(ws.bytes<float>(), 0u);
}

}  // namespace
}  // namespace ff
