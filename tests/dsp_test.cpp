// Unit and property tests for the DSP substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "dsp/correlation.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/fractional_delay.hpp"
#include "dsp/noise.hpp"
#include "dsp/resample.hpp"
#include "dsp/sequence.hpp"

namespace ff {
namespace {

// ---------------------------------------------------------------- FFT

class FftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizes, ForwardInverseRoundTrip) {
  const std::size_t n = GetParam();
  Rng rng(n);
  CVec x(n);
  for (auto& v : x) v = rng.cgaussian();
  CVec y = x;
  const dsp::FftPlan plan(n);
  plan.forward(y);
  plan.inverse(y);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-10);
}

TEST_P(FftSizes, ParsevalHolds) {
  const std::size_t n = GetParam();
  Rng rng(n + 1);
  CVec x(n);
  for (auto& v : x) v = rng.cgaussian();
  double time_energy = 0.0;
  for (const Complex v : x) time_energy += std::norm(v);
  const CVec f = dsp::fft(x);
  double freq_energy = 0.0;
  for (const Complex v : f) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n),
              1e-8 * time_energy * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftSizes,
                         ::testing::Values(2, 4, 8, 16, 64, 128, 512, 2048));

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  CVec x(n);
  const int k = 5;
  for (std::size_t i = 0; i < n; ++i) {
    const double ang = kTwoPi * k * static_cast<double>(i) / static_cast<double>(n);
    x[i] = {std::cos(ang), std::sin(ang)};
  }
  const CVec f = dsp::fft(x);
  for (std::size_t b = 0; b < n; ++b) {
    if (b == static_cast<std::size_t>(k))
      EXPECT_NEAR(std::abs(f[b]), static_cast<double>(n), 1e-9);
    else
      EXPECT_NEAR(std::abs(f[b]), 0.0, 1e-9);
  }
}

TEST(Fft, MatchesDirectDft) {
  const std::size_t n = 16;
  Rng rng(3);
  CVec x(n);
  for (auto& v : x) v = rng.cgaussian();
  const CVec fast = dsp::fft(x);
  for (std::size_t k = 0; k < n; ++k) {
    Complex direct{0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) {
      const double ang = -kTwoPi * static_cast<double>(k * i) / static_cast<double>(n);
      direct += x[i] * Complex{std::cos(ang), std::sin(ang)};
    }
    EXPECT_NEAR(std::abs(fast[k] - direct), 0.0, 1e-9);
  }
}

TEST(Fft, ConvolveMatchesDirect) {
  Rng rng(5);
  CVec a(23), b(11);
  for (auto& v : a) v = rng.cgaussian();
  for (auto& v : b) v = rng.cgaussian();
  const CVec fast = dsp::fft_convolve(a, b);
  const CVec direct = dsp::convolve(a, b);
  ASSERT_EQ(fast.size(), direct.size());
  for (std::size_t i = 0; i < fast.size(); ++i)
    EXPECT_NEAR(std::abs(fast[i] - direct[i]), 0.0, 1e-9);
}

TEST(Fft, ShiftInvertsItself) {
  Rng rng(6);
  for (const std::size_t n : {8u, 9u, 15u, 16u}) {
    CVec x(n);
    for (auto& v : x) v = rng.cgaussian();
    const CVec round = dsp::ifftshift(dsp::fftshift(x));
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(std::abs(round[i] - x[i]), 0.0, 1e-12);
  }
}

TEST(Fft, ShiftRoundTripsBothOrdersAtOddLengths) {
  // At odd lengths fftshift and ifftshift are NOT self-inverse (the halves
  // differ by one element), so both compositions must be checked — and they
  // must be exact permutations, not approximate.
  Rng rng(61);
  for (const std::size_t n : {1u, 3u, 5u, 9u, 15u, 17u, 63u}) {
    CVec x(n);
    for (auto& v : x) v = rng.cgaussian();
    const CVec a = dsp::ifftshift(dsp::fftshift(x));
    const CVec b = dsp::fftshift(dsp::ifftshift(x));
    ASSERT_EQ(a.size(), n);
    ASSERT_EQ(b.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(a[i], x[i]) << "ifftshift(fftshift) at n=" << n << " i=" << i;
      EXPECT_EQ(b[i], x[i]) << "fftshift(ifftshift) at n=" << n << " i=" << i;
    }
  }
}

TEST(Fft, FftshiftCentersDcAtOddLengths) {
  // x[0] (the DC bin) must land on the centre element floor(n/2), matching
  // the numpy/matlab convention the spectrum code assumes.
  for (const std::size_t n : {3u, 5u, 7u, 9u, 15u}) {
    CVec x(n, Complex{});
    x[0] = Complex{1.0, 0.0};
    const CVec shifted = dsp::fftshift(x);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(shifted[i], (i == n / 2 ? Complex{1.0, 0.0} : Complex{}))
          << "n=" << n << " i=" << i;
  }
}

TEST(Fft, ConvolveEmptyInputReturnsEmpty) {
  // Pins fft_convolve's early return: an empty operand never reaches the
  // plan layer (where next_power_of_two(0) would now throw).
  const CVec a{Complex{1.0, 0.0}, Complex{2.0, 0.0}};
  EXPECT_TRUE(dsp::fft_convolve(a, CVec{}).empty());
  EXPECT_TRUE(dsp::fft_convolve(CVec{}, a).empty());
  EXPECT_TRUE(dsp::fft_convolve(CVec{}, CVec{}).empty());
}

TEST(Fft, RejectsNonPowerOfTwo) {
  EXPECT_THROW(dsp::FftPlan(12), std::logic_error);
  EXPECT_THROW(dsp::FftPlan(0), std::logic_error);
  EXPECT_TRUE(dsp::is_power_of_two(1024));
  EXPECT_FALSE(dsp::is_power_of_two(12));
  EXPECT_EQ(dsp::next_power_of_two(100), 128u);
}

// ---------------------------------------------------------------- FIR

TEST(Fir, StreamingMatchesBlockFilter) {
  Rng rng(7);
  CVec taps(9), x(200);
  for (auto& v : taps) v = rng.cgaussian();
  for (auto& v : x) v = rng.cgaussian();
  dsp::FirFilter fir(taps);
  const CVec streamed = fir.process(x);
  const CVec block = dsp::filter(taps, x);
  // Both sides run dsp::fir_core over the same zero history: equal bytes.
  ASSERT_EQ(streamed.size(), block.size());
  EXPECT_EQ(std::memcmp(streamed.data(), block.data(), x.size() * sizeof(Complex)), 0);
}

// The block path is push(), the per-sample oracle, byte for byte: filtered
// in place over blocks of cycling sizes, with the history carried across
// every block boundary.
template <typename T>
void expect_process_into_equals_push() {
  using C = std::complex<T>;
  const std::size_t block_sizes[] = {1, 2, 3, 7, 8, 9, 15, 16, 17, 64, 1000};
  Rng rng(std::is_same_v<T, double> ? 41 : 42);
  const auto draw = [&rng] {
    const Complex d = rng.cgaussian();
    return C{static_cast<T>(d.real()), static_cast<T>(d.imag())};
  };
  for (const std::size_t taps : {1, 4, 9, 49, 61}) {
    std::vector<C> h(taps), x(5000);
    for (auto& v : h) v = draw();
    for (auto& v : x) v = draw();
    dsp::BasicFirFilter<T> oracle(h), blocked(h);
    std::vector<C> want(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) want[i] = oracle.push(x[i]);
    std::vector<C> got = x;
    for (std::size_t done = 0, b = 0; done < got.size(); ++b) {
      const std::size_t len = std::min(block_sizes[b % std::size(block_sizes)], got.size() - done);
      const std::span<C> seg{got.data() + done, len};
      blocked.process_into(seg, seg);
      done += len;
    }
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(C)), 0)
        << "taps=" << taps << " width=" << sizeof(T) * 8;
  }
}

TEST(Fir, ProcessIntoEqualsPushBitForBit) {
  expect_process_into_equals_push<double>();
  expect_process_into_equals_push<float>();
}

// Leading exact-zero taps (a late first path, like chan_sd's 17 of 61) are
// skipped, and the output keeps every bit: compared with fir_core over the
// full tap set and a zero history, both through blocks and through push().
template <typename T>
void expect_leading_zero_taps_keep_bits() {
  using C = std::complex<T>;
  Rng rng(std::is_same_v<T, double> ? 43 : 44);
  const auto draw = [&rng] {
    const Complex d = rng.cgaussian();
    return C{static_cast<T>(d.real()), static_cast<T>(d.imag())};
  };
  for (const std::size_t lead : {1, 17, 60}) {
    std::vector<C> h(61), x(3000);
    for (std::size_t k = 0; k < h.size(); ++k) h[k] = k < lead ? C{} : draw();
    h[0] = C{T(-0.0), T(0.0)};  // a negative zero is an exact zero too
    for (auto& v : x) v = draw();
    std::vector<C> ext(h.size() - 1 + x.size(), C{});
    std::copy(x.begin(), x.end(), ext.begin() + static_cast<std::ptrdiff_t>(h.size() - 1));
    std::vector<C> want(x.size());
    dsp::fir_core<T>(h, ext.data(), want);

    dsp::BasicFirFilter<T> oracle(h), blocked(h);
    std::vector<C> pushed(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) pushed[i] = oracle.push(x[i]);
    std::vector<C> got = x;
    for (std::size_t done = 0; done < got.size(); done += 100)
      blocked.process_into(std::span<C>{got.data() + done, 100},
                           std::span<C>{got.data() + done, 100});
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(C)), 0)
        << "lead=" << lead << " width=" << sizeof(T) * 8;
    EXPECT_EQ(std::memcmp(pushed.data(), want.data(), pushed.size() * sizeof(C)), 0)
        << "lead=" << lead << " width=" << sizeof(T) * 8;
  }
  // An all-zero tap set keeps its last tap and filters to +0.
  dsp::BasicFirFilter<T> zeros(std::vector<C>(5, C{}));
  std::vector<C> y(8, C{T(1), T(-2)});
  zeros.process_into(y, y);
  for (const C& v : y) {
    EXPECT_EQ(v, C{});
    EXPECT_FALSE(std::signbit(v.real()) || std::signbit(v.imag()));
  }
  EXPECT_EQ(zeros.push(C{T(3), T(4)}), C{});
}

TEST(Fir, LeadingZeroTapsAreSkippedBitForBit) {
  expect_leading_zero_taps_keep_bits<double>();
  expect_leading_zero_taps_keep_bits<float>();
}

// The one visible change of skipping leading zero taps: a non-finite input
// reaches the output only through the taps that multiply it by a nonzero
// value. With taps (0, 0, 1) a NaN at n = 0 shows up at n = 2 alone; the
// full product sum would also give NaN at n = 0 and 1 (0 * NaN = NaN).
TEST(Fir, LeadingZeroTapsDoNotSpreadNaN) {
  const CVec h{Complex{}, Complex{}, Complex{1.0, 0.0}};
  CVec x(6, Complex{1.0, 0.0});
  x[0] = Complex{std::nan(""), 0.0};
  dsp::FirFilter oracle(h), blocked(h);
  CVec pushed(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) pushed[i] = oracle.push(x[i]);
  CVec got = x;
  blocked.process_into(got, got);
  for (const CVec* y : {&pushed, &got}) {
    for (std::size_t n = 0; n < y->size(); ++n) {
      EXPECT_EQ(std::isnan((*y)[n].real()), n == 2) << "n=" << n;
    }
    EXPECT_EQ((*y)[0], Complex{});
    EXPECT_EQ((*y)[3], Complex(1.0, 0.0));
  }
}

TEST(Fir, ImpulseRecoversTaps) {
  CVec taps{{1.0, 0.5}, {-0.3, 0.1}, {0.0, -0.7}};
  CVec impulse(8, Complex{});
  impulse[0] = 1.0;
  const CVec y = dsp::filter(taps, impulse);
  for (std::size_t i = 0; i < taps.size(); ++i)
    EXPECT_NEAR(std::abs(y[i] - taps[i]), 0.0, 1e-12);
  for (std::size_t i = taps.size(); i < y.size(); ++i)
    EXPECT_NEAR(std::abs(y[i]), 0.0, 1e-12);
}

TEST(Fir, ResetClearsState) {
  CVec taps{{1.0, 0.0}, {1.0, 0.0}};
  dsp::FirFilter fir(taps);
  fir.push({5.0, 0.0});
  fir.reset();
  EXPECT_NEAR(std::abs(fir.push({1.0, 0.0}) - Complex{1.0, 0.0}), 0.0, 1e-12);
}

TEST(Fir, FreqResponseOfDelayIsLinearPhase) {
  CVec taps(4, Complex{});
  taps[3] = 1.0;  // pure 3-sample delay
  for (const double f : {0.05, 0.1, 0.2}) {
    const Complex h = dsp::freq_response(taps, f);
    EXPECT_NEAR(std::abs(h), 1.0, 1e-12);
    EXPECT_NEAR(std::arg(h), std::remainder(-kTwoPi * f * 3.0, kTwoPi), 1e-9);
  }
}

TEST(Fir, ConvolveCommutes) {
  Rng rng(8);
  CVec a(12), b(7);
  for (auto& v : a) v = rng.cgaussian();
  for (auto& v : b) v = rng.cgaussian();
  const CVec ab = dsp::convolve(a, b);
  const CVec ba = dsp::convolve(b, a);
  ASSERT_EQ(ab.size(), ba.size());
  for (std::size_t i = 0; i < ab.size(); ++i)
    EXPECT_NEAR(std::abs(ab[i] - ba[i]), 0.0, 1e-10);
}

// ---------------------------------------------- fractional delay

class FractionalDelays : public ::testing::TestWithParam<double> {};

TEST_P(FractionalDelays, DelaysAToneByTheRightPhase) {
  // Accuracy regime: the causal design needs `delay >= half_width` so the
  // full two-sided sinc fits (callers like the SI alignment grid guarantee
  // this). half_width = 6 here.
  const double d = GetParam();
  const double f_norm = 0.11;  // in-band tone
  const std::size_t n = 256;
  CVec x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ang = kTwoPi * f_norm * static_cast<double>(i);
    x[i] = {std::cos(ang), std::sin(ang)};
  }
  const CVec y = dsp::delay_signal(x, d, /*half_width=*/6);
  const Complex expect = std::exp(Complex(0.0, -kTwoPi * f_norm * d));
  for (std::size_t i = 80; i < 180; ++i) {
    const Complex ratio = y[i] / x[i];
    EXPECT_NEAR(std::abs(ratio - expect), 0.0, 0.02) << "delay " << d << " at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FractionalDelays,
                         ::testing::Values(0.0, 6.25, 7.5, 9.3, 12.75, 20.5));

TEST(FractionalDelay, IntegerDelayIsExact) {
  const CVec taps = dsp::design_fractional_delay(3.0);
  ASSERT_EQ(taps.size(), 4u);
  EXPECT_NEAR(std::abs(taps[3] - Complex{1.0, 0.0}), 0.0, 1e-12);
}

TEST(FractionalDelay, RejectsADelayNoFilterCanHold) {
  // Past size_t's range the delay's conversion to a tap index is undefined:
  // 8e19 samples once came back as 18 zero taps. Infinity and NaN are no
  // delay either.
  for (const double delay : {8e19, dsp::max_fractional_delay(16) * 2.0,
                             std::numeric_limits<double>::infinity(), std::nan("")})
    EXPECT_THROW(dsp::design_fractional_delay(delay, 16), std::logic_error) << delay;
}

TEST(FractionalDelay, SubSampleDelayWithoutLeadIsDegraded) {
  // Documented limitation: a fractional delay < half_width truncates the
  // anti-causal sinc side and loses accuracy — this is the same physics
  // that forces FF's digital canceller to be "slightly longer" (Sec. 3.3).
  const double f_norm = 0.11;
  CVec x(256);
  for (std::size_t i = 0; i < 256; ++i) {
    const double ang = kTwoPi * f_norm * static_cast<double>(i);
    x[i] = {std::cos(ang), std::sin(ang)};
  }
  const CVec y = dsp::delay_signal(x, 0.5, /*half_width=*/6);
  const Complex expect = std::exp(Complex(0.0, -kTwoPi * f_norm * 0.5));
  double worst = 0.0;
  for (std::size_t i = 80; i < 180; ++i)
    worst = std::max(worst, std::abs(y[i] / x[i] - expect));
  EXPECT_GT(worst, 0.02);  // visibly imperfect...
  EXPECT_LT(worst, 0.6);   // ...but not nonsense
}

// ---------------------------------------------------------- correlation

TEST(Correlation, FindsEmbeddedSequence) {
  Rng rng(11);
  const CVec ref = dsp::pn_signature(1, 63);
  CVec x = dsp::awgn(rng, 400, 0.01);
  for (std::size_t i = 0; i < ref.size(); ++i) x[137 + i] += ref[i];
  const auto corr = dsp::normalized_correlation(x, ref);
  EXPECT_EQ(dsp::argmax(corr), 137u);
  EXPECT_GT(corr[137], 0.9);
}

TEST(Correlation, NormalizedIsScaleInvariant) {
  Rng rng(12);
  const CVec ref = dsp::pn_signature(2, 31);
  CVec x = dsp::awgn(rng, 200, 0.01);
  for (std::size_t i = 0; i < ref.size(); ++i) x[50 + i] += ref[i];
  auto c1 = dsp::normalized_correlation(x, ref);
  CVec scaled = x;
  dsp::scale(scaled, 42.0);
  auto c2 = dsp::normalized_correlation(scaled, ref);
  for (std::size_t i = 0; i < c1.size(); ++i) EXPECT_NEAR(c1[i], c2[i], 1e-9);
}

TEST(Correlation, MeanPowerDbRoundTrips) {
  Rng rng(13);
  const CVec x = dsp::awgn_dbm(rng, 50000, -37.0);
  EXPECT_NEAR(dsp::mean_power_db(x), -37.0, 0.2);
}

TEST(Correlation, EvmOfIdenticalSignalsIsZero) {
  Rng rng(14);
  const CVec x = dsp::awgn(rng, 64, 1.0);
  EXPECT_NEAR(dsp::evm_power_ratio(x, x), 0.0, 1e-15);
}

// ---------------------------------------------------------- sequences

TEST(Sequence, ScramblerLfsrHasFullPeriod) {
  auto lfsr = dsp::Lfsr::scrambler(0x5D);
  const auto first = lfsr.bits(127);
  const auto second = lfsr.bits(127);
  EXPECT_EQ(first, second);  // period 127
  // Not all zeros / not all ones.
  int sum = 0;
  for (const auto b : first) sum += b;
  EXPECT_GT(sum, 40);
  EXPECT_LT(sum, 90);
}

TEST(Sequence, DistinctClientsHaveLowCrossCorrelation) {
  const std::size_t len = 80;
  for (std::uint32_t a = 1; a <= 4; ++a) {
    for (std::uint32_t b = a + 1; b <= 4; ++b) {
      const CVec sa = dsp::pn_signature(a, len);
      const CVec sb = dsp::pn_signature(b, len);
      Complex acc{0.0, 0.0};
      for (std::size_t i = 0; i < len; ++i) acc += std::conj(sa[i]) * sb[i];
      EXPECT_LT(std::abs(acc) / static_cast<double>(len), 0.35)
          << "clients " << a << "," << b;
    }
  }
}

TEST(Sequence, SignatureIsDeterministic) {
  EXPECT_EQ(dsp::pn_signature(7, 64), dsp::pn_signature(7, 64));
}

// ---------------------------------------------------------- noise

TEST(Noise, SetMeanPowerIsExact) {
  Rng rng(15);
  CVec x = dsp::awgn(rng, 1000, 3.7);
  dsp::set_mean_power(x, 0.5);
  EXPECT_NEAR(dsp::mean_power(x), 0.5, 1e-12);
}

TEST(Noise, AwgnPowerIsCalibrated) {
  Rng rng(16);
  const CVec x = dsp::awgn(rng, 100000, 2.0);
  EXPECT_NEAR(dsp::mean_power(x), 2.0, 0.05);
}

TEST(Noise, AccumulateAdds) {
  CVec a{{1.0, 0.0}, {2.0, 0.0}};
  const CVec b{{0.5, 1.0}, {-1.0, 0.0}};
  dsp::accumulate(a, b);
  EXPECT_NEAR(std::abs(a[0] - Complex{1.5, 1.0}), 0.0, 1e-15);
  EXPECT_NEAR(std::abs(a[1] - Complex{1.0, 0.0}), 0.0, 1e-15);
}

// ---------------------------------------------------------- resampling

TEST(Resample, UpDownRoundTripRecoversSignal) {
  Rng rng(17);
  // Band-limited input: OFDM-like white sequence is full band, so first
  // smooth it slightly to stay inside the interpolator's passband.
  CVec x = dsp::awgn(rng, 600, 1.0);
  const CVec smooth{{0.25, 0.0}, {0.5, 0.0}, {0.25, 0.0}};
  x = dsp::filter(smooth, x);

  const std::size_t factor = 4;
  const CVec up = dsp::upsample(x, factor);
  ASSERT_EQ(up.size(), x.size() * factor);
  const CVec down = dsp::downsample(up, factor);
  ASSERT_EQ(down.size(), x.size());

  // The round trip delays by 2 * group_delay / factor low-rate samples.
  const std::size_t delay = 2 * dsp::resample_group_delay(factor) / factor;
  double err = 0.0, sig = 0.0;
  for (std::size_t i = 100; i + delay < x.size() - 100; ++i) {
    err += std::norm(down[i + delay] - x[i]);
    sig += std::norm(x[i]);
  }
  EXPECT_LT(10.0 * std::log10(err / sig), -25.0);
}

TEST(Resample, PreservesInBandTone) {
  const std::size_t n = 512;
  const double f = 0.08;  // cycles per low-rate sample
  CVec x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ang = kTwoPi * f * static_cast<double>(i);
    x[i] = {std::cos(ang), std::sin(ang)};
  }
  const CVec up = dsp::upsample(x, 4);
  // The upsampled tone should be at f/4 with amplitude ~1 in steady state.
  for (std::size_t i = 300; i < 1500; ++i)
    EXPECT_NEAR(std::abs(up[i]), 1.0, 0.03);
}

TEST(Resample, FactorOneIsIdentity) {
  Rng rng(18);
  const CVec x = dsp::awgn(rng, 32, 1.0);
  const CVec up = dsp::upsample(x, 1);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(up[i], x[i]);
}

TEST(Resample, FactorOneDownsampleIsIdentity) {
  Rng rng(19);
  const CVec x = dsp::awgn(rng, 32, 1.0);
  const CVec down = dsp::downsample(x, 1);
  ASSERT_EQ(down.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(down[i], x[i]);
}

TEST(Resample, SingleSampleInputZeroStuffs) {
  // One input sample still produces exactly `factor` output samples. The
  // causal interpolation filter delays the kernel peak past the output
  // window, so all that is visible is the kernel's leading (near-zero)
  // taps scaled by the sample — finite and bounded by the input, never a
  // surprise length or an out-of-range read.
  const std::size_t factor = 4;
  const CVec x{Complex{2.0, -1.0}};
  const CVec up = dsp::upsample(x, factor);
  ASSERT_EQ(up.size(), factor);
  for (const auto& v : up) {
    EXPECT_TRUE(std::isfinite(v.real()) && std::isfinite(v.imag()));
    EXPECT_LE(std::abs(v), std::abs(x[0]) * 1.1);
  }
}

TEST(Resample, SingleSampleRoundTrip) {
  const CVec x{Complex{1.0, 1.0}};
  const CVec down = dsp::downsample(dsp::upsample(x, 2), 2);
  ASSERT_EQ(down.size(), 1u);
  EXPECT_TRUE(std::isfinite(down[0].real()) && std::isfinite(down[0].imag()));
}

TEST(Resample, EmptyInputStaysEmpty) {
  EXPECT_TRUE(dsp::upsample(CVec{}, 4).empty());
  EXPECT_TRUE(dsp::downsample(CVec{}, 4).empty());
}

// The formulas the resamplers computed before their polyphase forms, kept
// as bit-level oracles: zero-stuff then filter at the high rate, and filter
// at the high rate then keep every factor-th sample.
CVec upsample_by_zero_stuffing(const CVec& x, std::size_t factor, std::size_t half_width) {
  CVec stuffed(x.size() * factor, Complex{});
  for (std::size_t i = 0; i < x.size(); ++i) stuffed[i * factor] = x[i];
  return dsp::filter(dsp::resample_kernel(factor, half_width), stuffed);
}

CVec downsample_by_decimating(const CVec& x, std::size_t factor, std::size_t half_width) {
  const CVec filtered = dsp::filter(dsp::resample_kernel(factor, half_width), x);
  CVec out(x.size() / factor);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = filtered[i * factor] / static_cast<double>(factor);
  return out;
}

// Gaussian samples with exact +0 and -0 components mixed in: the polyphase
// upsampler's bit-identity rests on how signed zeros accumulate.
CVec signed_zero_input(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  CVec x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Complex v = rng.cgaussian();
    switch (i % 5) {
      case 1: x[i] = {0.0, v.imag()}; break;
      case 2: x[i] = {-0.0, -0.0}; break;
      case 3: x[i] = {v.real(), -0.0}; break;
      case 4: x[i] = {0.0, 0.0}; break;
      default: x[i] = v;
    }
  }
  return x;
}

bool same_bits(const CVec& a, const CVec& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0);
}

constexpr std::size_t kResampleFactors[] = {2, 3, 4, 5};
constexpr std::size_t kResampleHalfWidths[] = {1, 3, 12};
constexpr std::size_t kResampleLengths[] = {1, 2, 5, 7, 97, 600, 2001};

TEST(Resample, UpsampleMatchesZeroStuffedFilterBitForBit) {
  for (const std::size_t factor : kResampleFactors)
    for (const std::size_t hw : kResampleHalfWidths)
      for (const std::size_t n : kResampleLengths) {
        const CVec x = signed_zero_input(n, 100 * factor + 10 * hw + n);
        EXPECT_TRUE(same_bits(dsp::upsample(x, factor, hw),
                              upsample_by_zero_stuffing(x, factor, hw)))
            << "factor=" << factor << " half_width=" << hw << " n=" << n;
      }
}

TEST(Resample, DownsampleMatchesFilterThenDecimateBitForBit) {
  for (const std::size_t factor : kResampleFactors)
    for (const std::size_t hw : kResampleHalfWidths)
      for (const std::size_t n : kResampleLengths) {
        const CVec x = signed_zero_input(n, 200 * factor + 10 * hw + n);
        EXPECT_TRUE(same_bits(dsp::downsample(x, factor, hw),
                              downsample_by_decimating(x, factor, hw)))
            << "factor=" << factor << " half_width=" << hw << " n=" << n;
      }
}

TEST(Fir, ProcessIntoMatchesProcessAndSupportsAliasing) {
  Rng rng(31);
  CVec taps(7), x(100);
  for (auto& v : taps) v = rng.cgaussian();
  for (auto& v : x) v = rng.cgaussian();

  dsp::FirFilter a(taps), b(taps);
  const CVec expected = a.process(x);
  CVec inplace = x;
  b.process_into(inplace, inplace);  // out aliases the input
  EXPECT_EQ(inplace, expected);

  dsp::FirFilter c(taps);
  CVec wrong(x.size() + 1);
  EXPECT_THROW(c.process_into(x, wrong), std::logic_error);
}

TEST(Fir, SetTapsPreservesHistoryAcrossResize) {
  Rng rng(33);
  CVec x(10);
  for (auto& v : x) v = rng.cgaussian();
  const CVec taps4{{1.0, 0.0}, {0.5, 0.0}, {-0.25, 0.0}, {0.0, 0.5}};
  CVec taps6(6);
  for (auto& v : taps6) v = rng.cgaussian();

  // Grow mid-stream: the most recent 4 inputs must survive into the new
  // 6-deep delay line (older history zero-padded).
  dsp::FirFilter fir(taps4);
  for (const Complex s : x) fir.push(s);
  fir.set_taps(taps6);
  const Complex next{0.7, -0.3};
  const Complex y = fir.push(next);
  Complex expected = taps6[0] * next;
  for (std::size_t k = 1; k <= 4; ++k) expected += taps6[k] * x[x.size() - k];
  // taps6[5] multiplies zero-padded (forgotten) history.
  EXPECT_NEAR(std::abs(y - expected), 0.0, 1e-12);

  // Shrink: only the most recent 2 inputs remain relevant.
  dsp::FirFilter shrink(taps6);
  for (const Complex s : x) shrink.push(s);
  shrink.set_taps(CVec{{1.0, 0.0}, {0.0, 1.0}});
  const Complex y2 = shrink.push(next);
  EXPECT_NEAR(std::abs(y2 - (next + Complex{0.0, 1.0} * x.back())), 0.0, 1e-12);

  // Same-size retune never touches the delay line.
  dsp::FirFilter same(taps4);
  for (const Complex s : x) same.push(s);
  dsp::FirFilter ref(taps4);
  for (const Complex s : x) ref.push(s);
  CVec taps4b = taps4;
  taps4b[2] = Complex{2.0, 0.0};
  same.set_taps(taps4b);
  Complex expected_same = ref.push(next) + (taps4b[2] - taps4[2]) * x[x.size() - 2];
  EXPECT_NEAR(std::abs(same.push(next) - expected_same), 0.0, 1e-12);
}

}  // namespace
}  // namespace ff
