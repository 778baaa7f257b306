// The generator under every Rng: Mt19937_64 must be std::mt19937_64 draw for
// draw (so every std distribution, and every checksum built on one, is
// unchanged), the ziggurat behind Rng::cgaussian_zig must be a standard
// normal — moments, shape, tails — with a pinned draw sequence, and the
// block draw the stream channel adds (dsp::add_cgaussian_zig) must add
// exactly what a per-sample cgaussian_zig / cgaussian32 loop adds.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <random>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "dsp/noise.hpp"

namespace ff {
namespace {

static_assert(std::uniform_random_bit_generator<Mt19937_64>);

TEST(Mt19937_64, TenThousandthDrawIsTheStandardsCheckValue) {
  // [rand.predef]: the 10000th consecutive invocation of a default-
  // constructed mt19937_64 produces 9981545732273789042.
  Mt19937_64 engine;
  for (int i = 1; i < 10000; ++i) engine();
  EXPECT_EQ(engine(), 9981545732273789042ULL);
}

TEST(Mt19937_64, MatchesStdMt19937_64AtEverySeed) {
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5489}, std::uint64_t{20140817},
        ~std::uint64_t{0}}) {
    Mt19937_64 ours(seed);
    std::mt19937_64 theirs(seed);
    for (int i = 0; i < 1'000'000; ++i)
      ASSERT_EQ(ours(), theirs()) << "seed " << seed << " draw " << i;
  }
}

TEST(Mt19937_64, MatchesStdMt19937_64AfterFork) {
  // A fork seeds its child from one parent draw; the child must be the
  // std engine seeded with the same derived value.
  for (const std::uint64_t label : {std::uint64_t{0}, std::uint64_t{7}, fnv1a_64("noise")}) {
    Rng parent(20140817);
    std::mt19937_64 shadow(20140817);
    Rng child = parent.fork(label);
    std::mt19937_64 theirs(shadow() ^ (label * 0x9E3779B97F4A7C15ULL));
    for (int i = 0; i < 1'000'000; ++i)
      ASSERT_EQ(child.engine()(), theirs()) << "label " << label << " draw " << i;
    EXPECT_EQ(parent.engine()(), shadow());
  }
}

TEST(Mt19937_64, StdDistributionsDrawTheSameValues) {
  // What Rng's uniform(), index() and gaussian() run, on both engines.
  Mt19937_64 ours(99);
  std::mt19937_64 theirs(99);
  std::uniform_real_distribution<double> u_ours(0.0, 1.0), u_theirs(0.0, 1.0);
  std::normal_distribution<double> n_ours(0.0, 1.0), n_theirs(0.0, 1.0);
  for (int i = 0; i < 100'000; ++i) {
    ASSERT_EQ(u_ours(ours), u_theirs(theirs)) << "uniform draw " << i;
    ASSERT_EQ(n_ours(ours), n_theirs(theirs)) << "normal draw " << i;
    const std::size_t n = 1 + static_cast<std::size_t>(i) % 1000;
    ASSERT_EQ(std::uniform_int_distribution<std::size_t>(0, n - 1)(ours),
              std::uniform_int_distribution<std::size_t>(0, n - 1)(theirs))
        << "index draw " << i;
  }
}

TEST(Ziggurat, FirstDrawsAtSeedOnePinned) {
  // The channel noise sequence: if these move, every stream checksum moves.
  const std::array<Complex, 8> expected = {{
      {-0x1.c35fdc10b2a74p-1, -0x1.f4f521bb30e03p-1},
      {-0x1.80986b5102771p-4, -0x1.f3d4a1176d7dep-1},
      {-0x1.c630051709a2dp-2, 0x1.21ae6f7295f2dp+0},
      {-0x1.90e01249cd6bap-5, -0x1.c41c8382e306fp+0},
      {0x1.8b9234c4ec831p-2, 0x1.08f590881453ep-1},
      {-0x1.22a2acbef158cp+1, 0x1.92e5e378abb64p-3},
      {0x1.69ac0b7e31c1fp-1, -0x1.5e8ab0b669549p-1},
      {-0x1.96f408cf512a1p-4, -0x1.ef94de20ddc95p-2},
  }};
  Rng rng(1);
  for (std::size_t k = 0; k < expected.size(); ++k) {
    const Complex z = rng.cgaussian_zig();
    EXPECT_EQ(z.real(), expected[k].real()) << "draw " << k << " real " << std::hexfloat
                                            << z.real();
    EXPECT_EQ(z.imag(), expected[k].imag()) << "draw " << k << " imag " << std::hexfloat
                                            << z.imag();
  }
}

TEST(Ziggurat, CGaussianZigIsTwoScaledDrawsRealFirst) {
  const double variance = 0.37;
  Rng rng(5);
  Mt19937_64 shadow(5);
  const Ziggurat& zig = Ziggurat::tables();
  const double s = std::sqrt(variance / 2.0);
  for (int i = 0; i < 10'000; ++i) {
    const Complex z = rng.cgaussian_zig(variance);
    const double re = zig(shadow);
    const double im = zig(shadow);
    ASSERT_EQ(z.real(), s * re) << "draw " << i;
    ASSERT_EQ(z.imag(), s * im) << "draw " << i;
  }
}

TEST(Ziggurat, CGaussian32IsTheNarrowedZigguratDraw) {
  for (const float variance : {1.0f, 1e-3f, 0.3f}) {
    Rng a(11), b(11);
    for (int i = 0; i < 100'000; ++i) {
      const Complex32 got = a.cgaussian32(variance);
      const Complex want = b.cgaussian_zig(variance);
      ASSERT_EQ(got.real(), static_cast<float>(want.real())) << "draw " << i;
      ASSERT_EQ(got.imag(), static_cast<float>(want.imag())) << "draw " << i;
    }
  }
}

TEST(Mt19937_64, PendingWordsTemperIntoTheNextDraws) {
  // pending() is the rest of the current twist, untempered; marking words
  // drawn leaves the engine where that many draws would, across twists.
  Mt19937_64 blocks(77), draws(77);
  std::size_t marked = 0;
  for (const std::size_t take : {std::size_t{1}, std::size_t{0}, std::size_t{310},
                                 std::size_t{1}, std::size_t{312}, std::size_t{5}}) {
    const std::span<const std::uint64_t> words = blocks.pending();
    ASSERT_FALSE(words.empty());
    const std::size_t n = std::min(take, words.size());
    for (std::size_t k = 0; k < n; ++k)
      ASSERT_EQ(Mt19937_64::temper(words[k]), draws()) << "word " << marked + k;
    blocks.mark_drawn(n);
    marked += n;
  }
  EXPECT_EQ(blocks(), draws());
  EXPECT_THROW(blocks.mark_drawn(blocks.pending().size() + 1), std::logic_error);
}

// Counts the engine words each normal spends: 1 is the fast path, 2 is an
// accepted wedge test (the tail spends at least 3).
struct CountingEngine {
  using result_type = Mt19937_64::result_type;
  static constexpr result_type min() { return Mt19937_64::min(); }
  static constexpr result_type max() { return Mt19937_64::max(); }
  result_type operator()() {
    ++words;
    return engine();
  }
  Mt19937_64 engine{2024};
  std::uint64_t words = 0;
};

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

TEST(Ziggurat, IsAStandardNormal) {
  constexpr std::size_t kDraws = 10'000'000;
  constexpr double kR = 3.6541528853610088;  // where the tail starts
  constexpr int kBins = 200;                 // over [-5, 5], plus two open tails
  constexpr double kLo = -5.0, kWidth = 10.0 / kBins;

  const Ziggurat& zig = Ziggurat::tables();
  CountingEngine engine;
  std::array<std::uint64_t, kBins + 2> hist{};
  double m1 = 0.0, m2 = 0.0, m4 = 0.0, lag1 = 0.0, prev = 0.0;
  std::uint64_t tail = 0, wedge = 0;
  for (std::size_t k = 0; k < kDraws; ++k) {
    const std::uint64_t before = engine.words;
    const double z = zig(engine);
    if (engine.words - before == 2) ++wedge;
    if (std::abs(z) > kR) ++tail;
    m1 += z;
    m2 += z * z;
    m4 += z * z * z * z;
    lag1 += z * prev;
    prev = z;
    const double pos = (z - kLo) / kWidth;
    hist[pos < 0.0 ? 0 : pos >= kBins ? kBins + 1 : 1 + static_cast<std::size_t>(pos)]++;
  }
  const double n = static_cast<double>(kDraws);
  m1 /= n;
  m2 /= n;
  m4 /= n;
  lag1 /= n;

  // Each moment within 5 standard errors: Var(z) = 1, Var(z^2) = 2,
  // Var(z^4) = E z^8 - 9 = 96, Var(z_k z_{k+1}) = 1.
  EXPECT_NEAR(m1, 0.0, 5.0 * std::sqrt(1.0 / n));
  EXPECT_NEAR(m2, 1.0, 5.0 * std::sqrt(2.0 / n));
  EXPECT_NEAR(m4, 3.0, 5.0 * std::sqrt(96.0 / n));
  EXPECT_NEAR(lag1, 0.0, 5.0 * std::sqrt(1.0 / n));

  // Shape: chi-square over the 202 cells, 201 degrees of freedom, whose
  // upper 1e-6 critical value is 311.07.
  double chi2 = 0.0;
  for (int b = 0; b < kBins + 2; ++b) {
    const double lo = b == 0 ? -INFINITY : kLo + (b - 1) * kWidth;
    const double hi = b == kBins + 1 ? INFINITY : kLo + b * kWidth;
    const double expect = n * (normal_cdf(hi) - normal_cdf(lo));
    const double d = static_cast<double>(hist[static_cast<std::size_t>(b)]) - expect;
    chi2 += d * d / expect;
  }
  EXPECT_LT(chi2, 311.07) << "chi-square " << chi2;

  // Both slow branches run, at their expected rates: the tail supplies every
  // |z| > r (P = 2.6e-4), and about 1% of draws settle in a wedge.
  const double p_tail = 2.0 * normal_cdf(-kR);
  EXPECT_NEAR(static_cast<double>(tail), n * p_tail, 5.0 * std::sqrt(n * p_tail));
  EXPECT_GT(wedge, kDraws / 1000) << "wedge accepts " << wedge;
  EXPECT_LT(engine.words, kDraws + kDraws / 20) << "too few draws take the fast path";
}

// ------------------------------------------------------------ block draws

// Blocks of every shape the fast path's four-word steps and the engine's
// 312-word twists can meet: below, at and just past one step, around one
// twist (311, 312, 313 samples are 622, 624 and 626 words), and a stream
// block; then random sizes.
constexpr std::size_t kFixedBlocks[] = {1, 2, 3, 4, 5, 7, 311, 312, 313, 4096};

struct BlockDrawCounts {
  std::uint64_t normals = 0;
  std::uint64_t wedge = 0;     // normals that left the fast path, tail aside
  std::uint64_t tail = 0;      // normals beyond r
  std::uint64_t straddles = 0;  // blocks whose words cross a twist
};

// Adds noise to the same input twice, once a block at a time with `add`
// and once with `per_sample` in a loop, over blocks of kFixedBlocks and then
// random sizes until `min_normals` normals are drawn. Every block must
// match under memcmp and leave both engines on the same next word. A
// shadow engine replays the normals one by one to count the wedge and tail
// draws the blocks contain and the twists they straddle.
template <typename T, typename Add, typename PerSample>
void check_block_draws(std::uint64_t seed, std::uint64_t min_normals, Add add,
                       PerSample per_sample, BlockDrawCounts& counts) {
  using C = std::complex<T>;
  constexpr double kR = 3.6541528853610088;
  const Ziggurat& zig = Ziggurat::tables();
  Rng block_rng(seed), loop_rng(seed), sizes(seed + 1), data(seed + 2);
  CountingEngine shadow{Mt19937_64(seed)};
  std::vector<C> base(4096), block(4096), loop(4096);
  for (auto& v : base) {
    const Complex d = data.cgaussian();
    v = {static_cast<T>(d.real()), static_cast<T>(d.imag())};
  }
  for (std::size_t b = 0; counts.normals < min_normals; ++b) {
    const std::size_t n = b < std::size(kFixedBlocks) ? kFixedBlocks[b] : 1 + sizes.index(4096);
    std::copy_n(base.begin(), n, block.begin());
    std::copy_n(base.begin(), n, loop.begin());
    add(block_rng, std::span<C>(block.data(), n));
    for (std::size_t i = 0; i < n; ++i) loop[i] += per_sample(loop_rng);
    ASSERT_EQ(std::memcmp(block.data(), loop.data(), n * sizeof(C)), 0)
        << "seed " << seed << " block " << b << " of " << n << " samples";
    Mt19937_64 block_next = block_rng.engine(), loop_next = loop_rng.engine();
    ASSERT_EQ(block_next(), loop_next()) << "seed " << seed << " block " << b;

    const std::uint64_t first_word = shadow.words;
    for (std::size_t k = 0; k < 2 * n; ++k) {
      const std::uint64_t before = shadow.words;
      const double z = zig(shadow);
      if (std::abs(z) > kR)
        ++counts.tail;
      else if (shadow.words - before > 1)
        ++counts.wedge;
    }
    if (first_word / 312 != (shadow.words - 1) / 312) ++counts.straddles;
    counts.normals += 2 * n;
  }
}

// Four seeds of at least 650,000 normals each: 2.6 million per test, over
// 10^7 across the four tests below.
template <typename T, typename Add, typename PerSample>
void check_block_draws_at_four_seeds(Add add, PerSample per_sample) {
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{1234},
                                   std::uint64_t{20140817}}) {
    BlockDrawCounts c;
    check_block_draws<T>(seed, 650'000, add, per_sample, c);
    if (testing::Test::HasFatalFailure()) return;
    // About 1.2% of normals leave the fast path and 2.6e-4 reach the tail.
    EXPECT_GT(c.wedge, c.normals / 200) << "seed " << seed;
    EXPECT_GT(c.tail, c.normals / 10'000) << "seed " << seed;
    EXPECT_GT(c.straddles, 100u) << "seed " << seed;
  }
}

constexpr double kVariance = 0.37;
constexpr float kVariance32 = 1e-3f;

TEST(ZigguratBlock, AddsThePerSampleDrawsAtF64) {
  check_block_draws_at_four_seeds<double>(
      [](Rng& rng, CMutSpan x) { dsp::add_cgaussian_zig(rng, x, kVariance); },
      [](Rng& rng) { return rng.cgaussian_zig(kVariance); });
}

TEST(ZigguratBlock, AddsThePerSampleDrawsAtF32) {
  check_block_draws_at_four_seeds<float>(
      [](Rng& rng, CMutSpan32 x) { dsp::add_cgaussian_zig(rng, x, kVariance32); },
      [](Rng& rng) { return rng.cgaussian32(kVariance32); });
}

TEST(ZigguratBlock, ScalarReferenceAddsThePerSampleDrawsAtF64) {
  check_block_draws_at_four_seeds<double>(
      [](Rng& rng, CMutSpan x) { dsp::scalar::add_cgaussian_zig(rng, x, kVariance); },
      [](Rng& rng) { return rng.cgaussian_zig(kVariance); });
}

TEST(ZigguratBlock, ScalarReferenceAddsThePerSampleDrawsAtF32) {
  check_block_draws_at_four_seeds<float>(
      [](Rng& rng, CMutSpan32 x) { dsp::scalar::add_cgaussian_zig(rng, x, kVariance32); },
      [](Rng& rng) { return rng.cgaussian32(kVariance32); });
}

}  // namespace
}  // namespace ff
