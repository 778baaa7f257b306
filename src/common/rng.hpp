// Deterministic random number generation. Every stochastic component in the
// simulator draws from an Rng seeded explicitly by the experiment, so all
// results are reproducible bit-for-bit.
//
// Under every Rng is Mt19937_64, an in-repo engine whose output the C++
// standard fixes: it yields exactly what std::mt19937_64 yields, so every
// std distribution run on it draws the same values as before, only cheaper.
//
// Two normals sit on that engine, and each caller uses one on purpose:
// - gaussian() and cgaussian() are std::normal_distribution. Link synthesis
//   (and with it examples/relay.ff), the experiment and city checksums and
//   dsp::awgn draw from them; several tests are tuned to those exact draws,
//   so they keep their algorithm.
// - cgaussian_zig() is a 256-layer ziggurat, about four times cheaper per
//   complex sample. cgaussian32() is its narrowing, so an f32 draw is the
//   f64 draw rounded to float. The stream Channel element adds the same
//   draws a block at a time, in both precisions, through
//   dsp::add_cgaussian_zig (dsp/noise.hpp): it runs the ziggurat's one-word
//   fast path as a kernel op over Mt19937_64::pending() words and leaves
//   every rejected word to Ziggurat::operator(), so it adds bit for bit
//   what a cgaussian_zig() / cgaussian32() loop adds and leaves the engine
//   on the same next word.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <string_view>

#include "common/check.hpp"
#include "common/types.hpp"

namespace ff {

/// FNV-1a 64-bit string hash. Used wherever a seed is derived from a name
/// (floor plans, scheme labels): unlike std::hash, the value is pinned by
/// this implementation, so forked RNG streams — and therefore every figure —
/// are identical across standard libraries and platforms.
constexpr std::uint64_t fnv1a_64(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// The standard's mt19937_64 ([rand.predef]): 312 words of state, seeded as
/// [rand.eng.mers] defines it and tempered on each draw, so its output is
/// std::mt19937_64's draw for draw. The twist's "odd ? a : 0" is a mask
/// rather than a branch on a random bit, which is what makes it cheaper.
/// Meets UniformRandomBitGenerator, so std distributions run on it unchanged.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type default_seed = 5489u;

  explicit Mt19937_64(result_type seed = default_seed) {
    state_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i)
      state_[i] = 6364136223846793005ULL * (state_[i - 1] ^ (state_[i - 1] >> 62)) + i;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (next_ >= kN) twist();
    return temper(state_[next_++]);
  }

  /// The output transform applied to each state word as it is drawn.
  static constexpr result_type temper(result_type z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

  /// The untempered state words the next draws will temper, in draw order:
  /// the rest of the current twist, twisting first when it is spent, so
  /// the span is never empty. A block draw tempers them itself and then
  /// marks the ones it used with mark_drawn().
  std::span<const result_type> pending() {
    if (next_ >= kN) twist();
    return {state_.data() + next_, kN - next_};
  }

  /// Marks the first n words of pending() drawn: the engine then stands
  /// where n calls of operator() would have left it.
  void mark_drawn(std::size_t n) {
    FF_CHECK_MSG(n <= kN - next_, "Mt19937_64::mark_drawn past the pending words");
    next_ += n;
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;

  static result_type mix(result_type upper, result_type lower, result_type far) {
    constexpr result_type kUpperMask = ~result_type{0} << 31;
    const result_type y = (upper & kUpperMask) | (lower & ~kUpperMask);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & 0xB5026F5AA96619E9ULL);
  }

  void twist() {
    std::size_t k = 0;
    for (; k < kN - kM; ++k) state_[k] = mix(state_[k], state_[k + 1], state_[k + kM]);
    for (; k < kN - 1; ++k) state_[k] = mix(state_[k], state_[k + 1], state_[k + kM - kN]);
    state_[kN - 1] = mix(state_[kN - 1], state_[0], state_[kM - 1]);
    next_ = 0;
  }

  std::array<result_type, kN> state_;
  std::size_t next_ = kN;
};

/// Marsaglia & Tsang's 256-layer ziggurat for the standard normal (J. Stat.
/// Softw. 5(8), 2000). Layer i is the rectangle of half-width x[i] between
/// heights f[i] and f[i+1], f = exp(-x^2/2); layer 0 is the base strip,
/// whose area beyond x[1] = r is the tail. Every layer has area v.
class Ziggurat {
 public:
  static constexpr std::size_t kLayers = 256;

  static const Ziggurat& tables() {
    static const Ziggurat z;
    return z;
  }

  /// One standard normal from any 64-bit UniformRandomBitGenerator. Each
  /// attempt spends one engine word: its low 8 bits pick the layer, its top
  /// 53 bits a uniform u in [-1, 1). About 99% of attempts land inside
  /// their layer's inner rectangle and return at once; the rest spend more
  /// words on the wedge test or the tail.
  template <class Engine>
  double operator()(Engine& engine) const {
    for (;;) {
      const std::uint64_t w = engine();
      const std::size_t i = w & 0xFF;
      const double u = static_cast<double>(w >> 11) * 0x1p-52 - 1.0;
      const double z = u * x_[i];
      if (std::abs(z) < x_[i + 1]) return z;
      if (i == 0) return tail(engine, u);
      if (f_[i + 1] + (f_[i] - f_[i + 1]) * uniform(engine) < std::exp(-0.5 * z * z))
        return z;
    }
  }

  /// The layer half-widths x[0..256] (x[1] = r, x[256] = 0): the table
  /// the fast path reads, x[i] to form z and x[i + 1] to test it.
  const std::array<double, kLayers + 1>& layers() const { return x_; }

 private:
  static constexpr double kR = 3.6541528853610088;
  static constexpr double kV = 0.00492867323399;

  Ziggurat() {
    const auto f = [](double x) { return std::exp(-0.5 * x * x); };
    x_[0] = kV / f(kR);
    x_[1] = kR;
    for (std::size_t i = 2; i < kLayers; ++i)
      x_[i] = std::sqrt(-2.0 * std::log(kV / x_[i - 1] + f(x_[i - 1])));
    x_[kLayers] = 0.0;
    for (std::size_t i = 0; i <= kLayers; ++i) f_[i] = f(x_[i]);
  }

  /// Uniform in (0, 1): never 0, so its log is finite.
  template <class Engine>
  static double uniform(Engine& engine) {
    return (static_cast<double>(engine() >> 11) + 0.5) * 0x1p-53;
  }

  /// Marsaglia's exact draw from the normal tail beyond r, signed like u.
  template <class Engine>
  static double tail(Engine& engine, double u) {
    double x, y;
    do {
      x = -std::log(uniform(engine)) / kR;
      y = -std::log(uniform(engine));
    } while (y + y < x * x);
    return u < 0.0 ? -(kR + x) : kR + x;
  }

  std::array<double, kLayers + 1> x_;
  std::array<double, kLayers + 1> f_;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) : engine_(seed) {}

  /// Uniform in [0, 1).
  double uniform() { return uniform_(engine_); }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). `n` must be positive: n == 0 would build a
  /// uniform_int_distribution with hi < lo, whose behavior is undefined.
  std::size_t index(std::size_t n) {
    FF_CHECK_MSG(n > 0, "Rng::index needs a non-empty range");
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
  }

  /// Standard normal (std::normal_distribution).
  double gaussian() { return normal_(engine_); }

  /// Zero-mean circularly-symmetric complex Gaussian with E[|x|^2] = variance.
  Complex cgaussian(double variance = 1.0) {
    const double s = std::sqrt(variance / 2.0);
    return {s * gaussian(), s * gaussian()};
  }

  /// The same distribution as cgaussian() from the ziggurat: a different,
  /// cheaper draw sequence. The real part is drawn first.
  Complex cgaussian_zig(double variance = 1.0) {
    const Ziggurat& zig = Ziggurat::tables();
    const double s = std::sqrt(variance / 2.0);
    const double re = zig(engine_);
    const double im = zig(engine_);
    return {s * re, s * im};
  }

  /// cgaussian_zig() rounded to float: the float32 channel's noise, the
  /// same draws as the f64 channel's.
  Complex32 cgaussian32(float variance = 1.0f) {
    const Complex z = cgaussian_zig(variance);
    return {static_cast<float>(z.real()), static_cast<float>(z.imag())};
  }

  /// Random phase point on the unit circle.
  Complex unit_phasor() {
    const double phi = uniform(0.0, 6.283185307179586);
    return {std::cos(phi), std::sin(phi)};
  }

  bool bernoulli(double p) { return uniform() < p; }

  /// Derive an independent child generator (stable given the same label).
  Rng fork(std::uint64_t label) {
    return Rng(engine_() ^ (label * 0x9E3779B97F4A7C15ULL));
  }

  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
  std::uniform_real_distribution<double> uniform_{0.0, 1.0};
  std::normal_distribution<double> normal_{0.0, 1.0};
};

}  // namespace ff
