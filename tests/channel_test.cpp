// Tests for the channel substrate: multipath, floor plans, propagation,
// MIMO structure, CFO.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "channel/cfo.hpp"
#include "channel/floorplan.hpp"
#include "channel/mimo.hpp"
#include "channel/multipath.hpp"
#include "channel/pathloss.hpp"
#include "channel/propagation.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "dsp/correlation.hpp"
#include "dsp/fir.hpp"
#include "dsp/kernels/kernels.hpp"
#include "dsp/kernels/workspace.hpp"
#include "dsp/noise.hpp"
#include "linalg/matrix.hpp"

namespace ff {
namespace {

constexpr double kFc = 2.45e9;
constexpr double kFs = 20e6;

// ---------------------------------------------------------- multipath

TEST(Multipath, SinglePathResponseHasExpectedPhase) {
  const double delay = 100e-9;
  const auto ch = channel::MultipathChannel::single_path(0.5, delay, kFc);
  const Complex h0 = ch.response(0.0);
  EXPECT_NEAR(std::abs(h0), 0.5, 1e-12);
  EXPECT_NEAR(std::arg(h0), std::remainder(-kTwoPi * kFc * delay, kTwoPi), 1e-9);
  // 100 ps extra delay rotates ~88 degrees at 2.45 GHz.
  const auto ch2 = channel::MultipathChannel::single_path(0.5, delay + 100e-12, kFc);
  const double dphi = std::remainder(std::arg(ch2.response(0.0)) - std::arg(h0), kTwoPi);
  EXPECT_NEAR(std::abs(dphi), kTwoPi * kFc * 100e-12, 1e-6);
}

TEST(Multipath, PowerGainSumsTaps) {
  channel::MultipathChannel ch({{0.0, {0.6, 0.0}}, {50e-9, {0.0, 0.8}}}, kFc);
  EXPECT_NEAR(ch.power_gain(), 0.36 + 0.64, 1e-12);
}

TEST(Multipath, FirMatchesFrequencyResponse) {
  // The discretized FIR's DFT should match the analytic response in-band.
  // Discretize with an alignment lead so the sub-sample taps keep their full
  // two-sided interpolation kernels, then de-rotate the lead.
  channel::MultipathChannel ch({{30e-9, {0.7, 0.1}}, {180e-9, {-0.2, 0.3}}}, kFc);
  const double lead = 16.0;
  const CVec fir = ch.to_fir(kFs, -lead / kFs);
  for (const double f : {-8e6, -3e6, 1e6, 6e6}) {
    const Complex direct = ch.response(f);
    const double ang = kTwoPi * f / kFs * lead;
    const Complex viafir =
        dsp::freq_response(fir, f / kFs) * Complex{std::cos(ang), std::sin(ang)};
    EXPECT_NEAR(std::abs(direct - viafir), 0.0, 0.02 * std::abs(direct) + 1e-4) << f;
  }
}

TEST(Multipath, ApplyDelaysSignal) {
  Rng rng(3);
  const double delay_samples = 7.0;
  const auto ch =
      channel::MultipathChannel::single_path(1.0, delay_samples / kFs, kFc);
  CVec x = dsp::awgn(rng, 100, 1.0);
  const CVec y = ch.apply(x, kFs);
  // y[n] = e^{-j2pi fc tau} x[n-7]
  const Complex rot = ch.response(0.0);
  for (std::size_t i = 20; i < 90; ++i)
    EXPECT_NEAR(std::abs(y[i] - rot * x[i - 7]), 0.0, 1e-6);
}

TEST(Multipath, ScaledAndDelayedCompose) {
  channel::MultipathChannel ch({{10e-9, {0.5, 0.5}}}, kFc);
  const auto s = ch.scaled(2.0);
  EXPECT_NEAR(s.power_gain(), 4.0 * ch.power_gain(), 1e-12);
  const auto d = ch.delayed(25e-9);
  EXPECT_NEAR(d.min_delay_s(), 35e-9, 1e-15);
}

TEST(Multipath, CombineIsPathUnion) {
  channel::MultipathChannel a({{0.0, {1.0, 0.0}}}, kFc);
  channel::MultipathChannel b({{50e-9, {0.5, 0.0}}}, kFc);
  const auto c = channel::MultipathChannel::combine(a, b);
  EXPECT_EQ(c.taps().size(), 2u);
  for (const double f : {-5e6, 2e6})
    EXPECT_NEAR(std::abs(c.response(f) - (a.response(f) + b.response(f))), 0.0, 1e-12);
}

// ---------------------------------------------------------- path loss

TEST(PathLoss, FreeSpaceAt2G4) {
  // Classic figure: ~40 dB at 1 m for 2.4 GHz.
  EXPECT_NEAR(channel::free_space_loss_db(1.0, 2.45e9), 40.2, 0.5);
  // +6 dB per doubling.
  EXPECT_NEAR(channel::free_space_loss_db(2.0, 2.45e9) -
                  channel::free_space_loss_db(1.0, 2.45e9),
              6.0, 0.1);
}

TEST(PathLoss, LogDistanceExponentControlsSlope) {
  const double l1 = channel::log_distance_loss_db(10.0, kFc, 2.0);
  const double l2 = channel::log_distance_loss_db(10.0, kFc, 4.0);
  EXPECT_NEAR(l2 - l1, 20.0, 0.1);  // 10*(4-2)*log10(10)
}

// ---------------------------------------------------------- floor plan

TEST(FloorPlan, SegmentIntersectionBasics) {
  const auto hit = channel::segment_intersection({0, 0}, {2, 2}, {0, 2}, {2, 0});
  ASSERT_TRUE(hit.has_value());
  EXPECT_NEAR(hit->x, 1.0, 1e-12);
  EXPECT_NEAR(hit->y, 1.0, 1e-12);
  EXPECT_FALSE(channel::segment_intersection({0, 0}, {1, 0}, {0, 1}, {1, 1}).has_value());
  // Parallel segments never intersect.
  EXPECT_FALSE(channel::segment_intersection({0, 0}, {1, 0}, {0, 1}, {1, 1}).has_value());
}

TEST(FloorPlan, MirrorAcrossWall) {
  const channel::Wall w{{0, 1}, {10, 1}, 3.0, 0.3};
  const auto m = channel::mirror_across({3, 4}, w);
  EXPECT_NEAR(m.x, 3.0, 1e-12);
  EXPECT_NEAR(m.y, -2.0, 1e-12);
}

TEST(FloorPlan, HomeWallCrossingCounts) {
  const auto home = channel::FloorPlan::paper_home();
  // Living room to bedroom crosses the interior wall once.
  EXPECT_EQ(home.wall_crossings({1.0, 1.0}, {1.0, 5.0}), 1);
  // Through the door gap: no interior crossing.
  EXPECT_EQ(home.wall_crossings({4.7, 1.0}, {4.7, 4.0}), 0);
  // Within the living room: no crossings.
  EXPECT_EQ(home.wall_crossings({1.0, 1.0}, {7.0, 2.0}), 0);
}

TEST(FloorPlan, ReflectionsExistInsideRooms) {
  const auto home = channel::FloorPlan::paper_home();
  const auto refl = home.first_order_reflections({1.0, 1.0}, {6.0, 2.0});
  EXPECT_GE(refl.size(), 2u);
  for (const auto& r : refl) {
    EXPECT_GT(r.path_length_m, channel::distance({1.0, 1.0}, {6.0, 2.0}));
    EXPECT_GT(r.reflectivity, 0.0);
  }
}

TEST(FloorPlan, EvaluationSetHasFourLayouts) {
  const auto set = channel::FloorPlan::evaluation_set();
  ASSERT_EQ(set.size(), 4u);
  for (const auto& plan : set) {
    EXPECT_GT(plan.width(), 5.0);
    EXPECT_GT(plan.height(), 5.0);
    EXPECT_GE(plan.walls().size(), 4u);
  }
}

// ---------------------------------------------------------- propagation

TEST(Propagation, SnrRegimesMatchPaperHeatmap) {
  // Fig. 1 calibration: near the AP 25+ dB, mid-home low-teens, far corner
  // single digits (20 dBm TX, -90 dBm floor). Averages over realizations.
  const auto home = channel::FloorPlan::paper_home();
  const channel::IndoorPropagation model(home);
  const channel::Point ap{0.7, 0.65};

  const auto mean_snr = [&](channel::Point rx) {
    double acc = 0.0;
    const int reps = 40;
    Rng rng(77);
    for (int i = 0; i < reps; ++i) {
      const auto ch = model.siso_link(ap, rx, rng);
      acc += 20.0 + ch.power_gain_db() + 90.0;
    }
    return acc / reps;
  };

  const double near = mean_snr({1.6, 1.3});
  const double mid = mean_snr({4.8, 3.0});
  const double far = mean_snr({8.4, 6.0});
  EXPECT_GT(near, 24.0);
  EXPECT_GT(mid, 8.0);
  EXPECT_LT(mid, 22.0);
  EXPECT_LT(far, 10.0);
  EXPECT_GT(near, mid);
  EXPECT_GT(mid, far);
}

TEST(Propagation, DelaysAreConsistentWithGeometry) {
  const auto home = channel::FloorPlan::paper_home();
  const channel::IndoorPropagation model(home);
  Rng rng(5);
  const auto ch = model.siso_link({1.0, 1.0}, {7.0, 5.0}, rng);
  const double d = channel::distance({1.0, 1.0}, {7.0, 5.0});
  EXPECT_NEAR(ch.min_delay_s(), d / kSpeedOfLight, 1e-9);
  // All delays within the plan's physical scale plus diffuse tail.
  EXPECT_LT(ch.max_delay_s(), 400e-9);
}

TEST(Propagation, MimoRankDegradesThroughPinhole) {
  // L-corridor: a client deep in a room across the corridor sees nearly all
  // energy through one aperture -> low rank. A client in the same room as
  // the AP sees many distinct paths -> higher rank. Compare the ratio of
  // singular values averaged over realizations.
  const auto plan = channel::FloorPlan::l_corridor();
  const channel::IndoorPropagation model(plan);
  const channel::Point ap{1.1, 0.9};

  const auto mean_sv_ratio = [&](channel::Point rx) {
    Rng rng(11);
    double acc = 0.0;
    const int reps = 30;
    for (int i = 0; i < reps; ++i) {
      const auto ch = model.link(ap, rx, 2, 2, rng);
      const auto sv = linalg::singular_values(ch.response(0.0));
      acc += sv[1] / std::max(sv[0], 1e-30);
    }
    return acc / reps;
  };

  const double same_room = mean_sv_ratio({3.0, 2.5});
  const double through_corridor = mean_sv_ratio({11.5, 8.0});
  EXPECT_GT(same_room, through_corridor);
}

TEST(Propagation, UlaSteeringHasUnitMagnitude) {
  const CVec v = channel::ula_steering(4, 0.7, 0.5);
  ASSERT_EQ(v.size(), 4u);
  for (const Complex e : v) EXPECT_NEAR(std::abs(e), 1.0, 1e-12);
  EXPECT_NEAR(std::abs(v[0] - Complex{1.0, 0.0}), 0.0, 1e-12);
}

// ---------------------------------------------------------- MIMO channel

TEST(MimoChannel, SinglePathIsRankOne) {
  channel::MimoPath p;
  p.delay_s = 20e-9;
  p.amp = {0.1, 0.0};
  p.rx_steering = channel::ula_steering(2, 0.3, 0.5);
  p.tx_steering = channel::ula_steering(2, -0.4, 0.5);
  const channel::MimoChannel ch(2, 2, {p}, kFc);
  EXPECT_EQ(linalg::rank(ch.response(0.0), 1e-6), 1u);
}

TEST(MimoChannel, TwoDistinctPathsGiveRankTwo) {
  channel::MimoPath p1, p2;
  p1.delay_s = 20e-9;
  p1.amp = {0.1, 0.0};
  p1.rx_steering = channel::ula_steering(2, 0.9, 0.5);
  p1.tx_steering = channel::ula_steering(2, -0.2, 0.5);
  p2.delay_s = 90e-9;
  p2.amp = {0.08, 0.02};
  p2.rx_steering = channel::ula_steering(2, -0.8, 0.5);
  p2.tx_steering = channel::ula_steering(2, 1.1, 0.5);
  const channel::MimoChannel ch(2, 2, {p1, p2}, kFc);
  EXPECT_EQ(linalg::rank(ch.response(0.0), 1e-4), 2u);
}

TEST(MimoChannel, SubchannelMatchesMatrixEntry) {
  const auto plan = channel::FloorPlan::paper_home();
  const channel::IndoorPropagation model(plan);
  Rng rng(9);
  const auto ch = model.link({1, 1}, {6, 4}, 2, 2, rng);
  const auto h = ch.response(3e6);
  const auto sub = ch.subchannel(1, 0);
  EXPECT_NEAR(std::abs(h(1, 0) - sub.response(3e6)), 0.0, 1e-12);
}

TEST(MimoChannel, FromSisoRoundTrips) {
  channel::MultipathChannel siso({{15e-9, {0.3, -0.2}}}, kFc);
  const auto mimo = channel::MimoChannel::from_siso(siso);
  EXPECT_EQ(mimo.n_rx(), 1u);
  EXPECT_EQ(mimo.n_tx(), 1u);
  EXPECT_NEAR(std::abs(mimo.response(1e6)(0, 0) - siso.response(1e6)), 0.0, 1e-12);
}

// ---------------------------------------------------------- CFO

TEST(Cfo, RotatorAppliesExpectedFrequency) {
  const double cfo = 30e3;
  channel::CfoRotator rot(cfo, kFs);
  CVec ones(100, Complex{1.0, 0.0});
  const CVec y = rot.process(ones);
  // Phase advances 2 pi f / fs per sample.
  const double step = kTwoPi * cfo / kFs;
  for (std::size_t i = 1; i < y.size(); ++i) {
    const double dphi = std::remainder(std::arg(y[i]) - std::arg(y[i - 1]), kTwoPi);
    EXPECT_NEAR(dphi, step, 1e-9);
  }
}

TEST(Cfo, ForwardBackwardCancels) {
  Rng rng(21);
  const CVec x = dsp::awgn(rng, 300, 1.0);
  const CVec rotated = channel::apply_cfo(x, 17e3, kFs, 0.4);
  const CVec back = channel::apply_cfo(rotated, -17e3, kFs, -0.4);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(back[i] - x[i]), 0.0, 1e-9);
}

TEST(Cfo, PhaseContinuityAcrossBlocks) {
  channel::CfoRotator rot(10e3, kFs);
  CVec a(50, Complex{1.0, 0.0}), b(50, Complex{1.0, 0.0});
  const CVec ya = rot.process(a);
  const CVec yb = rot.process(b);
  // The first sample of block b continues the phase ramp of block a.
  const double expected = std::remainder(std::arg(ya[49]) + kTwoPi * 10e3 / kFs, kTwoPi);
  EXPECT_NEAR(std::remainder(std::arg(yb[0]) - expected, kTwoPi), 0.0, 1e-9);
}

TEST(Cfo, ProcessIntoMatchesProcessAndSupportsAliasing) {
  Rng rng(41);
  CVec x(64);
  for (auto& v : x) v = rng.cgaussian();
  channel::CfoRotator a(17e3, 20e6), b(17e3, 20e6);
  const CVec expected = a.process(x);
  CVec inplace = x;
  b.process_into(inplace, inplace);
  EXPECT_EQ(inplace, expected);
  CVec wrong(x.size() - 1);
  EXPECT_THROW(b.process_into(x, wrong), std::logic_error);
}

TEST(Cfo, SetCfoRetunesWithPhaseContinuity) {
  const double fs = 20e6;
  channel::CfoRotator rot(25e3, fs);
  const CVec ones(50, Complex{1.0, 0.0});
  rot.process(ones);

  // Retune mid-stream: the accumulated phase must carry over — the output
  // from here on equals a fresh rotator at the new frequency whose initial
  // phase is exactly where the old one left off.
  const double phase_at_switch = rot.phase();
  rot.set_cfo(-40e3, fs);
  EXPECT_EQ(rot.cfo_hz(), -40e3);
  channel::CfoRotator ref(-40e3, fs, phase_at_switch);
  const CVec got = rot.process(ones);
  const CVec want = ref.process(ones);
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_NEAR(std::abs(got[i] - want[i]), 0.0, 1e-12) << "sample " << i;
}

TEST(Cfo, StepAboveSampleRateAliasesInBand) {
  // 3 fs + f rotates by the same angle per sample as f. Unless the rotator
  // reduces the step into (-pi, pi], its once-per-sample 2pi wrap cannot
  // keep up: the phase grows without bound and loses precision with it.
  const double fs = 80e6, f = 31.4e3;
  const CVec ones(std::size_t{1} << 20, Complex{1.0, 0.0});
  channel::CfoRotator aliased(3.0 * fs + f, fs), in_band(f, fs);
  const CVec a = aliased.process(ones);
  const CVec b = in_band.process(ones);
  double max_diff = 0.0;
  for (std::size_t i = 0; i < ones.size(); ++i)
    max_diff = std::max(max_diff, std::abs(a[i] - b[i]));
  EXPECT_LT(max_diff, 1e-8);
  EXPECT_LE(std::abs(aliased.phase()), kTwoPi);
}

// The f64 rotator as it ran before it shared the anchored phasor
// recurrence: one cos and one sin of the running phase per sample.
class PerSampleSincosRotator {
 public:
  PerSampleSincosRotator(double cfo_hz, double fs) { set_cfo(cfo_hz, fs); }
  void set_cfo(double cfo_hz, double fs) { step_rad_ = kTwoPi * cfo_hz / fs; }
  void process_into(CSpan x, CMutSpan out) {
    CMutSpan phasors = ws_.get(0, x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      phasors[i] = {std::cos(phase_), std::sin(phase_)};
      phase_ += step_rad_;
      if (phase_ > kTwoPi) phase_ -= kTwoPi;
      if (phase_ < -kTwoPi) phase_ += kTwoPi;
    }
    dsp::kernels::rotate_phasor(x, phasors, out);
  }

 private:
  double step_rad_ = 0.0;
  double phase_ = 0.0;
  dsp::kernels::Workspace ws_;
};

TEST(Cfo, F64TracksPerSampleSincos) {
  // Over 10^6 samples the recurrence phasors stay within 1e-12 of
  // per-sample sincos, including across a retune at a position that is
  // not an anchor (1000 % 256 != 0), where the recurrence carries on with
  // the new step until the next anchor.
  struct Case {
    double cfo_hz, fs, retune_hz;
  };
  constexpr Case kCases[] = {{4036.5, 80e6, -4036.5}, {31.4e3, 80e6, 12.5e3},
                             {31.4e3, 20e6, 900e3},   {-40e3, 20e6, 31.4e3},
                             {900e3, 20e6, -9.99e6},  {9.99e6, 20e6, -40e3}};
  constexpr std::size_t kSamples = 1000000, kRetuneAt = 1000, kBlock = 4096;
  const CVec ones(kBlock, Complex{1.0, 0.0});
  CVec got(kBlock), want(kBlock);
  for (const Case& c : kCases) {
    channel::CfoRotator rot(c.cfo_hz, c.fs);
    PerSampleSincosRotator ref(c.cfo_hz, c.fs);
    double max_dev = 0.0;
    for (std::size_t pos = 0; pos < kSamples;) {
      if (pos == kRetuneAt) {
        rot.set_cfo(c.retune_hz, c.fs);
        ref.set_cfo(c.retune_hz, c.fs);
      }
      const std::size_t end = std::min(kSamples, pos < kRetuneAt ? kRetuneAt : pos + kBlock);
      const std::size_t n = end - pos;
      rot.process_into(CSpan{ones.data(), n}, CMutSpan{got.data(), n});
      ref.process_into(CSpan{ones.data(), n}, CMutSpan{want.data(), n});
      for (std::size_t i = 0; i < n; ++i) max_dev = std::max(max_dev, std::abs(got[i] - want[i]));
      pos = end;
    }
    EXPECT_LE(max_dev, 1e-12) << "cfo=" << c.cfo_hz << " fs=" << c.fs;
  }
}

TEST(Cfo, F32PhasorsAreNarrowedF64) {
  // Both widths read one phasor stream: a rotator alternating f64 and f32
  // blocks emits, block for block, what an all-f64 rotator emits — exactly
  // in its f64 blocks, rounded to float in its f32 blocks.
  const double fs = 20e6, cfo = 31.4e3;
  constexpr std::size_t kSizes[] = {1, 7, 300};
  constexpr std::size_t kBlocks = 24;  // 4 x 616 samples: crosses 9 anchors
  std::size_t total = 0;
  for (std::size_t b = 0; b < kBlocks; ++b) total += kSizes[b % 3];

  channel::CfoRotator all_f64(cfo, fs), mixed(cfo, fs);
  const CVec reference = all_f64.process(CVec(total, Complex{1.0, 0.0}));
  dsp::kernels::Workspace ws;
  std::size_t pos = 0;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    const std::size_t n = kSizes[b % 3];
    const CSpan want{reference.data() + pos, n};
    if (b % 2 == 0) {
      const CVec got = mixed.process(CVec(n, Complex{1.0, 0.0}));
      EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(Complex)), 0)
          << "f64 block " << b << " at sample " << pos;
    } else {
      const CVec32 ones32(n, Complex32{1.0f, 0.0f});
      CVec32 got(n), narrowed(n);
      mixed.process_into(ones32, got, ws);
      dsp::kernels::narrow(want, narrowed);
      EXPECT_EQ(std::memcmp(got.data(), narrowed.data(), n * sizeof(Complex32)), 0)
          << "f32 block " << b << " at sample " << pos;
    }
    pos += n;
  }
  EXPECT_EQ(mixed.phase(), all_f64.phase());
}

}  // namespace
}  // namespace ff
