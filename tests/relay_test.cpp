// Tests for the FastForward relay core: CNF filter design (SISO + MIMO),
// the analog rotator, the digital/analog split, amplification control, the
// forward pipeline and the channel book.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string_view>

#include "channel/cfo.hpp"
#include "channel/multipath.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "dsp/fir.hpp"
#include "dsp/noise.hpp"
#include "phy/params.hpp"
#include "relay/amplification.hpp"
#include "relay/analog_cnf.hpp"
#include "relay/channel_book.hpp"
#include "relay/cnf_design.hpp"
#include "relay/design.hpp"
#include "relay/digital_prefilter.hpp"
#include "relay/pipeline.hpp"

namespace ff {
namespace {

CVec random_unit_responses(Rng& rng, std::size_t n) {
  CVec out(n);
  for (auto& v : out) v = rng.unit_phasor() * rng.uniform(0.5, 1.5);
  return out;
}

linalg::Matrix random_square(Rng& rng, std::size_t k) {
  linalg::Matrix m(k, k);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < k; ++j) m(i, j) = rng.cgaussian();
  return m;
}

bool same_bits(CSpan a, CSpan b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0;
}

bool same_bits(const linalg::Matrix& a, const linalg::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() && same_bits(a.data(), b.data());
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool same_bits(Complex a, Complex b) { return std::memcmp(&a, &b, sizeof(Complex)) == 0; }

// ---------------------------------------------------------- SISO CNF

TEST(CnfSiso, IdealFilterAlignsEverySubcarrier) {
  Rng rng(1);
  const std::size_t n = 56;
  const CVec h_sd = random_unit_responses(rng, n);
  const CVec h_sr = random_unit_responses(rng, n);
  const CVec h_rd = random_unit_responses(rng, n);
  const CVec f = relay::cnf_siso_ideal(h_sd, h_sr, h_rd);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(f[i]), 1.0, 1e-12);  // pure rotation
    const Complex relayed = h_rd[i] * f[i] * h_sr[i];
    // Aligned: the relayed term's phase matches the direct term's.
    EXPECT_NEAR(std::remainder(std::arg(relayed) - std::arg(h_sd[i]), kTwoPi), 0.0, 1e-9);
  }
}

TEST(CnfSiso, CombinedMagnitudeIsCoherentSum) {
  Rng rng(2);
  const std::size_t n = 56;
  const CVec h_sd = random_unit_responses(rng, n);
  const CVec h_sr = random_unit_responses(rng, n);
  const CVec h_rd = random_unit_responses(rng, n);
  const CVec f = relay::cnf_siso_ideal(h_sd, h_sr, h_rd);
  const double a = 2.0;
  const CVec combined = relay::combined_channel_siso(h_sd, h_sr, h_rd, f, a);
  for (std::size_t i = 0; i < n; ++i) {
    const double expect = std::abs(h_sd[i]) + a * std::abs(h_rd[i] * h_sr[i]);
    EXPECT_NEAR(std::abs(combined[i]), expect, 1e-9);
  }
}

TEST(CnfSiso, WithoutFilterCombiningCanBeDestructive) {
  // The Fig. 5 contrast: pick channels where the un-filtered relayed path
  // opposes the direct one.
  const CVec h_sd{Complex{1.0, 0.0}};
  const CVec h_sr{Complex{1.0, 0.0}};
  const CVec h_rd{Complex{-0.9, 0.0}};  // opposite phase
  const CVec no_filter{Complex{1.0, 0.0}};
  const CVec destructive = relay::combined_channel_siso(h_sd, h_sr, h_rd, no_filter, 1.0);
  EXPECT_NEAR(std::abs(destructive[0]), 0.1, 1e-12);
  const CVec f = relay::cnf_siso_ideal(h_sd, h_sr, h_rd);
  const CVec constructive = relay::combined_channel_siso(h_sd, h_sr, h_rd, f, 1.0);
  EXPECT_NEAR(std::abs(constructive[0]), 1.9, 1e-12);
}

TEST(CnfSiso, DeadDirectPathStillGetsRelayedPower) {
  const CVec h_sd{Complex{0.0, 0.0}};
  const CVec h_sr{Complex{0.5, 0.5}};
  const CVec h_rd{Complex{0.0, -0.7}};
  const CVec f = relay::cnf_siso_ideal(h_sd, h_sr, h_rd);
  const CVec combined = relay::combined_channel_siso(h_sd, h_sr, h_rd, f, 1.0);
  EXPECT_NEAR(std::abs(combined[0]), std::abs(h_sr[0] * h_rd[0]), 1e-12);
}

// ---------------------------------------------------------- MIMO CNF

TEST(CnfMimo, UnitaryParameterizationIsUnitary) {
  Rng rng(3);
  for (const std::size_t k : {1u, 2u, 3u}) {
    std::vector<double> params(relay::unitary_param_count(k));
    for (auto& p : params) p = rng.uniform(-3.0, 3.0);
    const auto u = relay::unitary_from_params(params, k);
    const auto gram = u.adjoint() * u;
    EXPECT_NEAR((gram - linalg::Matrix::identity(k)).frobenius(), 0.0, 1e-10) << k;
  }
}

TEST(CnfMimo, BeatsIdentityFilter) {
  Rng rng(4);
  for (int trial = 0; trial < 6; ++trial) {
    linalg::Matrix h_sd(2, 2), h_sr(2, 2), h_rd(2, 2);
    for (std::size_t i = 0; i < 2; ++i)
      for (std::size_t j = 0; j < 2; ++j) {
        h_sd(i, j) = rng.cgaussian();
        h_sr(i, j) = rng.cgaussian();
        h_rd(i, j) = rng.cgaussian();
      }
    const auto r = relay::cnf_mimo_design(h_sd, h_sr, h_rd, 1.0);
    const auto identity_combined =
        relay::combined_channel_mimo(h_sd, h_sr, h_rd, linalg::Matrix::identity(2), 1.0);
    const double identity_det = std::abs(linalg::determinant(identity_combined));
    EXPECT_GE(r.objective, identity_det - 1e-6) << "trial " << trial;
    EXPECT_GE(r.objective, r.baseline - 1e-6) << "trial " << trial;
  }
}

TEST(CnfMimo, RestoresRankOfKeyholeDirectChannel) {
  Rng rng(5);
  // Rank-1 direct channel (pinhole), full-rank relay legs.
  linalg::Matrix u(2, 1), v(2, 1), h_sr(2, 2), h_rd(2, 2);
  u(0, 0) = rng.cgaussian();
  u(1, 0) = rng.cgaussian();
  v(0, 0) = rng.cgaussian();
  v(1, 0) = rng.cgaussian();
  const linalg::Matrix h_sd = u * v.adjoint();
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j) {
      h_sr(i, j) = rng.cgaussian();
      h_rd(i, j) = rng.cgaussian();
    }
  EXPECT_EQ(linalg::rank(h_sd, 1e-9), 1u);
  const auto r = relay::cnf_mimo_design(h_sd, h_sr, h_rd, 0.8);
  const auto combined = relay::combined_channel_mimo(h_sd, h_sr, h_rd, r.filter, 0.8);
  EXPECT_EQ(linalg::rank(combined, 1e-6), 2u);
  EXPECT_GT(r.objective, 10.0 * r.baseline);  // |det| lifted well off ~0
}

TEST(CnfMimo, WarmStartMatchesColdQuality) {
  Rng rng(6);
  linalg::Matrix h_sd(2, 2), h_sr(2, 2), h_rd(2, 2);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j) {
      h_sd(i, j) = rng.cgaussian();
      h_sr(i, j) = rng.cgaussian();
      h_rd(i, j) = rng.cgaussian();
    }
  const auto cold = relay::cnf_mimo_design(h_sd, h_sr, h_rd, 1.0);
  // Perturb the channels slightly (adjacent subcarrier) and warm start.
  h_sd(0, 0) += Complex{0.01, 0.01};
  const auto cold2 = relay::cnf_mimo_design(h_sd, h_sr, h_rd, 1.0);
  const auto warm = relay::cnf_mimo_design(h_sd, h_sr, h_rd, 1.0, &cold.params);
  EXPECT_GE(warm.objective, 0.97 * cold2.objective);
}

/// unitary_from_params written out with Matrix operators: a fresh identity
/// G per Givens rotation, then u = G * u.
linalg::Matrix unitary_reference(const std::vector<double>& params, std::size_t k) {
  std::size_t idx = 0;
  linalg::Matrix u(k, k);
  for (std::size_t i = 0; i < k; ++i) {
    const double phi = params[idx++];
    u(i, i) = Complex{std::cos(phi), std::sin(phi)};
  }
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t q = p + 1; q < k; ++q) {
      const double theta = params[idx++];
      const double phi = params[idx++];
      linalg::Matrix g = linalg::Matrix::identity(k);
      const double c = std::cos(theta), s = std::sin(theta);
      const Complex e{std::cos(phi), std::sin(phi)};
      g(p, p) = c;
      g(p, q) = -s * std::conj(e);
      g(q, p) = s * e;
      g(q, q) = c;
      u = g * u;
    }
  }
  return u;
}

TEST(CnfMimo, ObjectiveMatchesPublicFormulaBitForBit) {
  // The design evaluates its objective in storage it reuses; the value it
  // reports must equal, bit for bit, |det| of the public combined channel at
  // the reported filter, and of the same formula written with operators.
  Rng rng(9);
  const double a = 0.9;
  for (const std::size_t k : {1u, 2u, 3u, 4u}) {
    const linalg::Matrix h_sd = random_square(rng, k);
    const linalg::Matrix h_sr = random_square(rng, k);
    const linalg::Matrix h_rd = random_square(rng, k);
    linalg::Matrix h_sd_next = h_sd;  // the adjacent subcarrier
    h_sd_next(0, 0) += Complex{0.01, 0.01};
    const auto cold = relay::cnf_mimo_design(h_sd, h_sr, h_rd, a);
    const auto warm = relay::cnf_mimo_design(h_sd_next, h_sr, h_rd, a, &cold.params);
    const auto check = [&](const relay::CnfMimoResult& r, const linalg::Matrix& sd,
                           const char* what) {
      const double via_public = std::abs(
          linalg::determinant(relay::combined_channel_mimo(sd, h_sr, h_rd, r.filter, a)));
      const double via_operators =
          std::abs(linalg::determinant(sd + h_rd * r.filter * Complex{a, 0.0} * h_sr));
      EXPECT_TRUE(same_bits(r.objective, via_public)) << "k=" << k << " " << what;
      EXPECT_TRUE(same_bits(r.objective, via_operators)) << "k=" << k << " " << what;
      EXPECT_TRUE(same_bits(r.filter, relay::unitary_from_params(r.params, k)))
          << "k=" << k << " " << what;
      EXPECT_TRUE(same_bits(r.filter, unitary_reference(r.params, k))) << "k=" << k << " " << what;
    };
    check(cold, h_sd, "cold");
    check(warm, h_sd_next, "warm");
  }
}

// ---------------------------------------------------------- analog CNF

class AnalogRotations : public ::testing::TestWithParam<double> {};

TEST_P(AnalogRotations, SynthesizesTargetPhase) {
  const double theta = GetParam();
  relay::AnalogCnfFilter filter;
  const Complex target{0.8 * std::cos(theta), 0.8 * std::sin(theta)};
  const Complex achieved = filter.tune(target);
  EXPECT_NEAR(std::abs(achieved - target), 0.0, 0.05) << "theta " << theta;
  // Gains are physical: non-negative.
  for (const double g : filter.gains()) EXPECT_GE(g, 0.0);
}

INSTANTIATE_TEST_SUITE_P(FullCircle, AnalogRotations,
                         ::testing::Values(0.0, 0.7, 1.57, 2.5, 3.14, -2.0, -0.9, -3.0));

TEST(AnalogCnf, FrequencyFlatAcrossBand) {
  relay::AnalogCnfFilter filter;
  filter.tune(Complex{0.0, 1.0});
  const Complex centre = filter.response(0.0);
  for (const double f : {-10e6, -5e6, 5e6, 10e6}) {
    const Complex edge = filter.response(f);
    // ~1 degree of variation across +-10 MHz (300 ps of tap delay)...
    EXPECT_LT(std::abs(std::arg(edge / centre)), rad_from_deg(1.5));
  }
}

TEST(AnalogCnf, DelayBudgetIsSubNanosecond) {
  relay::AnalogCnfFilter filter;
  filter.tune(Complex{-0.5, -0.5});
  EXPECT_LE(filter.max_delay_s(), 0.4e-9);
}

// ---------------------------------------------------------- CNF split

TEST(CnfSplit, ApproximatesSmoothSelectiveTarget) {
  // A frequency-selective target (different rotation per subcarrier) needs
  // the digital pre-filter; the analog stage alone cannot follow it.
  const phy::OfdmParams params;
  const auto freqs = params.used_subcarrier_freqs();
  CVec target(freqs.size());
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    const double phase = 1.2 * std::sin(kTwoPi * freqs[i] / 20e6) + 0.4;
    target[i] = {std::cos(phase), std::sin(phase)};
  }
  const auto split = relay::design_cnf_split(target, freqs);
  const auto analog_only = relay::design_analog_only(target, freqs);
  EXPECT_LT(split.error_db, -7.0);
  EXPECT_LT(split.error_db, analog_only.error_db - 4.0);
}

TEST(CnfSplit, FlatTargetNeedsOnlyAnalog) {
  const phy::OfdmParams params;
  const auto freqs = params.used_subcarrier_freqs();
  const CVec target(freqs.size(), Complex{0.6, -0.6});
  const auto analog_only = relay::design_analog_only(target, freqs);
  EXPECT_LT(analog_only.error_db, -20.0);
}

TEST(CnfSplit, PrefilterDelayWithinBudget) {
  const phy::OfdmParams params;
  const auto freqs = params.used_subcarrier_freqs();
  Rng rng(7);
  const CVec target = random_unit_responses(rng, freqs.size());
  relay::CnfSplitConfig cfg;
  const auto split = relay::design_cnf_split(target, freqs, cfg);
  // 4 taps at 80 Msps: 37.5 ns of delay spread, within the 50 ns budget.
  EXPECT_LE(split.prefilter_delay_s(cfg.sample_rate_hz), 50e-9);
  EXPECT_EQ(split.prefilter.size(), 4u);
}

TEST(CnfSplit, TapEnergyStaysBounded) {
  // The dynamic-range constraint: even for adversarial (ramped) targets the
  // fit must not blow up the tap gains.
  const phy::OfdmParams params;
  const auto freqs = params.used_subcarrier_freqs();
  CVec target(freqs.size());
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    const double phase = kTwoPi * freqs[i] * 150e-9;  // steep advance ramp
    target[i] = {std::cos(phase), std::sin(phase)};
  }
  const auto split = relay::design_cnf_split(target, freqs);
  double energy = 0.0;
  for (const Complex t : split.prefilter) energy += std::norm(t);
  EXPECT_LT(energy, 200.0);
}

TEST(CnfSplit, ChainDelayToleranceMatchesOversampling) {
  // The design insight reproduced as a property: at the prototype's 80 Msps
  // the 4-tap pre-filter absorbs the ~50 ns ADC/DAC delay ramp; at critical
  // (20 Msps) sampling it cannot.
  const phy::OfdmParams params;
  const auto freqs = params.used_subcarrier_freqs();
  CVec target(freqs.size());
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    const double phase = kTwoPi * freqs[i] * 50e-9;
    target[i] = {std::cos(phase), std::sin(phase)};
  }
  relay::CnfSplitConfig oversampled;  // 80 Msps default
  relay::CnfSplitConfig critical;
  critical.sample_rate_hz = 20e6;
  const auto good = relay::design_cnf_split(target, freqs, oversampled);
  const auto bad = relay::design_cnf_split(target, freqs, critical);
  EXPECT_LT(good.error_db, bad.error_db - 3.0);
}

/// A frequency-selective target: a 40 ns delay ramp, a sinusoidal phase and
/// a magnitude ripple, so the split's fit, normalisation, projection and
/// attenuator clamps all act on it.
CVec selective_target(const std::vector<double>& freqs) {
  CVec t(freqs.size());
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    const double phase =
        kTwoPi * freqs[i] * 40e-9 + 0.9 * std::sin(kTwoPi * freqs[i] / 15e6) + 0.3;
    const double mag = 0.8 + 0.2 * std::cos(kTwoPi * freqs[i] / 9e6);
    t[i] = std::polar(mag, phase);
  }
  return t;
}

void expect_split_pinned(const relay::CnfSplit& split, const CVec& prefilter,
                         const std::vector<double>& gains, double error_db) {
  EXPECT_TRUE(same_bits(split.prefilter, prefilter)) << "prefilter taps";
  ASSERT_EQ(split.analog.gains().size(), gains.size());
  for (std::size_t k = 0; k < gains.size(); ++k)
    EXPECT_TRUE(same_bits(split.analog.gains()[k], gains[k])) << "analog gain " << k;
  EXPECT_TRUE(same_bits(split.error_db, error_db)) << "error_db " << split.error_db;
}

TEST(CnfSplit, OutputPinnedBitForBit) {
  // Recorded as hex floats when every response sweep of the split computed
  // its own phasors; the per-call phasor tables must keep every bit.
  // The 2x2 testbed's 56-subcarrier grid at the default 80 Msps:
  const auto freqs = phy::OfdmParams{}.used_subcarrier_freqs();
  ASSERT_EQ(freqs.size(), 56u);
  const auto split = relay::design_cnf_split(selective_target(freqs), freqs);
  expect_split_pinned(
      split,
      {{-0x1.ecdedbb73e9e4p-5, -0x1.8ba4d8a2ea658p+1},
       {0x1.a38799fadb79ep-5, 0x1.4888207f0e06ap+1},
       {0x1.4f7088492ed27p-5, 0x1.0ded8fed6332p+1},
       {-0x1.2466288d3c6e2p-5, -0x1.c64df8c49fc51p+0}},
      {0x0p+0, 0x0p+0, 0x1.e6cf7dbce77cp-4, 0x1.0819d7c3132edp-1}, -0x1.21998a9f998f9p+2);
  const CVec realized = {
      {0x1.2057358225c78p-2, -0x1.1a98c471e00f2p+0}, {0x1.fbd3cc436e172p-3, -0x1.0ad3b31359c0ap+0},
      {0x1.beb48cb5d0dc2p-3, -0x1.f65184c85f1acp-1}, {0x1.89062f1a8ab04p-3, -0x1.d751250acbf14p-1},
      {0x1.5a74efcc788eep-3, -0x1.b8c5804127773p-1}, {0x1.32a47e9c40cc4p-3, -0x1.9acb9f11c8618p-1},
      {0x1.1130c4635c59p-3, -0x1.7d7e3393d2257p-1}, {0x1.eb5d66288c451p-4, -0x1.60f5777ce43ep-1},
      {0x1.bf5a3dfabea69p-4, -0x1.45470e8d147efp-1}, {0x1.9d6b3fcedbebcp-4, -0x1.2a85ed610584cp-1},
      {0x1.849af15bd8886p-4, -0x1.10c244cb450dap-1}, {0x1.73ed07cd7221ep-4, -0x1.f012e39e96d9ap-2},
      {0x1.6a60485050b7p-4, -0x1.c0cbe4a2fe5ccp-2}, {0x1.66f06ceffe9dcp-4, -0x1.93bebd112108bp-2},
      {0x1.68980ad72e663p-4, -0x1.68f4ce6ac2b36p-2}, {0x1.6e52770271b73p-4, -0x1.4071b13f16c3ap-2},
      {0x1.771da6797d2eep-4, -0x1.1a33449aee825p-2}, {0x1.81fc072b53374p-4, -0x1.ec638d9fa5e6bp-3},
      {0x1.8df64e962691ep-4, -0x1.a8bfeec7d4b45p-3}, {0x1.9a1d3b746122cp-4, -0x1.695683ddd0596p-3},
      {0x1.a58b47bce4e3ap-4, -0x1.2df7e33600afap-3}, {0x1.af66485d3415ep-4, -0x1.ecd5b3cffd86ap-4},
      {0x1.b6e0f8308e8dep-4, -0x1.84d9e6894b6bp-4}, {0x1.bb3c6bd713fp-4, -0x1.23661e9028a43p-4},
      {0x1.bbc96c336d48dp-4, -0x1.8fa81c55c22ep-5}, {0x1.b7e9b57c3124ap-4, -0x1.c5baf3ab3587fp-6},
      {0x1.af1118f7eb564p-4, -0x1.f74027a1901e4p-8}, {0x1.a0c67fa7302c9p-4, 0x1.774f48edff3ecp-7},
      {0x1.725b9b88550ep-4, 0x1.886d5b50fdc3ap-5}, {0x1.51afe0a87630cp-4, 0x1.0cec27b9188cep-4},
      {0x1.2a7c5e93ac7c1p-4, 0x1.558e8746d5196p-4}, {0x1.f963f76e11698p-5, 0x1.9f0c015bb1c48p-4},
      {0x1.90afe14cc831ap-5, 0x1.ea53d7360e10dp-4}, {0x1.1b17a21ef6e6dp-5, 0x1.1c2a3cf97fa93p-3},
      {0x1.3205bbb3efa16p-6, 0x1.44fcd75d2c3bfp-3}, {0x1.60a6073fcaep-10, 0x1.70155b2b099e5p-3},
      {-0x1.1c454523ac22cp-6, 0x1.9de43d8d0a7e8p-3}, {-0x1.318bc693d4dbbp-5, 0x1.ced5e3fc2a694p-3},
      {-0x1.de24b87d78adfp-5, 0x1.01a8e2e40fd9ep-2}, {-0x1.495a75e994ca3p-4, 0x1.1ddcca7dba6aap-2},
      {-0x1.a6ef5a349f889p-4, 0x1.3c3437f813c14p-2}, {-0x1.03885c17e3932p-3, 0x1.5cd90e6e260e5p-2},
      {-0x1.3476fbd9bcd92p-3, 0x1.7ff12847d8836p-2}, {-0x1.65d3c4efc185cp-3, 0x1.a59e00c595da6p-2},
      {-0x1.97282a4084c39p-3, 0x1.cdfc6444183f4p-2}, {-0x1.c7f79b20c027ap-3, 0x1.f92427b9d7ef2p-2},
      {-0x1.f7c050ad1d1d8p-3, 0x1.1393f3f283139p-1}, {-0x1.12fe129959591p-2, 0x1.2c0a684adc611p-1},
      {-0x1.2910ba3174024p-2, 0x1.45f9363a022e7p-1}, {-0x1.3dd20180c5e85p-2, 0x1.61613ecaa616fp-1},
      {-0x1.50faf657fd2f8p-2, 0x1.7e406f938ccb7p-1}, {-0x1.62444b3716ffp-2, 0x1.9c91b83436622p-1},
      {-0x1.7166d2315155ep-2, 0x1.bc4d048e5f31ap-1}, {-0x1.7e1bf8ba0b64ap-2, 0x1.dd673bcaf629bp-1},
      {-0x1.881e439e392a5p-2, 0x1.ffd244320e508p-1}, {-0x1.8f29ca6d40e95p-2, 0x1.11be85eb15bfp+0},
  };
  EXPECT_TRUE(same_bits(split.realized, realized)) << "realized response";

  // lte_test's grid: the 300 used LTE-5 tones at 4x its 7.68 Msps rate. The
  // realized response is pinned by the FNV-1a hash of its bytes and by its
  // first and last entries.
  const auto lte = phy::OfdmParams::lte5();
  const auto lte_freqs = lte.used_subcarrier_freqs();
  relay::CnfSplitConfig lte_cfg;
  lte_cfg.sample_rate_hz = 4.0 * lte.sample_rate_hz;
  const auto lte_split = relay::design_cnf_split(selective_target(lte_freqs), lte_freqs, lte_cfg);
  expect_split_pinned(
      lte_split,
      {{0x1.b10fa5aae153ep+1, -0x1.cda5051826925p-7},
       {-0x1.e161d0856a4bp+0, 0x1.b374d6553718ep-8},
       {-0x1.122f6c3b1307dp+1, 0x1.05765e02df6d5p-7},
       {0x1.7a3a288488a91p+0, -0x1.46e0fd6578332p-8}},
      {0x1.bb5fad00ab22cp-1, 0x0p+0, 0x0p+0, 0x1.10754f9e31838p-2}, -0x1.6c0545d3c6671p+3);
  ASSERT_EQ(lte_split.realized.size(), 300u);
  EXPECT_TRUE(same_bits(lte_split.realized.front(),
                        Complex{0x1.b70edd8d7a7cep-1, -0x1.7a6692e084de4p-1}));
  EXPECT_TRUE(same_bits(lte_split.realized.back(),
                        Complex{0x1.2874f15519d3bp-2, 0x1.1854fd30634d5p+0}));
  const std::string_view bytes(reinterpret_cast<const char*>(lte_split.realized.data()),
                               lte_split.realized.size() * sizeof(Complex));
  EXPECT_EQ(fnv1a_64(bytes), 0x441ad4f5ac60c4c8ull);
}

// ---------------------------------------------------------- amplification

TEST(Amplification, PaperSectionThreeFiveExample) {
  // Sec. 3.5: relay-destination attenuation 80 dB => maximum amplification
  // 77 dB; relayed noise lands below the destination floor.
  const auto d = relay::decide_amplification(/*cancellation=*/110.0,
                                             /*rd_attenuation=*/80.0,
                                             /*rx_power_dbm=*/-70.0);
  EXPECT_NEAR(d.noise_limit_db, 77.0, 1e-12);
  EXPECT_TRUE(d.noise_limited);
  EXPECT_NEAR(d.gain_db, 77.0, 1e-12);
  // Relay noise (-90 dBm) + 77 dB - 80 dB = -93 dBm < -90 dBm floor.
  EXPECT_LT(-90.0 + d.gain_db - 80.0, -90.0);
}

TEST(Amplification, CancellationCapsGain) {
  const auto d = relay::decide_amplification(/*cancellation=*/60.0,
                                             /*rd_attenuation=*/120.0,
                                             /*rx_power_dbm=*/-80.0);
  EXPECT_NEAR(d.gain_db, 54.0, 1e-12);  // 60 - 6 margin
  EXPECT_FALSE(d.noise_limited);
}

TEST(Amplification, TxPowerCapsGain) {
  const auto d = relay::decide_amplification(110.0, 120.0, /*rx_power_dbm=*/-30.0);
  EXPECT_NEAR(d.gain_db, 50.0, 1e-12);  // 20 dBm ceiling - (-30)
}

TEST(Amplification, BlindRepeaterIgnoresNoiseRule) {
  const auto blind = relay::decide_amplification_blind(110.0, /*rx=*/-70.0);
  const auto smart = relay::decide_amplification(110.0, /*a=*/60.0, /*rx=*/-70.0);
  EXPECT_GT(blind.gain_db, smart.gain_db);
  EXPECT_NEAR(blind.gain_db, 90.0, 1e-12);  // power-limited: 20 - (-70)
}

TEST(Amplification, NeverNegative) {
  const auto d = relay::decide_amplification(10.0, 5.0, 30.0);
  EXPECT_GE(d.gain_db, 0.0);
}

// ---------------------------------------------------------- pipeline

TEST(Pipeline, AppliesGainRotationAndDelay) {
  relay::PipelineConfig cfg;
  cfg.sample_rate_hz = 80e6;
  cfg.adc_dac_delay_samples = 3;
  cfg.gain_db = 20.0;
  cfg.analog_rotation = Complex{0.0, 1.0};
  relay::ForwardPipeline pipe(cfg);
  CVec x(20, Complex{});
  x[0] = {1.0, 0.0};
  const CVec y = pipe.process(x);
  // Impulse appears 3 samples later, scaled by 10 and rotated 90 degrees.
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (i == 3)
      EXPECT_NEAR(std::abs(y[i] - Complex{0.0, 10.0}), 0.0, 1e-9);
    else
      EXPECT_NEAR(std::abs(y[i]), 0.0, 1e-9);
  }
}

TEST(Pipeline, CfoRemoveRestoreRoundTrips) {
  relay::PipelineConfig cfg;
  cfg.sample_rate_hz = 80e6;
  cfg.adc_dac_delay_samples = 1;
  cfg.cfo_hz = 25e3;
  relay::ForwardPipeline with_cfo(cfg);
  cfg.cfo_hz = 0.0;
  relay::ForwardPipeline without(cfg);

  Rng rng(8);
  const CVec x = dsp::awgn(rng, 200, 1.0);
  // Remove, filter, restore is the filter p[k] * e^{+j w k} (Sec. 4.1). With
  // the default one-tap prefilter that is p[0] * e^0 = p[0]: the CFO drops
  // out of the forward path entirely, so the relay forwards the same bits
  // with and without it.
  EXPECT_TRUE(same_bits(with_cfo.process(x), without.process(x)));
}

// The paper's forward path written out stage by stage (Sec. 4.1): CFO
// remove, the CNF prefilter, CFO restore (at 0 Hz for the ablation), the
// complex gain, the TX filter, then the bulk-delay FIFO. ForwardPipeline
// runs all of it as one FIR; this is the reference it is held to.
CVec staged_forward_path(const relay::PipelineConfig& cfg, CSpan x) {
  channel::CfoRotator remove(-cfg.cfo_hz, cfg.sample_rate_hz);
  dsp::FirFilter prefilter(cfg.prefilter);
  channel::CfoRotator restore(cfg.restore_cfo ? cfg.cfo_hz : 0.0, cfg.sample_rate_hz);
  CVec y = restore.process(prefilter.process(remove.process(x)));
  const Complex g = amplitude_from_db(cfg.gain_db) * cfg.analog_rotation;
  for (auto& v : y) v = g * v;
  if (!cfg.tx_filter.empty()) y = dsp::FirFilter(cfg.tx_filter).process(y);
  const std::size_t fifo =
      cfg.extra_buffer_samples + (cfg.tx_filter.empty() ? cfg.adc_dac_delay_samples : 0);
  CVec out(y.size(), Complex{});
  for (std::size_t i = fifo; i < y.size(); ++i) out[i] = y[i - fifo];
  return out;
}

// The relay session's Pipeline (examples/relay.ff), rounded: 80 Msps, the
// 4-tap CNF prefilter, its analog rotation and 91.6 dB of gain.
relay::PipelineConfig session_pipeline_config() {
  relay::PipelineConfig cfg;
  cfg.sample_rate_hz = 80e6;
  cfg.adc_dac_delay_samples = 4;
  cfg.cfo_hz = 4036.5;
  cfg.prefilter = CVec{{-2.5936, -2.5016}, {2.8555, 2.6248}, {1.1545, 1.0548}, {-1.7252, -1.5586}};
  cfg.analog_rotation = Complex{0.14075, -0.47292};
  cfg.gain_db = 91.5628;
  cfg.tx_filter = dsp::design_lowpass(9, 0.17);
  return cfg;
}

CVec run_in_blocks(relay::ForwardPipeline& pipe, CSpan x, std::size_t block) {
  CVec out(x.size());
  for (std::size_t i = 0; i < x.size(); i += block) {
    const std::size_t n = std::min(block, x.size() - i);
    pipe.process_into(x.subspan(i, n), CMutSpan{out}.subspan(i, n));
  }
  return out;
}

TEST(Pipeline, OneFirMatchesTheStagedForwardPath) {
  Rng rng(27);
  CVec x(3000);
  for (auto& v : x) v = rng.cgaussian();
  const double fs = 80e6;
  for (const bool restore_cfo : {true, false}) {
    for (const bool tx : {false, true}) {
      for (const std::size_t extra : {std::size_t{0}, std::size_t{8}, std::size_t{40}}) {
        for (const double cfo : {0.0, 4036.5, 40e3, fs + 31.4e3}) {
          relay::PipelineConfig cfg = session_pipeline_config();
          cfg.restore_cfo = restore_cfo;
          if (!tx) cfg.tx_filter.clear();
          cfg.extra_buffer_samples = extra;
          cfg.cfo_hz = cfo;
          const CVec want = staged_forward_path(cfg, x);
          const CVec got = relay::ForwardPipeline(cfg).process(x);
          double err = 0.0, ref = 0.0;
          for (std::size_t i = 0; i < x.size(); ++i) {
            err += std::norm(got[i] - want[i]);
            ref += std::norm(want[i]);
          }
          EXPECT_LE(10.0 * std::log10(err / ref), -250.0)
              << "restore_cfo=" << restore_cfo << " tx=" << tx << " extra=" << extra
              << " cfo=" << cfo;
        }
      }
    }
  }

  // The D leading zero taps are an integer delay line: the pipeline equals
  // the same FIR without them followed by a D-sample shift, bit for bit,
  // and a scrubbed NaN reaches neither.
  CVec glitch(x.begin(), x.begin() + 600);
  glitch[100] = Complex{std::numeric_limits<double>::quiet_NaN(), 0.0};
  for (const Precision precision : {Precision::kF64, Precision::kF32}) {
    for (const bool restore_cfo : {true, false}) {
      relay::PipelineConfig cfg = session_pipeline_config();
      cfg.tx_filter.clear();
      cfg.restore_cfo = restore_cfo;
      cfg.precision = precision;
      cfg.extra_buffer_samples = 40;
      relay::ForwardPipeline delayed(cfg);
      const std::size_t d = delayed.bulk_delay_samples();
      cfg.adc_dac_delay_samples = 0;
      cfg.extra_buffer_samples = 0;
      relay::ForwardPipeline undelayed(cfg);
      const CVec got = delayed.process(glitch);
      const CVec fir = undelayed.process(glitch);
      CVec want(glitch.size(), Complex{});
      std::copy(fir.begin(), fir.end() - static_cast<std::ptrdiff_t>(d),
                want.begin() + static_cast<std::ptrdiff_t>(d));
      EXPECT_EQ(delayed.scrubbed_samples(), 1u);
      EXPECT_TRUE(same_bits(got, want))
          << to_string(precision) << " restore_cfo=" << restore_cfo;
    }
  }

  // Both sweeps are causal, so where the block boundaries fall moves no bit.
  for (const Precision precision : {Precision::kF64, Precision::kF32}) {
    for (const bool restore_cfo : {true, false}) {
      relay::PipelineConfig cfg = session_pipeline_config();
      cfg.restore_cfo = restore_cfo;
      cfg.precision = precision;
      cfg.extra_buffer_samples = 8;
      const CVec whole = relay::ForwardPipeline(cfg).process(x);
      for (const std::size_t block : {std::size_t{1}, std::size_t{7}, std::size_t{4096}}) {
        relay::ForwardPipeline pipe(cfg);
        EXPECT_TRUE(same_bits(run_in_blocks(pipe, x, block), whole))
            << to_string(precision) << " restore_cfo=" << restore_cfo
            << " block=" << block;
      }
    }
  }
}

TEST(Pipeline, MaxDelayAccountsPrefilterSpread) {
  relay::PipelineConfig cfg;
  cfg.sample_rate_hz = 80e6;
  cfg.adc_dac_delay_samples = 4;   // 50 ns
  cfg.extra_buffer_samples = 8;    // 100 ns
  cfg.prefilter = CVec(4, Complex{0.5, 0.0});  // 3 taps of spread = 37.5 ns
  relay::ForwardPipeline pipe(cfg);
  EXPECT_NEAR(pipe.max_delay_s(), 187.5e-9, 1e-12);
}

TEST(Pipeline, ResetRestoresInitialState) {
  relay::PipelineConfig cfg;
  cfg.adc_dac_delay_samples = 2;
  relay::ForwardPipeline pipe(cfg);
  Rng rng(9);
  const CVec x = dsp::awgn(rng, 50, 1.0);
  const CVec y1 = pipe.process(x);
  pipe.reset();
  const CVec y2 = pipe.process(x);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(y1[i] - y2[i]), 0.0, 1e-12);
}

// ---------------------------------------------------------- channel book

TEST(ChannelBook, ReadyOnlyWithAllThreeChannels) {
  relay::ChannelBook book(0.2);
  const CVec h(56, Complex{1.0, 0.0});
  EXPECT_FALSE(book.ready(1, 0.0));
  book.update_source_relay(1, h, 0.0);
  book.update_relay_client(1, h, 0.0);
  EXPECT_FALSE(book.ready(1, 0.01));
  book.update_source_client(1, h, 0.0);
  EXPECT_TRUE(book.ready(1, 0.01));
}

TEST(ChannelBook, EstimatesGoStale) {
  relay::ChannelBook book(0.2);
  const CVec h(56, Complex{1.0, 0.0});
  book.update_source_relay(2, h, 0.0);
  book.update_relay_client(2, h, 0.0);
  book.update_source_client(2, h, 0.0);
  EXPECT_TRUE(book.ready(2, 0.1));
  EXPECT_FALSE(book.ready(2, 0.5));  // > 0.2 s old
  // A refresh revives it (the 50 ms sounding cadence, Sec. 4.2).
  book.update_source_client(2, h, 0.45);
  EXPECT_FALSE(book.ready(2, 0.5));  // the other two are still stale
  book.update_source_relay(2, h, 0.45);
  book.update_relay_client(2, h, 0.45);
  EXPECT_TRUE(book.ready(2, 0.5));
}

TEST(ChannelBook, TracksClientsIndependently) {
  relay::ChannelBook book;
  const CVec h(8, Complex{1.0, 0.0});
  book.update_relay_client(1, h, 0.0);
  book.update_relay_client(2, h, 0.0);
  EXPECT_EQ(book.known_clients(), 2u);
  EXPECT_TRUE(book.relay_client(1, 0.05).has_value());
  EXPECT_FALSE(book.source_client(1, 0.05).has_value());
}

// ---------------------------------------------------------- full design

relay::RelayLink synthetic_siso_link(Rng& rng, double sd_gain_db, double sr_gain_db,
                                     double rd_gain_db) {
  const phy::OfdmParams params;
  const double fc = params.carrier_hz;
  channel::MultipathChannel sd({{25e-9, amplitude_from_db(sd_gain_db) * rng.unit_phasor()},
                                {95e-9, amplitude_from_db(sd_gain_db - 8) * rng.unit_phasor()}},
                               fc);
  channel::MultipathChannel sr({{10e-9, amplitude_from_db(sr_gain_db) * rng.unit_phasor()}},
                               fc);
  channel::MultipathChannel rd({{15e-9, amplitude_from_db(rd_gain_db) * rng.unit_phasor()},
                                {70e-9, amplitude_from_db(rd_gain_db - 10) * rng.unit_phasor()}},
                               fc);
  relay::RelayLink link;
  for (const double f : params.used_subcarrier_freqs()) {
    link.h_sd.push_back(linalg::Matrix{{sd.response(f)}});
    link.h_sr.push_back(linalg::Matrix{{sr.response(f)}});
    link.h_rd.push_back(linalg::Matrix{{rd.response(f)}});
  }
  return link;
}

TEST(RelayDesign, FfLiftsDeadZoneSiso) {
  Rng rng(10);
  // Direct path at -105 dB (SNR 5 dB), relay well placed.
  auto link = synthetic_siso_link(rng, -105.0, -85.0, -88.0);
  relay::DesignOptions opts;
  opts.f_grid_hz = phy::OfdmParams{}.used_subcarrier_freqs();
  const auto d = relay::design_ff_relay(link, opts);
  double direct_power = 0.0, eff_power = 0.0;
  for (std::size_t i = 0; i < link.h_sd.size(); ++i) {
    direct_power += std::norm(link.h_sd[i](0, 0));
    eff_power += std::norm(d.h_eff[i](0, 0));
  }
  EXPECT_GT(db_from_power(eff_power / direct_power), 10.0);
  // Relay noise injected at the destination stays near/below the floor
  // (thermal + SI residual doubles the relay's effective noise at C=110 dB,
  // and the noise rule keeps the result within ~3 dB of the floor).
  for (const double n : d.relay_noise_mw) EXPECT_LT(n, power_from_db(-87.0));
}

TEST(RelayDesign, AfUsesHigherGainButInjectsMoreNoise) {
  Rng rng(11);
  auto link = synthetic_siso_link(rng, -105.0, -85.0, -88.0);
  relay::DesignOptions opts;
  opts.f_grid_hz = phy::OfdmParams{}.used_subcarrier_freqs();
  const auto ff = relay::design_ff_relay(link, opts);
  const auto af = relay::design_af_relay(link, opts);
  EXPECT_GE(af.amp.gain_db, ff.amp.gain_db);
  double ff_noise = 0.0, af_noise = 0.0;
  for (std::size_t i = 0; i < link.h_sd.size(); ++i) {
    ff_noise += ff.relay_noise_mw[i];
    af_noise += af.relay_noise_mw[i];
  }
  EXPECT_GT(af_noise, ff_noise);
}

TEST(RelayDesign, SplitErrorReportedForSiso) {
  Rng rng(12);
  auto link = synthetic_siso_link(rng, -95.0, -85.0, -88.0);
  relay::DesignOptions opts;
  opts.f_grid_hz = phy::OfdmParams{}.used_subcarrier_freqs();
  const auto d = relay::design_ff_relay(link, opts);
  EXPECT_LT(d.split_error_db, -5.0);   // realizable to better than -5 dB
  EXPECT_GT(d.split_error_db, -60.0);  // but not magically perfect
}

TEST(Pipeline, ProcessIntoMatchesProcessAndSupportsAliasing) {
  Rng rng(51);
  CVec x(300);
  for (auto& v : x) v = rng.cgaussian();
  relay::PipelineConfig cfg;
  cfg.cfo_hz = 11e3;
  cfg.prefilter = CVec{{0.9, 0.0}, {0.1, -0.2}};
  cfg.gain_db = 10.0;
  relay::ForwardPipeline a(cfg), b(cfg);
  const CVec expected = a.process(x);
  CVec inplace = x;
  b.process_into(inplace, inplace);
  EXPECT_EQ(inplace, expected);
  CVec wrong(x.size() + 3);
  EXPECT_THROW(b.process_into(x, wrong), std::logic_error);
}

TEST(Pipeline, ResetClearsScrubbedCount) {
  relay::PipelineConfig cfg;
  relay::ForwardPipeline pipe(cfg);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  CVec poisoned(8, Complex{1.0, 0.0});
  poisoned[3] = Complex{nan, 0.0};
  pipe.process(poisoned);
  ASSERT_EQ(pipe.scrubbed_samples(), 1u);
  // A reset pipeline reports like a fresh one — repetitions must not
  // double-count earlier glitches.
  pipe.reset();
  EXPECT_EQ(pipe.scrubbed_samples(), 0u);
  pipe.process(poisoned);
  EXPECT_EQ(pipe.scrubbed_samples(), 1u);
}

}  // namespace
}  // namespace ff
