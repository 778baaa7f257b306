#include "relay/analog_cnf.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/units.hpp"

namespace ff::relay {

AnalogCnfFilter::AnalogCnfFilter(AnalogCnfConfig cfg) : cfg_(cfg) {
  FF_CHECK(cfg_.taps >= 3);  // need >= 3 phasors to span the plane with g >= 0
  delays_.resize(static_cast<std::size_t>(cfg_.taps));
  for (int k = 0; k < cfg_.taps; ++k)
    delays_[static_cast<std::size_t>(k)] = k * cfg_.tap_spacing_s;
  gains_.assign(delays_.size(), 0.0);
}

double AnalogCnfFilter::quantize(double gain) const {
  const double min_gain = amplitude_from_db(cfg_.min_gain_db);
  const double max_gain = amplitude_from_db(cfg_.max_gain_db);
  if (gain < min_gain / 2.0) return 0.0;
  const double clamped = std::clamp(gain, min_gain, max_gain);
  const double atten = cfg_.max_gain_db - db_from_amplitude(clamped);
  const double snapped = std::round(atten / cfg_.gain_step_db) * cfg_.gain_step_db;
  return amplitude_from_db(cfg_.max_gain_db - snapped);
}

Complex AnalogCnfFilter::tune(Complex target) {
  // Tap k contributes g_k * e^{-j 2 pi fc tau_k}; with 100 ps spacing at
  // 2.45 GHz the four phasors sit ~90 degrees apart, so any target phase
  // falls between two adjacent taps. Project the target onto that pair.
  const std::size_t n = delays_.size();
  std::vector<Complex> basis(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double ang = -kTwoPi * cfg_.carrier_hz * delays_[k];
    basis[k] = Complex{std::cos(ang), std::sin(ang)};
  }
  std::fill(gains_.begin(), gains_.end(), 0.0);

  // Choose the pair of taps bracketing the target phase: solve the 2x2 real
  // system target = g_a basis[a] + g_b basis[b] for every adjacent pair and
  // keep the non-negative solution with the smallest quantized error.
  double best_err = std::norm(target);
  std::vector<double> best_gains(n, 0.0);
  for (std::size_t a = 0; a < n; ++a) {
    const std::size_t b = (a + 1) % n;
    const double a1 = basis[a].real(), a2 = basis[a].imag();
    const double b1 = basis[b].real(), b2 = basis[b].imag();
    const double det = a1 * b2 - a2 * b1;
    if (std::abs(det) < 1e-12) continue;
    const double ga = (target.real() * b2 - target.imag() * b1) / det;
    const double gb = (target.imag() * a1 - target.real() * a2) / det;
    if (ga < 0.0 || gb < 0.0) continue;
    std::vector<double> cand(n, 0.0);
    cand[a] = quantize(ga);
    cand[b] = quantize(gb);
    Complex achieved{0.0, 0.0};
    for (std::size_t k = 0; k < n; ++k) achieved += cand[k] * basis[k];
    const double err = std::norm(achieved - target);
    if (err < best_err) {
      best_err = err;
      best_gains = cand;
    }
  }
  gains_ = best_gains;

  Complex achieved{0.0, 0.0};
  for (std::size_t k = 0; k < n; ++k) achieved += gains_[k] * basis[k];
  return achieved;
}

Complex AnalogCnfFilter::tap_phasor(double f_bb_hz, std::size_t k) const {
  const double ang = -kTwoPi * (cfg_.carrier_hz + f_bb_hz) * delays_[k];
  return Complex{std::cos(ang), std::sin(ang)};
}

Complex AnalogCnfFilter::response(double f_bb_hz) const {
  Complex acc{0.0, 0.0};
  for (std::size_t k = 0; k < delays_.size(); ++k) acc += gains_[k] * tap_phasor(f_bb_hz, k);
  return acc;
}

CVec AnalogCnfFilter::tap_phasors(RSpan f_bb_hz) const {
  const std::size_t n = delays_.size();
  CVec out(f_bb_hz.size() * n);
  for (std::size_t i = 0; i < f_bb_hz.size(); ++i)
    for (std::size_t k = 0; k < n; ++k) out[i * n + k] = tap_phasor(f_bb_hz[i], k);
  return out;
}

void AnalogCnfFilter::response(CSpan phasors, CMutSpan out) const {
  const std::size_t n = delays_.size();
  FF_CHECK(phasors.size() == out.size() * n);
  for (std::size_t i = 0; i < out.size(); ++i) {
    Complex acc{0.0, 0.0};
    for (std::size_t k = 0; k < n; ++k) acc += gains_[k] * phasors[i * n + k];
    out[i] = acc;
  }
}

double AnalogCnfFilter::max_delay_s() const {
  double d = 0.0;
  for (std::size_t k = 0; k < delays_.size(); ++k)
    if (gains_[k] > 0.0) d = std::max(d, delays_[k]);
  return d;
}

}  // namespace ff::relay
