#include "relay/digital_prefilter.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/units.hpp"
#include "dsp/fir.hpp"
#include "linalg/matrix.hpp"

namespace ff::relay {

double CnfSplit::insertion_gain() const {
  if (realized.empty()) return 1.0;
  double acc = 0.0;
  for (const Complex r : realized) acc += std::abs(r);
  return std::max(acc / static_cast<double>(realized.size()), 1e-6);
}

namespace {

/// The design grid's phasor tables, computed once per design call. Each row
/// holds one grid frequency's entries, and each entry is the expression its
/// consumer evaluates:
///  - `analog`: AnalogCnfFilter::tap_phasors, e^{-j 2 pi (fc + f_i) tau_k};
///  - `fit`: the pre-filter fit's columns, at angle -2 pi * f_i / fs * n;
///  - `response`: dsp::freq_response_phasor(f_i / fs, n), the pre-filter's
///    response.
/// `fit` and `response` associate their products differently and can differ
/// in the last bit, so both are kept.
struct GridPhasors {
  GridPhasors(const AnalogCnfFilter& filter, RSpan f_grid, std::size_t prefilter_taps,
              double fs)
      : points(f_grid.size()), taps(prefilter_taps), analog(filter.tap_phasors(f_grid)),
        fit(points * taps), response(points * taps) {
    for (std::size_t i = 0; i < points; ++i) {
      for (std::size_t n = 0; n < taps; ++n) {
        const double ang = -kTwoPi * f_grid[i] / fs * static_cast<double>(n);
        fit[i * taps + n] = Complex{std::cos(ang), std::sin(ang)};
        response[i * taps + n] = dsp::freq_response_phasor(f_grid[i] / fs, n);
      }
    }
  }

  /// Pre-filter response at grid frequency i.
  Complex prefilter_response(CSpan hp, std::size_t i) const {
    return dsp::freq_response(hp, CSpan{response}.subspan(i * taps, taps));
  }

  std::size_t points, taps;
  CVec analog, fit, response;
};

double split_error_db(CSpan h_c, CSpan realized) {
  double err = 0.0, ref = 0.0;
  for (std::size_t i = 0; i < h_c.size(); ++i) {
    err += std::norm(h_c[i] - realized[i]);
    ref += std::norm(h_c[i]);
  }
  if (ref <= 0.0) return -400.0;
  return 10.0 * std::log10(std::max(err / ref, 1e-40));
}

/// Least-squares fit of the pre-filter taps given the analog response.
///
/// The ridge term is a real hardware constraint, not a numerical nicety: it
/// bounds the tap energy ||hp||^2, which equals the filter's full-band
/// (Nyquist) average power gain. An unconstrained fit against a target the
/// taps cannot realize (e.g. a steep delay ramp) otherwise runs the gains to
/// +60 dB with near-cancelling signs — blowing fixed-point dynamic range and
/// amplifying out-of-band receiver noise into the transmit chain.
CVec fit_prefilter(CSpan h_c, CSpan analog_resp, const GridPhasors& grid) {
  const std::size_t taps = grid.taps;
  linalg::Matrix a(h_c.size(), taps), b(h_c.size(), 1);
  for (std::size_t i = 0; i < h_c.size(); ++i) {
    for (std::size_t n = 0; n < taps; ++n) a(i, n) = analog_resp[i] * grid.fit[i * taps + n];
    b(i, 0) = h_c[i];
  }
  // Ridge sized for ~20 dB of out-of-band gain headroom: enough for the
  // in-band phase-advance trajectories the 4x-oversampled prototype needs,
  // while keeping tap energy inside fixed-point dynamic range.
  const double ridge = 0.002 * static_cast<double>(h_c.size());
  const linalg::Matrix x = linalg::least_squares(a, b, ridge);
  CVec hp(taps);
  for (std::size_t n = 0; n < taps; ++n) hp[n] = x(n, 0);
  return hp;
}

/// Remove the scale degeneracy of the (Ha, Hp) product: normalize the
/// pre-filter to unit mean in-band magnitude and return the scale so the
/// analog stage can absorb it (its attenuators own the magnitude).
double normalize_prefilter(CVec& hp, const GridPhasors& grid) {
  double acc = 0.0;
  for (std::size_t i = 0; i < grid.points; ++i) acc += std::abs(grid.prefilter_response(hp, i));
  const double scale = acc / static_cast<double>(grid.points);
  if (scale < 1e-12) return 1.0;
  for (auto& t : hp) t /= scale;
  return scale;
}

}  // namespace

CnfSplit design_cnf_split(CSpan h_c, RSpan f_grid_hz, const CnfSplitConfig& cfg) {
  FF_CHECK(h_c.size() == f_grid_hz.size());
  FF_CHECK(cfg.prefilter_taps >= 1);

  CnfSplit out;
  out.analog = AnalogCnfFilter(cfg.analog);
  const GridPhasors grid(out.analog, f_grid_hz, cfg.prefilter_taps, cfg.sample_rate_hz);
  CVec aresp(h_c.size());

  // Initialize the analog rotator at the circular-mean phase of H_c so the
  // pre-filter starts near unity (keeping its gains well-conditioned).
  Complex mean{0.0, 0.0};
  for (const Complex h : h_c) mean += h;
  if (std::abs(mean) < 1e-20) mean = Complex{1.0, 0.0};
  out.analog.tune(mean / std::abs(mean) *
                  std::min(std::abs(mean) / static_cast<double>(h_c.size()), 1.2));

  for (int it = 0; it < cfg.iterations; ++it) {
    // hp step: linear least squares given the analog response, then push the
    // magnitude into the analog stage (its attenuators own the scale).
    out.analog.response(grid.analog, aresp);
    out.prefilter = fit_prefilter(h_c, aresp, grid);
    const double scale = normalize_prefilter(out.prefilter, grid);

    // analog step: 1-D projection of the residual rotation given hp, with
    // the hp scale folded in and the magnitude clamped to the attenuators'
    // physical range.
    Complex num{0.0, 0.0};
    double den = 0.0;
    for (std::size_t i = 0; i < h_c.size(); ++i) {
      const Complex hp = grid.prefilter_response(out.prefilter, i);
      num += std::conj(hp) * h_c[i];
      den += std::norm(hp);
    }
    if (den > 1e-30) {
      Complex target = num / den;
      (void)scale;  // already divided out of hp; target carries it naturally
      const double mag = std::abs(target);
      if (mag > 1.2) target *= 1.2 / mag;
      if (mag < 0.05) target = Complex{0.05, 0.0} * (mag > 1e-12 ? target / mag : Complex{1.0, 0.0});
      out.analog.tune(target);
    }
  }

  // Final hp refit against the final analog setting, then score.
  out.analog.response(grid.analog, aresp);
  out.prefilter = fit_prefilter(h_c, aresp, grid);
  out.realized.resize(h_c.size());
  for (std::size_t i = 0; i < h_c.size(); ++i)
    out.realized[i] = aresp[i] * grid.prefilter_response(out.prefilter, i);
  out.error_db = split_error_db(h_c, out.realized);
  return out;
}

CnfSplit design_analog_only(CSpan h_c, RSpan f_grid_hz, const CnfSplitConfig& cfg) {
  FF_CHECK(h_c.size() == f_grid_hz.size());
  CnfSplit out;
  out.analog = AnalogCnfFilter(cfg.analog);
  Complex mean{0.0, 0.0};
  for (const Complex h : h_c) mean += h;
  mean /= static_cast<double>(h_c.size());
  if (std::abs(mean) > 1e-20) out.analog.tune(mean);
  out.prefilter = {Complex{1.0, 0.0}};
  out.realized.resize(h_c.size());
  out.analog.response(out.analog.tap_phasors(f_grid_hz), out.realized);
  out.error_db = split_error_db(h_c, out.realized);
  return out;
}

CnfSplit design_digital_only(CSpan h_c, RSpan f_grid_hz, const CnfSplitConfig& cfg) {
  FF_CHECK(h_c.size() == f_grid_hz.size());
  CnfSplit out;
  // Pass-through analog stage (tap 0 at unit gain).
  AnalogCnfConfig acfg = cfg.analog;
  out.analog = AnalogCnfFilter(acfg);
  out.analog.tune(Complex{1.0, 0.0});
  const GridPhasors grid(out.analog, f_grid_hz, cfg.prefilter_taps, cfg.sample_rate_hz);
  CVec aresp(h_c.size());
  out.analog.response(grid.analog, aresp);
  out.prefilter = fit_prefilter(h_c, aresp, grid);
  out.realized.resize(h_c.size());
  for (std::size_t i = 0; i < h_c.size(); ++i)
    out.realized[i] = aresp[i] * grid.prefilter_response(out.prefilter, i);
  out.error_db = split_error_db(h_c, out.realized);
  return out;
}

}  // namespace ff::relay
