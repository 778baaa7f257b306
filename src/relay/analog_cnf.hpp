// The analog constructive filter (Fig. 10): four delay lines spaced 100 ps
// apart (a quarter period at 2.45 GHz, i.e. 90 degrees), each with a tunable
// non-negative gain. Splitting the signal across the taps and re-summing
// synthesizes any phase rotation in [0, 360) with sub-degree resolution —
// phase precision a sample-spaced digital filter would need huge
// interpolators to match (Sec. 3.4).
//
// Across a 20 MHz baseband the tap delays are tiny (2*pi*f*100ps <= 0.7
// degrees), so the filter is deliberately frequency-flat: per-subcarrier
// shaping is the digital pre-filter's job.
#pragma once

#include "common/types.hpp"

namespace ff::relay {

struct AnalogCnfConfig {
  double carrier_hz = 2.45e9;
  int taps = 4;
  double tap_spacing_s = 100e-12;   // 90 degrees at 2.45 GHz
  double gain_step_db = 0.25;       // attenuator quantization
  double max_gain_db = 0.0;         // per-tap ceiling (0 dB = unity)
  double min_gain_db = -40.0;       // attenuator floor (below: off)
};

class AnalogCnfFilter {
 public:
  explicit AnalogCnfFilter(AnalogCnfConfig cfg = {});

  const AnalogCnfConfig& config() const { return cfg_; }
  const std::vector<double>& gains() const { return gains_; }

  /// Tune the tap gains so the filter's carrier-frequency response best
  /// approximates `target` (|target| <= ~2 is reachable; unit-magnitude
  /// rotations are the design point). Returns the achieved response.
  Complex tune(Complex target);

  /// Response at baseband offset `f_bb_hz` from the carrier.
  Complex response(double f_bb_hz) const;

  /// Every tap's phasor e^{-j 2 pi (fc + f) tau_k} at each grid frequency,
  /// one row of `config().taps` entries per frequency. The phasors do not
  /// depend on the gains, so a design that re-tunes the filter on one grid
  /// computes them once.
  CVec tap_phasors(RSpan f_bb_hz) const;

  /// The responses on the grid `phasors` (from tap_phasors) was built for,
  /// equal bit for bit to response(f) at each grid frequency.
  void response(CSpan phasors, CMutSpan out) const;

  /// Group delay of the filter (max tap delay) — part of the relay latency
  /// budget (about 0.3 ns: negligible next to the CP).
  double max_delay_s() const;

 private:
  double quantize(double gain) const;
  Complex tap_phasor(double f_bb_hz, std::size_t k) const;

  AnalogCnfConfig cfg_;
  std::vector<double> delays_;
  std::vector<double> gains_;
};

}  // namespace ff::relay
