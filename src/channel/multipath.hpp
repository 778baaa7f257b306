// Baseband-equivalent multipath channel model.
//
// A channel is a set of discrete propagation paths, each with a physical
// delay and a complex amplitude. The baseband-equivalent response at carrier
// fc is  H(f) = sum_p a_p * e^{-j 2 pi fc tau_p} * e^{-j 2 pi f tau_p},
// where f is the baseband (subcarrier) frequency. Path amplitudes a_p store
// everything except the carrier phase (attenuation, reflection coefficients),
// so moving a path by 100 ps rotates it by ~90 degrees at 2.45 GHz — the
// physical effect FF's analog constructive filter exploits (Sec. 3.4).
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace ff::channel {

struct PathTap {
  double delay_s = 0.0;  // absolute propagation delay
  Complex amp{};         // complex amplitude excluding the carrier phase term
};

class MultipathChannel {
 public:
  MultipathChannel() = default;
  MultipathChannel(std::vector<PathTap> taps, double carrier_hz);

  /// Channel with a single path of the given linear amplitude and delay.
  static MultipathChannel single_path(double amplitude, double delay_s, double carrier_hz);

  /// An ideal zero channel (no propagation).
  static MultipathChannel null(double carrier_hz) { return MultipathChannel({}, carrier_hz); }

  const std::vector<PathTap>& taps() const { return taps_; }
  double carrier_hz() const { return carrier_hz_; }
  bool empty() const { return taps_.empty(); }

  /// Delay of the earliest path (0 for an empty channel).
  double min_delay_s() const;
  /// Delay of the latest path.
  double max_delay_s() const;

  /// Total power gain sum |a_p|^2 (i.e. average flat-fading power ratio).
  double power_gain() const;
  double power_gain_db() const;

  /// Baseband frequency response at offset `f_bb_hz` from the carrier.
  Complex response(double f_bb_hz) const;

  /// Responses at each of the given baseband frequencies.
  CVec response(RSpan f_bb_hz) const;

  /// Discretize to a causal FIR at `sample_rate`, resolving fractional delays
  /// with windowed-sinc interpolation. `delay_ref_s` is subtracted from every
  /// path delay first (timeline origin; must be <= min_delay).
  CVec to_fir(double sample_rate, double delay_ref_s = 0.0,
              std::size_t sinc_half_width = 16) const;

  /// Convolve a signal with the discretized channel (common timeline origin
  /// at delay_ref_s). Output has the same length as the input.
  CVec apply(CSpan x, double sample_rate, double delay_ref_s = 0.0) const;

  /// Scale every path amplitude by a linear factor.
  MultipathChannel scaled(double amplitude) const;

  /// Add an extra delay to every path (e.g. relay processing latency).
  MultipathChannel delayed(double extra_delay_s) const;

  /// Merge two channels observed at the same receiver (path union).
  static MultipathChannel combine(const MultipathChannel& a, const MultipathChannel& b);

 private:
  std::vector<PathTap> taps_;
  double carrier_hz_ = 2.45e9;
};

}  // namespace ff::channel
