#include "channel/cfo.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/units.hpp"
#include "dsp/kernels/kernels.hpp"

namespace ff::channel {

namespace {

// Per-sample phase advance in (-pi, pi]: a CFO at or beyond the sample rate
// aliases in band. IEEE remainder is exact and returns |step| <= pi
// unchanged, so the reduction only touches out-of-band offsets — and it
// keeps the once-per-sample 2pi wrap in fill_phasors sufficient.
double phase_step(double cfo_hz, double sample_rate_hz) {
  FF_CHECK(sample_rate_hz > 0.0);
  return std::remainder(kTwoPi * cfo_hz / sample_rate_hz, kTwoPi);
}

}  // namespace

CfoRotator::CfoRotator(double cfo_hz, double sample_rate_hz, double initial_phase_rad)
    : cfo_hz_(cfo_hz),
      step_rad_(phase_step(cfo_hz, sample_rate_hz)),
      phase_(initial_phase_rad),
      step_cos_(std::cos(step_rad_)),
      step_sin_(std::sin(step_rad_)) {}

CVec CfoRotator::process(CSpan x) {
  CVec out(x.size());
  process_into(x, out);
  return out;
}

template <typename T>
void CfoRotator::fill_phasors(std::span<std::complex<T>> phasors) {
  // The PHASE recurrence stays double and sample-sequential (wrap included).
  // The per-sample PHASOR comes from a double complex-rotation recurrence
  // re-anchored with one sincos every kAnchor samples rather than from
  // per-sample sincos: between anchors it drifts by at most ~kAnchor ulps
  // of double (~1e-13). Anchors fire at absolute stream positions (pos_),
  // so the phasors are a function of stream position alone — block-size
  // invariant — and both widths read the same doubles, f32 narrowing them
  // once.
  constexpr std::uint64_t kAnchor = 256;
  // The state lives in locals for the loop: an f64 phasor store could
  // otherwise alias the double members and force a reload per sample.
  const double step_rad = step_rad_, step_cos = step_cos_, step_sin = step_sin_;
  double phase = phase_, rec_cos = rec_cos_, rec_sin = rec_sin_;
  std::uint64_t pos = pos_;
  for (auto& p : phasors) {
    if (pos % kAnchor == 0) {
      rec_cos = std::cos(phase);
      rec_sin = std::sin(phase);
    }
    p = {static_cast<T>(rec_cos), static_cast<T>(rec_sin)};
    const double c = rec_cos * step_cos - rec_sin * step_sin;
    rec_sin = rec_cos * step_sin + rec_sin * step_cos;
    rec_cos = c;
    phase += step_rad;
    if (phase > kTwoPi) phase -= kTwoPi;
    if (phase < -kTwoPi) phase += kTwoPi;
    ++pos;
  }
  phase_ = phase;
  rec_cos_ = rec_cos;
  rec_sin_ = rec_sin;
  pos_ = pos;
}

void CfoRotator::process_into(CSpan x, CMutSpan out) { process_into(x, out, ws_); }

void CfoRotator::process_into(CSpan x, CMutSpan out, dsp::kernels::Workspace& ws) {
  FF_CHECK_MSG(out.size() == x.size(),
               "CfoRotator::process_into needs out.size() == x.size(), got "
                   << out.size() << " vs " << x.size());
  if (x.empty()) return;
  CMutSpan phasors = ws.get(0, x.size());
  fill_phasors(phasors);
  dsp::kernels::rotate_phasor(x, phasors, out);
}

void CfoRotator::process_into(CSpan32 x, CMutSpan32 out, dsp::kernels::Workspace& ws) {
  FF_CHECK_MSG(out.size() == x.size(),
               "CfoRotator::process_into needs out.size() == x.size(), got "
                   << out.size() << " vs " << x.size());
  if (x.empty()) return;
  CMutSpan32 phasors = ws.get<float>(0, x.size());
  fill_phasors(phasors);
  dsp::kernels::rotate_phasor(x, phasors, out);
}

void CfoRotator::set_cfo(double cfo_hz, double sample_rate_hz) {
  step_rad_ = phase_step(cfo_hz, sample_rate_hz);
  cfo_hz_ = cfo_hz;
  step_cos_ = std::cos(step_rad_);
  step_sin_ = std::sin(step_rad_);
}

CVec apply_cfo(CSpan x, double cfo_hz, double sample_rate_hz, double initial_phase_rad) {
  CfoRotator rot(cfo_hz, sample_rate_hz, initial_phase_rad);
  return rot.process(x);
}

}  // namespace ff::channel
