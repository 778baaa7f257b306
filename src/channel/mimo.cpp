#include "channel/mimo.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/units.hpp"

namespace ff::channel {

MimoChannel::MimoChannel(std::size_t n_rx, std::size_t n_tx, std::vector<MimoPath> paths,
                         double carrier_hz)
    : n_rx_(n_rx), n_tx_(n_tx), paths_(std::move(paths)), carrier_hz_(carrier_hz) {
  FF_CHECK(n_rx_ > 0 && n_tx_ > 0);
  for (const auto& p : paths_) {
    FF_CHECK_MSG(p.rx_steering.size() == n_rx_ && p.tx_steering.size() == n_tx_,
                 "steering vector length mismatch");
    FF_CHECK(p.delay_s >= 0.0);
  }
}

MimoChannel MimoChannel::from_siso(const MultipathChannel& ch) {
  std::vector<MimoPath> paths;
  paths.reserve(ch.taps().size());
  for (const auto& t : ch.taps())
    paths.push_back({t.delay_s, t.amp, CVec{Complex{1.0, 0.0}}, CVec{Complex{1.0, 0.0}}});
  return MimoChannel(1, 1, std::move(paths), ch.carrier_hz());
}

double MimoChannel::min_delay_s() const {
  if (paths_.empty()) return 0.0;
  double d = paths_[0].delay_s;
  for (const auto& p : paths_) d = std::min(d, p.delay_s);
  return d;
}

double MimoChannel::max_delay_s() const {
  double d = 0.0;
  for (const auto& p : paths_) d = std::max(d, p.delay_s);
  return d;
}

linalg::Matrix MimoChannel::response(double f_bb_hz) const {
  linalg::Matrix h(n_rx_, n_tx_);
  for (const auto& p : paths_) {
    const double phase = -kTwoPi * (carrier_hz_ + f_bb_hz) * p.delay_s;
    const Complex g = p.amp * Complex{std::cos(phase), std::sin(phase)};
    for (std::size_t i = 0; i < n_rx_; ++i)
      for (std::size_t j = 0; j < n_tx_; ++j)
        h(i, j) += g * p.rx_steering[i] * std::conj(p.tx_steering[j]);
  }
  return h;
}

double MimoChannel::mean_power_gain() const {
  // Paths are delay-separated, so cross-terms average out across the band:
  // E||H||_F^2 = sum_p |amp|^2 ||a_rx||^2 ||a_tx||^2.
  double acc = 0.0;
  for (const auto& p : paths_) {
    double rx = 0.0, tx = 0.0;
    for (const Complex v : p.rx_steering) rx += std::norm(v);
    for (const Complex v : p.tx_steering) tx += std::norm(v);
    acc += std::norm(p.amp) * rx * tx;
  }
  return acc / static_cast<double>(n_rx_ * n_tx_);
}

MultipathChannel MimoChannel::subchannel(std::size_t rx, std::size_t tx) const {
  FF_CHECK(rx < n_rx_ && tx < n_tx_);
  std::vector<PathTap> taps;
  taps.reserve(paths_.size());
  for (const auto& p : paths_)
    taps.push_back({p.delay_s, p.amp * p.rx_steering[rx] * std::conj(p.tx_steering[tx])});
  return MultipathChannel(std::move(taps), carrier_hz_);
}

MimoChannel MimoChannel::scaled(double amplitude) const {
  std::vector<MimoPath> paths = paths_;
  for (auto& p : paths) p.amp *= amplitude;
  return MimoChannel(n_rx_, n_tx_, std::move(paths), carrier_hz_);
}

MimoChannel MimoChannel::delayed(double extra_delay_s) const {
  std::vector<MimoPath> paths = paths_;
  for (auto& p : paths) p.delay_s += extra_delay_s;
  return MimoChannel(n_rx_, n_tx_, std::move(paths), carrier_hz_);
}

}  // namespace ff::channel
