#include "dsp/fft.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

#include "common/check.hpp"
#include "common/units.hpp"
#include "dsp/kernels/kernels.hpp"

namespace ff::dsp {
namespace {

// Per-thread Stockham ping-pong scratch (2n: one staging buffer plus one
// pre-copy buffer for odd-stage-count in-place transforms). Thread-local so
// shared cached plans stay immutable and lock-free across workers; grows to
// the largest size a thread has used and is then allocation-free.
Complex* tl_scratch(std::size_t n) {
  thread_local kernels::AlignedCVec buf;
  if (buf.size() < 2 * n) buf.resize(2 * n);
  return buf.data();
}

}  // namespace

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::size_t next_power_of_two(std::size_t n) {
  // A zero request is always an upstream bug: the "next" power of two of
  // nothing would be 1, which then builds a size-1 plan FftPlan rejects
  // with a message pointing at the wrong layer.
  FF_CHECK_MSG(n > 0, "next_power_of_two needs a positive size");
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

FftPlan::FftPlan(std::size_t n) : n_(n) {
  FF_CHECK_MSG(is_power_of_two(n) && n >= 2, "FFT size must be a power of two >= 2, got " << n);
  bitrev_.resize(n_);
  std::size_t log2n = 0;
  while ((std::size_t{1} << log2n) < n_) ++log2n;
  for (std::size_t i = 0; i < n_; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < log2n; ++b)
      if (i & (std::size_t{1} << b)) r |= std::size_t{1} << (log2n - 1 - b);
    bitrev_[i] = r;
  }
  twiddle_.resize(n_ / 2);
  for (std::size_t k = 0; k < n_ / 2; ++k) {
    const double ang = -kTwoPi * static_cast<double>(k) / static_cast<double>(n_);
    twiddle_[k] = {std::cos(ang), std::sin(ang)};
  }

  // Mixed-radix Stockham schedule: decimate-in-frequency, radix 4 whenever
  // the remaining sub-transform length allows, one radix-2 stage otherwise
  // (exactly once, when log2(n) is odd — it lands last, where m is largest
  // and the stage kernel vectorizes best).
  const auto push_twiddle = [this](double ang) {
    stage_tw_.push_back({std::cos(ang), std::sin(ang)});
  };
  std::size_t len = n_;
  std::size_t m = 1;
  while (len > 1) {
    const std::size_t radix = (len % 4 == 0) ? 4 : 2;
    const std::size_t bf = len / radix;
    stages_.push_back({radix, bf, m, stage_tw_.size()});
    for (std::size_t j = 0; j < bf; ++j) {
      const double base = -kTwoPi * static_cast<double>(j) / static_cast<double>(len);
      push_twiddle(base);
      if (radix == 4) {
        push_twiddle(2.0 * base);
        push_twiddle(3.0 * base);
      }
    }
    m *= radix;
    len = bf;
  }
  stage_tw_inv_.resize(stage_tw_.size());
  for (std::size_t i = 0; i < stage_tw_.size(); ++i)
    stage_tw_inv_[i] = std::conj(stage_tw_[i]);
}

const FftPlan& FftPlan::cached(std::size_t n) {
  // Plans are immutable, so only the map itself needs the lock; callers keep
  // using the returned plan lock-free. Entries live for the whole process.
  static std::mutex mutex;
  static std::map<std::size_t, std::unique_ptr<FftPlan>>* cache =
      new std::map<std::size_t, std::unique_ptr<FftPlan>>();
  const std::lock_guard<std::mutex> lk(mutex);
  auto& slot = (*cache)[n];
  if (!slot) slot = std::make_unique<FftPlan>(n);
  return *slot;
}

void FftPlan::forward_radix2(CMutSpan data) const {
  FF_CHECK(data.size() == n_);
  for (std::size_t i = 0; i < n_; ++i)
    if (i < bitrev_[i]) std::swap(data[i], data[bitrev_[i]]);

  for (std::size_t len = 2; len <= n_; len <<= 1) {
    const std::size_t half = len / 2;
    const std::size_t stride = n_ / len;
    for (std::size_t start = 0; start < n_; start += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const Complex u = data[start + k];
        const Complex v = data[start + k + half] * twiddle_[k * stride];
        data[start + k] = u + v;
        data[start + k + half] = u - v;
      }
    }
  }
}

void FftPlan::run_stages(const Complex* src, Complex* dst, Complex* scratch,
                         bool invert) const {
  // Stage s writes dst when s has the same parity as the last stage, else
  // scratch — so the final stage always lands in dst with no trailing copy.
  const std::size_t last_parity = (stages_.size() - 1) % 2;
  const Complex* tw_base = invert ? stage_tw_inv_.data() : stage_tw_.data();
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    const Stage& st = stages_[s];
    Complex* out = (s % 2 == last_parity) ? dst : scratch;
    const Complex* tw = tw_base + st.tw_offset;
    if (st.radix == 4)
      kernels::radix4_stage(src, out, tw, st.butterflies, st.m, invert);
    else
      kernels::radix2_stage(src, out, tw, st.butterflies, st.m);
    src = out;
  }
}

void FftPlan::transform_stockham(CMutSpan data, bool invert) const {
  FF_CHECK(data.size() == n_);
  Complex* scratch = tl_scratch(n_);
  if (stages_.size() % 2 == 1) {
    // Odd stage count: stage 0 would write `data` while reading it. Run
    // from a copy instead (the copy moves no arithmetic — bits unchanged).
    Complex* staging = scratch + n_;
    std::memcpy(staging, data.data(), n_ * sizeof(Complex));
    run_stages(staging, data.data(), scratch, invert);
  } else {
    run_stages(data.data(), data.data(), scratch, invert);
  }
}

void FftPlan::forward(CMutSpan data) const { transform_stockham(data, false); }

void FftPlan::inverse(CMutSpan data) const {
  transform_stockham(data, true);
  kernels::scale_real(1.0 / static_cast<double>(n_), data, data);
}

void FftPlan::execute_many(CSpan in, CMutSpan out, std::size_t count, bool invert) const {
  FF_CHECK_MSG(in.size() == count * n_ && out.size() == count * n_,
               "execute_many: spans must hold count*n samples");
  // Compared as integers: a raw `<` between unrelated pointers is unspecified.
  const auto in_begin = reinterpret_cast<std::uintptr_t>(in.data());
  const auto out_begin = reinterpret_cast<std::uintptr_t>(out.data());
  const std::uintptr_t bytes = count * n_ * sizeof(Complex);
  FF_CHECK_MSG(in_begin + bytes <= out_begin || out_begin + bytes <= in_begin,
               "execute_many: in and out must not overlap");
  Complex* scratch = tl_scratch(n_);
  const double inv_scale = 1.0 / static_cast<double>(n_);
  for (std::size_t t = 0; t < count; ++t) {
    const CMutSpan dst{out.data() + t * n_, n_};
    run_stages(in.data() + t * n_, dst.data(), scratch, invert);
    if (invert) kernels::scale_real(inv_scale, dst, dst);
  }
}

CVec fft(CSpan x) {
  FF_CHECK_MSG(!x.empty(), "fft: input must be non-empty");
  CVec out(x.begin(), x.end());
  FftPlan::cached(out.size()).forward(out);
  return out;
}

CVec ifft(CSpan x) {
  FF_CHECK_MSG(!x.empty(), "ifft: input must be non-empty");
  CVec out(x.begin(), x.end());
  FftPlan::cached(out.size()).inverse(out);
  return out;
}

CVec fftshift(CSpan x) {
  CVec out(x.size());
  const std::size_t h = (x.size() + 1) / 2;  // elements in the first half
  for (std::size_t i = 0; i < x.size(); ++i) out[(i + x.size() - h) % x.size()] = x[i];
  return out;
}

CVec ifftshift(CSpan x) {
  CVec out(x.size());
  const std::size_t h = x.size() / 2;
  for (std::size_t i = 0; i < x.size(); ++i) out[(i + x.size() - h) % x.size()] = x[i];
  return out;
}

CVec fft_convolve(CSpan a, CSpan b) {
  if (a.empty() || b.empty()) return {};
  const std::size_t out_len = a.size() + b.size() - 1;
  const std::size_t n = next_power_of_two(out_len);
  // Scratch spectra come from per-thread workspace slots: in steady state
  // (e.g. the canceller's repeated link convolutions) only the returned
  // vector allocates.
  thread_local kernels::Workspace ws;
  CMutSpan fa = ws.get(0, n);
  CMutSpan fb = ws.get(1, n);
  std::copy(a.begin(), a.end(), fa.begin());
  std::fill(fa.begin() + static_cast<std::ptrdiff_t>(a.size()), fa.end(), Complex{});
  std::copy(b.begin(), b.end(), fb.begin());
  std::fill(fb.begin() + static_cast<std::ptrdiff_t>(b.size()), fb.end(), Complex{});
  const FftPlan& plan = FftPlan::cached(n);
  plan.forward(fa);
  plan.forward(fb);
  kernels::cmul(fa, fb, fa);
  plan.inverse(fa);
  return CVec(fa.begin(), fa.begin() + static_cast<std::ptrdiff_t>(out_len));
}

}  // namespace ff::dsp
