#include "phy/ofdm.hpp"

#include <cmath>

#include "common/check.hpp"
#include "dsp/kernels/kernels.hpp"
#include "dsp/kernels/workspace.hpp"

namespace ff::phy {

OfdmModem::OfdmModem(OfdmParams params)
    : params_(params), plan_(params.fft_size), used_(params.used_subcarriers()) {}

CVec OfdmModem::modulate_symbol(CSpan used_values) const {
  FF_CHECK_MSG(used_values.size() == used_.size(),
               "expected " << used_.size() << " subcarrier values, got " << used_values.size());
  CVec freq(params_.fft_size, Complex{});
  for (std::size_t i = 0; i < used_.size(); ++i)
    freq[params_.fft_bin(used_[i])] = used_values[i];
  plan_.inverse(freq);
  // Normalize so symbol power equals mean subcarrier power: the IFFT's 1/N
  // spreads power across N bins but only |used| carry signal.
  const double norm = std::sqrt(static_cast<double>(params_.fft_size) *
                                static_cast<double>(params_.fft_size) /
                                static_cast<double>(used_.size()));
  CVec symbol(params_.symbol_len());
  for (std::size_t i = 0; i < params_.fft_size; ++i) freq[i] *= norm;
  // Cyclic prefix = tail of the IFFT output.
  for (std::size_t i = 0; i < params_.cp_len; ++i)
    symbol[i] = freq[params_.fft_size - params_.cp_len + i];
  for (std::size_t i = 0; i < params_.fft_size; ++i) symbol[params_.cp_len + i] = freq[i];
  return symbol;
}

CVec OfdmModem::extract_used(CSpan freq, std::size_t cp_advance) const {
  const double norm = 1.0 / std::sqrt(static_cast<double>(params_.fft_size) *
                                      static_cast<double>(params_.fft_size) /
                                      static_cast<double>(used_.size()));
  CVec out(used_.size());
  for (std::size_t i = 0; i < used_.size(); ++i) {
    Complex v = freq[params_.fft_bin(used_[i])] * norm;
    if (cp_advance != 0) {
      // Undo the phase ramp introduced by the early FFT window: starting the
      // window d samples early delays the content, multiplying bin k by
      // e^{-j 2 pi k d / N}; compensate with the conjugate ramp.
      const double ang = 2.0 * 3.14159265358979323846 * static_cast<double>(used_[i]) *
                         static_cast<double>(cp_advance) / static_cast<double>(params_.fft_size);
      v *= Complex{std::cos(ang), std::sin(ang)};
    }
    out[i] = v;
  }
  return out;
}

CVec OfdmModem::demodulate_symbol(CSpan symbol) const { return demodulate_symbol(symbol, 0); }

CVec OfdmModem::demodulate_symbol(CSpan symbol, std::size_t cp_advance) const {
  FF_CHECK(symbol.size() == params_.symbol_len());
  FF_CHECK(cp_advance < params_.cp_len);
  CVec freq(params_.fft_size);
  const std::size_t start = params_.cp_len - cp_advance;
  for (std::size_t i = 0; i < params_.fft_size; ++i) freq[i] = symbol[start + i];
  plan_.forward(freq);
  return extract_used(freq, cp_advance);
}

CVec OfdmModem::modulate_burst(CSpan values) const {
  FF_CHECK(values.size() % used_.size() == 0);
  const std::size_t n_symbols = values.size() / used_.size();
  CVec out(n_symbols * params_.symbol_len());
  if (n_symbols == 0) return out;
  const std::size_t nfft = params_.fft_size;
  // Stage every symbol's subcarrier grid contiguously and run ONE batched
  // inverse transform (each block bit-identical to plan_.inverse on it).
  thread_local dsp::kernels::Workspace ws;
  CMutSpan freq = ws.get(0, n_symbols * nfft);
  std::fill(freq.begin(), freq.end(), Complex{});
  for (std::size_t s = 0; s < n_symbols; ++s)
    for (std::size_t i = 0; i < used_.size(); ++i)
      freq[s * nfft + params_.fft_bin(used_[i])] = values[s * used_.size() + i];
  CMutSpan time = ws.get(1, n_symbols * nfft);
  plan_.execute_many(freq, time, n_symbols, /*invert=*/true);
  const double norm = std::sqrt(static_cast<double>(nfft) * static_cast<double>(nfft) /
                                static_cast<double>(used_.size()));
  dsp::kernels::scale_real(norm, time, time);
  for (std::size_t s = 0; s < n_symbols; ++s) {
    const Complex* sym = time.data() + s * nfft;
    Complex* dst = out.data() + s * params_.symbol_len();
    for (std::size_t i = 0; i < params_.cp_len; ++i)
      dst[i] = sym[nfft - params_.cp_len + i];
    for (std::size_t i = 0; i < nfft; ++i) dst[params_.cp_len + i] = sym[i];
  }
  return out;
}

}  // namespace ff::phy
