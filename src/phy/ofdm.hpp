// OFDM symbol modulation/demodulation for the 64-point, 56-subcarrier PHY.
#pragma once

#include "common/types.hpp"
#include "dsp/fft.hpp"
#include "phy/params.hpp"

namespace ff::phy {

/// Maps frequency-domain subcarrier values to/from time-domain OFDM symbols
/// (IFFT + cyclic prefix). One instance caches the FFT plan.
class OfdmModem {
 public:
  explicit OfdmModem(OfdmParams params);

  const OfdmParams& params() const { return params_; }

  /// Build one time-domain symbol (cp_len + fft_size samples) from values on
  /// the used subcarriers (ascending logical index order, 56 entries).
  CVec modulate_symbol(CSpan used_values) const;

  /// Recover the used-subcarrier values from one received symbol. `symbol`
  /// must be symbol_len() samples; the CP is discarded.
  CVec demodulate_symbol(CSpan symbol) const;

  /// Demodulate with an intra-CP timing offset: start the FFT window
  /// `cp_advance` samples early (robustness margin against multipath that
  /// arrives before the sync point).
  CVec demodulate_symbol(CSpan symbol, std::size_t cp_advance) const;

  /// Build a full burst of symbols; `values` has 56 entries per symbol.
  /// All symbols go through one batched FftPlan::execute_many call (each
  /// transform is bit-identical to the per-symbol path).
  CVec modulate_burst(CSpan values) const;

 private:
  /// Pull the used-subcarrier values out of one FFT output.
  CVec extract_used(CSpan freq, std::size_t cp_advance) const;

  OfdmParams params_;
  dsp::FftPlan plan_;
  std::vector<int> used_;
};

}  // namespace ff::phy
