// 802.11-style preamble: short training field (STF, 10 repetitions of a
// 16-sample word) and long training field (LTF, double-length guard plus two
// 64-sample words).
//
// The preamble matters twice in this system: the OFDM receiver uses it for
// sync / CFO / channel estimation as usual, and the FF relay's uplink sender
// identification (Sec. 6) fingerprints the channel-transformed STF against a
// per-client database.
#pragma once

#include "common/types.hpp"
#include "phy/params.hpp"

namespace ff::phy {

/// Frequency-domain STF values on the 56 used subcarriers (ascending index
/// order). Non-zero on every 4th subcarrier, which makes the time signal
/// periodic with period 16.
CVec stf_used_values(const OfdmParams& params);

/// Frequency-domain LTF values (+-1 on all 56 used subcarriers).
CVec ltf_used_values(const OfdmParams& params);

/// Time-domain STF: 10 repetitions of the 16-sample word (160 samples),
/// unit average power.
CVec stf_time(const OfdmParams& params);

/// Time-domain LTF: 2*cp guard followed by two 64-sample words
/// (2*cp + 128 samples), unit average power.
CVec ltf_time(const OfdmParams& params);

/// Complete preamble: STF followed by LTF.
CVec preamble_time(const OfdmParams& params);

/// Coarse CFO estimate from STF periodicity: the phase drift across one
/// 16-sample period. Averages over the whole STF span in `rx`.
/// `rx` must contain the STF starting at index 0.
double estimate_cfo_stf(CSpan rx, const OfdmParams& params);

/// Fine CFO estimate from the two repeated LTF words (`rx` starts at the
/// first LTF word, i.e. after the LTF guard).
double estimate_cfo_ltf(CSpan rx, const OfdmParams& params);

/// Least-squares channel estimate on the 56 used subcarriers from the two
/// received LTF words (`rx` starts at the first LTF word). Averages the two.
CVec estimate_channel_ltf(CSpan rx, const OfdmParams& params);

}  // namespace ff::phy
