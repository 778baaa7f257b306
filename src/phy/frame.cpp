#include "phy/frame.hpp"

#include <algorithm>
#include <cmath>

#include "channel/cfo.hpp"
#include "common/check.hpp"
#include "common/units.hpp"
#include "dsp/correlation.hpp"
#include "dsp/sequence.hpp"
#include "phy/crc.hpp"
#include "phy/interleaver.hpp"
#include "phy/preamble.hpp"
#include "phy/scrambler.hpp"

namespace ff::phy {

namespace {

constexpr std::size_t kSignalMsgBits = 20;  // 4 mcs + 12 length + 4 checksum

std::vector<std::uint8_t> signal_message(int mcs_index, std::size_t payload_bits) {
  FF_CHECK(mcs_index >= 0 && mcs_index < 16);
  FF_CHECK_MSG(payload_bits < 4096, "payload too long for the 12-bit length field");
  std::vector<std::uint8_t> bits;
  bits.reserve(kSignalMsgBits);
  for (int i = 3; i >= 0; --i) bits.push_back(static_cast<std::uint8_t>((mcs_index >> i) & 1));
  for (int i = 11; i >= 0; --i)
    bits.push_back(static_cast<std::uint8_t>((payload_bits >> i) & 1));
  // 4-bit checksum: XOR of the four nibbles.
  std::uint8_t sum = 0;
  for (std::size_t i = 0; i < 16; i += 4) {
    std::uint8_t nib = 0;
    for (std::size_t j = 0; j < 4; ++j) nib = static_cast<std::uint8_t>((nib << 1) | bits[i + j]);
    sum ^= nib;
  }
  for (int i = 3; i >= 0; --i) bits.push_back(static_cast<std::uint8_t>((sum >> i) & 1));
  return bits;
}

struct SignalInfo {
  int mcs_index = 0;
  std::size_t payload_bits = 0;
};

std::optional<SignalInfo> parse_signal(std::span<const std::uint8_t> bits) {
  if (bits.size() != kSignalMsgBits) return std::nullopt;
  int mcs = 0;
  for (int i = 0; i < 4; ++i) mcs = (mcs << 1) | bits[static_cast<std::size_t>(i)];
  std::size_t len = 0;
  for (int i = 0; i < 12; ++i) len = (len << 1) | bits[static_cast<std::size_t>(4 + i)];
  std::uint8_t sum = 0;
  for (std::size_t i = 0; i < 16; i += 4) {
    std::uint8_t nib = 0;
    for (std::size_t j = 0; j < 4; ++j) nib = static_cast<std::uint8_t>((nib << 1) | bits[i + j]);
    sum ^= nib;
  }
  std::uint8_t got = 0;
  for (std::size_t i = 16; i < 20; ++i) got = static_cast<std::uint8_t>((got << 1) | bits[i]);
  if (sum != got) return std::nullopt;
  if (mcs >= static_cast<int>(mcs_table().size())) return std::nullopt;
  return SignalInfo{mcs, len};
}

/// Pilot polarity for data symbol s (deterministic, shared by TX and RX).
double pilot_polarity(std::size_t symbol_index) {
  // 127-periodic 802.11 polarity sequence from the scrambler LFSR.
  static const std::vector<std::uint8_t> seq = [] {
    auto lfsr = dsp::Lfsr::scrambler(0x7F);
    return lfsr.bits(127);
  }();
  return seq[symbol_index % seq.size()] ? -1.0 : 1.0;
}

/// Indices of pilots/data within the 56-entry used-subcarrier array.
struct SubcarrierLayout {
  std::vector<std::size_t> pilot_pos;  // 4 positions
  std::vector<std::size_t> data_pos;   // 52 positions
};

SubcarrierLayout layout(const OfdmParams& params) {
  SubcarrierLayout out;
  const auto used = params.used_subcarriers();
  const auto pilots = params.pilot_subcarriers();
  for (std::size_t i = 0; i < used.size(); ++i) {
    if (std::find(pilots.begin(), pilots.end(), used[i]) != pilots.end())
      out.pilot_pos.push_back(i);
    else
      out.data_pos.push_back(i);
  }
  return out;
}

}  // namespace

namespace detail {

std::vector<std::uint8_t> encode_signal_field(int mcs_index, std::size_t payload_bits) {
  return signal_message(mcs_index, payload_bits);
}

std::optional<SignalField> decode_signal_field(std::span<const std::uint8_t> bits) {
  const auto info = parse_signal(bits);
  if (!info) return std::nullopt;
  return SignalField{info->mcs_index, info->payload_bits};
}

std::size_t signal_field_bits() { return kSignalMsgBits; }

}  // namespace detail

std::size_t signature_prefix_len(const OfdmParams& params) {
  // 4 us repeated twice.
  return 2 * static_cast<std::size_t>(4e-6 * params.sample_rate_hz);
}

Transmitter::Transmitter(OfdmParams params) : params_(params), modem_(params) {}

CVec Transmitter::modulate(std::span<const std::uint8_t> payload, const TxOptions& opts) const {
  const Mcs& mcs = mcs_table().at(static_cast<std::size_t>(opts.mcs_index));
  const auto lay = layout(params_);
  const std::size_t n_data_sc = lay.data_pos.size();

  CVec out;
  // Optional FF downlink signature prefix (Sec. 6).
  if (opts.signature_client != 0) {
    const std::size_t half = signature_prefix_len(params_) / 2;
    const CVec sig = dsp::pn_signature(opts.signature_client, half);
    out.insert(out.end(), sig.begin(), sig.end());
    out.insert(out.end(), sig.begin(), sig.end());
  }

  // Standard preamble.
  const CVec pre = preamble_time(params_);
  out.insert(out.end(), pre.begin(), pre.end());

  // SIGNAL symbol: BPSK rate 1/2, not scrambled.
  {
    const auto msg = signal_message(opts.mcs_index, payload.size());
    auto coded = convolutional_encode(msg, CodeRate::R1_2);
    // 52 coded bits fill the WiFi numerology exactly; wider numerologies
    // zero-pad the rest of the SIGNAL symbol.
    FF_CHECK(coded.size() <= n_data_sc);
    coded.resize(n_data_sc, 0);
    coded = interleave(coded, Modulation::BPSK, n_data_sc);
    const CVec syms = phy::modulate(coded, Modulation::BPSK);
    CVec used(params_.used_subcarriers().size(), Complex{});
    for (std::size_t i = 0; i < lay.data_pos.size(); ++i) used[lay.data_pos[i]] = syms[i];
    for (const std::size_t p : lay.pilot_pos) used[p] = Complex{pilot_polarity(0), 0.0};
    const CVec sym = modem_.modulate_symbol(used);
    out.insert(out.end(), sym.begin(), sym.end());
  }

  // DATA symbols.
  {
    std::vector<std::uint8_t> msg = append_crc(payload);
    msg = scramble(msg, opts.scrambler_seed);
    auto coded = convolutional_encode(msg, mcs.rate);
    const std::size_t n_cbps = n_data_sc * bits_per_symbol(mcs.modulation);
    const std::size_t n_sym = (coded.size() + n_cbps - 1) / n_cbps;
    coded.resize(n_sym * n_cbps, 0);
    coded = interleave(coded, mcs.modulation, n_data_sc);
    const CVec syms = phy::modulate(coded, mcs.modulation);
    for (std::size_t s = 0; s < n_sym; ++s) {
      CVec used(params_.used_subcarriers().size(), Complex{});
      for (std::size_t i = 0; i < n_data_sc; ++i)
        used[lay.data_pos[i]] = syms[s * n_data_sc + i];
      const double pol = pilot_polarity(s + 1);
      for (const std::size_t p : lay.pilot_pos) used[p] = Complex{pol, 0.0};
      const CVec sym = modem_.modulate_symbol(used);
      out.insert(out.end(), sym.begin(), sym.end());
    }
  }
  return out;
}

Receiver::Receiver(OfdmParams params) : params_(params), modem_(params) {}

std::optional<std::size_t> Receiver::detect_preamble(CSpan samples, double threshold) const {
  // Stage 1 — coarse, Schmidl-Cox delay-and-correlate on the STF's 16-sample
  // periodicity: P(n) = sum r*[n+k] r[n+k+16] over three words, normalized
  // by the window energy. Any (multipath, relayed, CFO-rotated) channel
  // preserves the periodicity, so the metric is channel-independent —
  // unlike a cross-correlation against the clean STF, which smears as soon
  // as a strong delayed copy (e.g. an FF relay's) arrives.
  const std::size_t word = params_.fft_size / 4;
  const std::size_t span = 3 * word;
  if (samples.size() < span + word + 1) return std::nullopt;
  std::optional<std::size_t> coarse;
  Complex p{0.0, 0.0};
  double r_energy = 0.0;
  for (std::size_t k = 0; k < span; ++k) {
    p += std::conj(samples[k]) * samples[k + word];
    r_energy += std::norm(samples[k + word]);
  }
  const std::size_t probe = 4 * word;  // fine-stage search granularity below
  for (std::size_t n = 0;; ++n) {
    if (r_energy > 1e-30 && std::abs(p) / r_energy >= threshold) {
      coarse = n;
      break;
    }
    if (n + span + word + 1 >= samples.size()) break;
    p += std::conj(samples[n + span]) * samples[n + span + word] -
         std::conj(samples[n]) * samples[n + word];
    r_energy += std::norm(samples[n + span + word]) - std::norm(samples[n + word]);
  }
  if (!coarse) return std::nullopt;

  // Stage 2 — fine: cross-correlate with the first (non-periodic) LTF word
  // around the position the coarse estimate implies, and anchor timing on
  // the earliest of the two equal-height word peaks.
  const std::size_t stf_len = 10 * (params_.fft_size / 4);
  const std::size_t ltf_guard = 2 * params_.cp_len;
  const CVec ltf = ltf_time(params_);
  const CSpan ltf_word = CSpan(ltf).subspan(ltf_guard, params_.fft_size);

  const std::size_t ltf_nominal = *coarse + stf_len + ltf_guard;
  const std::size_t lo = ltf_nominal > 2 * probe ? ltf_nominal - 2 * probe : 0;
  const std::size_t hi =
      std::min(samples.size(), ltf_nominal + 2 * probe + params_.fft_size);
  if (lo + params_.fft_size >= hi) return std::nullopt;
  const auto fine = dsp::normalized_correlation(samples.subspan(lo, hi - lo), ltf_word);
  if (fine.empty()) return std::nullopt;
  std::size_t peak = dsp::argmax(fine);
  // The LTF repeats, so the correlation has two near-equal peaks 64 samples
  // apart; take the earlier of the pair.
  for (std::size_t n = 0; n < peak; ++n) {
    if (fine[n] >= 0.90 * fine[peak]) {
      peak = n;
      break;
    }
  }
  // Then anchor timing on the EARLIEST significant channel tap: with a
  // strong delayed copy (relay) the global peak sits on the late path, and
  // locking to it would turn the early path into pre-cursor ISI.
  std::size_t first = peak;
  const std::size_t lookback = std::min<std::size_t>(peak, params_.cp_len);
  for (std::size_t n = peak - lookback; n < peak; ++n) {
    if (fine[n] >= 0.30 * fine[peak]) {
      first = n;
      break;
    }
  }
  const std::size_t ltf_word1 = lo + first;
  // Back the sync point off by 2 samples: when a strong relayed/multipath
  // copy dominates the correlation, the earliest (weaker) arrival would
  // otherwise sit BEFORE the FFT window and become pre-cursor ISI that the
  // cyclic prefix cannot absorb. The early window converts it into ordinary
  // CP-protected spread (the LTF's double-length guard tolerates the shift).
  constexpr std::size_t kSyncBackoff = 2;
  // The earliest-tap search can land a sample or two before the true word
  // (the LTF autocorrelation mainlobe is a few samples wide for numerologies
  // with dense tone occupancy); clamp packets that begin at the buffer edge
  // rather than rejecting them.
  const std::size_t ref = stf_len + ltf_guard + kSyncBackoff;
  return ltf_word1 >= ref ? ltf_word1 - ref : 0;
}

std::optional<RxResult> Receiver::receive(CSpan samples) const {
  const auto start = detect_preamble(samples);
  if (!start) return std::nullopt;
  return receive_at(samples, *start);
}

std::optional<RxResult> Receiver::receive_at(CSpan samples, std::size_t start) const {
  const std::size_t stf_len = 10 * (params_.fft_size / 4);
  const std::size_t ltf_guard = 2 * params_.cp_len;
  const std::size_t ltf_len = ltf_guard + 2 * params_.fft_size;
  const std::size_t sym_len = params_.symbol_len();
  if (start + stf_len + ltf_len + sym_len > samples.size()) return std::nullopt;

  // ---- CFO estimation and correction ----
  const CSpan stf_rx = samples.subspan(start, stf_len);
  const double coarse = estimate_cfo_stf(stf_rx, params_);
  // Correct everything from `start` onwards.
  CVec corrected(samples.begin() + static_cast<long>(start), samples.end());
  corrected = channel::apply_cfo(corrected, -coarse, params_.sample_rate_hz);
  const CSpan ltf_words = CSpan(corrected).subspan(stf_len + ltf_guard, 2 * params_.fft_size);
  const double fine = estimate_cfo_ltf(ltf_words, params_);
  {
    // Apply the residual fine correction with phase continuity from the LTF.
    channel::CfoRotator rot(-fine, params_.sample_rate_hz);
    corrected = rot.process(corrected);
  }
  const double cfo_total = coarse + fine;

  // ---- Channel estimation ----
  const CSpan ltf_again = CSpan(corrected).subspan(stf_len + ltf_guard, 2 * params_.fft_size);
  const CVec h = estimate_channel_ltf(ltf_again, params_);

  // Per-subcarrier noise estimate from the difference of the two LTF words.
  const auto used = params_.used_subcarriers();
  double noise_var = 0.0;
  {
    const dsp::FftPlan& plan = dsp::FftPlan::cached(params_.fft_size);
    CVec w1(ltf_again.begin(), ltf_again.begin() + static_cast<long>(params_.fft_size));
    CVec w2(ltf_again.begin() + static_cast<long>(params_.fft_size), ltf_again.end());
    plan.forward(w1);
    plan.forward(w2);
    const double norm = 1.0 / std::sqrt(static_cast<double>(params_.fft_size) *
                                        static_cast<double>(params_.fft_size) /
                                        static_cast<double>(used.size()));
    double acc = 0.0;
    for (const int k : used) {
      const std::size_t b = params_.fft_bin(k);
      acc += std::norm((w1[b] - w2[b]) * norm);
    }
    // Var of (n1 - n2)/1 is 2 sigma^2; the two-word average halves it again.
    noise_var = std::max(acc / (2.0 * static_cast<double>(used.size())), 1e-30);
  }

  const auto lay = layout(params_);
  const std::size_t n_data_sc = lay.data_pos.size();

  auto equalize_symbol = [&](std::size_t offset, std::size_t pilot_index,
                             CVec& data_out, double& noise_out) -> bool {
    if (offset + sym_len > corrected.size()) return false;
    const CVec y = modem_.demodulate_symbol(CSpan(corrected).subspan(offset, sym_len));
    // Common phase error from pilots.
    Complex cpe{0.0, 0.0};
    const double pol = pilot_polarity(pilot_index);
    for (const std::size_t p : lay.pilot_pos) cpe += y[p] * std::conj(h[p] * pol);
    const Complex rot = std::abs(cpe) > 1e-30 ? cpe / std::abs(cpe) : Complex{1.0, 0.0};
    data_out.resize(n_data_sc);
    double nv = 0.0;
    for (std::size_t i = 0; i < n_data_sc; ++i) {
      const std::size_t p = lay.data_pos[i];
      const double hg = std::max(std::norm(h[p]), 1e-30);
      data_out[i] = y[p] * std::conj(rot) / h[p];
      nv += noise_var / hg;
    }
    noise_out = nv / static_cast<double>(n_data_sc);
    return true;
  };

  // ---- SIGNAL ----
  RxResult result;
  result.cfo_hz = cfo_total;
  result.channel_est = h;
  result.sync_index = start;
  const std::size_t sig_offset = stf_len + ltf_len;
  CVec sig_eq;
  double sig_noise = 0.0;
  if (!equalize_symbol(sig_offset, 0, sig_eq, sig_noise)) return std::nullopt;
  {
    auto llrs = demodulate_soft(sig_eq, Modulation::BPSK, sig_noise);
    auto deint = deinterleave(llrs, Modulation::BPSK, n_data_sc);
    deint.resize(coded_length(kSignalMsgBits, CodeRate::R1_2));  // drop the pad
    const auto msg = viterbi_decode(deint, CodeRate::R1_2, kSignalMsgBits);
    const auto info = parse_signal(msg);
    if (!info) return std::nullopt;
    result.mcs_index = info->mcs_index;

    const Mcs& mcs = mcs_table().at(static_cast<std::size_t>(info->mcs_index));
    const std::size_t n_cbps = n_data_sc * bits_per_symbol(mcs.modulation);
    const std::size_t coded = coded_length(info->payload_bits + 32, mcs.rate);
    const std::size_t n_sym = (coded + n_cbps - 1) / n_cbps;

    // ---- DATA ----
    std::vector<double> llr_stream;
    llr_stream.reserve(n_sym * n_cbps);
    double evm_acc = 0.0;
    std::size_t evm_count = 0;
    for (std::size_t s = 0; s < n_sym; ++s) {
      CVec eq;
      double nv = 0.0;
      if (!equalize_symbol(sig_offset + (s + 1) * sym_len, s + 1, eq, nv)) return std::nullopt;
      auto sym_llrs = demodulate_soft(eq, mcs.modulation, nv);
      const auto deint = deinterleave(sym_llrs, mcs.modulation, n_data_sc);
      llr_stream.insert(llr_stream.end(), deint.begin(), deint.end());
      // EVM against hard decisions.
      const auto hard = demodulate_hard(eq, mcs.modulation);
      const CVec ideal = phy::modulate(hard, mcs.modulation);
      for (std::size_t i = 0; i < eq.size(); ++i) {
        evm_acc += std::norm(eq[i] - ideal[i]);
        ++evm_count;
      }
    }
    llr_stream.resize(coded);  // drop the zero-padding tail
    auto decoded = viterbi_decode(llr_stream, mcs.rate, info->payload_bits + 32);
    decoded = scramble(decoded);  // involution
    result.crc_ok = check_crc(decoded);
    decoded.resize(info->payload_bits);
    result.payload = std::move(decoded);
    if (evm_count > 0 && evm_acc > 0.0) {
      const double evm = evm_acc / static_cast<double>(evm_count);
      result.evm_db = db_from_power(evm);
      result.snr_db = -result.evm_db;  // unit-power constellations
    } else {
      result.evm_db = -100.0;
      result.snr_db = 100.0;
    }
  }
  return result;
}

}  // namespace ff::phy
