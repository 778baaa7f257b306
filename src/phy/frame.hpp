// End-to-end SISO packet transmitter and receiver.
//
// Packet layout (Fig. 19 of the paper, downlink form):
//
//   [PN signature (optional, 2 x 80 samples)] STF (160) | LTF (144) |
//   SIGNAL (1 OFDM symbol, BPSK 1/2) | DATA (N OFDM symbols at the MCS)
//
// The optional signature is FF's downlink client identifier (Sec. 6): the
// relay correlates against it and switches in the right constructive filter
// before the standard preamble starts; clients ignore it because their
// decoding only kicks in at the standard WiFi preamble.
//
// The receiver implements packet detection (STF cross-correlation), coarse +
// fine CFO estimation/correction, LS channel estimation from the LTF,
// per-subcarrier equalization with pilot-based common-phase tracking, soft
// demapping, deinterleaving, Viterbi decoding, descrambling and CRC check.
#pragma once

#include <cstdint>
#include <optional>

#include "common/types.hpp"
#include "phy/fec.hpp"
#include "phy/mcs.hpp"
#include "phy/ofdm.hpp"
#include "phy/params.hpp"

namespace ff::phy {

struct TxOptions {
  int mcs_index = 0;
  std::uint32_t signature_client = 0;  // 0 = no PN signature prefix
  std::uint8_t scrambler_seed = 0x5D;
};

/// Length (samples) of the optional PN signature prefix: 4 us repeated
/// twice at 20 Msps.
std::size_t signature_prefix_len(const OfdmParams& params);

class Transmitter {
 public:
  explicit Transmitter(OfdmParams params);

  const OfdmParams& params() const { return params_; }

  /// Build a complete packet at unit mean power. `payload` is a bit
  /// sequence (max 4095 bits).
  CVec modulate(std::span<const std::uint8_t> payload, const TxOptions& opts = {}) const;

 private:
  OfdmParams params_;
  OfdmModem modem_;
};

struct RxResult {
  std::vector<std::uint8_t> payload;
  bool crc_ok = false;
  int mcs_index = 0;
  double cfo_hz = 0.0;           // estimated carrier offset
  double snr_db = 0.0;           // per-subcarrier-averaged estimate from EVM
  double evm_db = 0.0;           // data-symbol EVM vs decided constellation
  CVec channel_est;              // 56 per-subcarrier channel values
  std::size_t sync_index = 0;    // sample index where the STF was found
};

namespace detail {
/// SIGNAL-field payload codec shared by the SISO and MIMO transceivers:
/// 4-bit MCS + 12-bit length + 4-bit checksum, rate-1/2 coded to 52 bits.
std::vector<std::uint8_t> encode_signal_field(int mcs_index, std::size_t payload_bits);
struct SignalField {
  int mcs_index = 0;
  std::size_t payload_bits = 0;
};
std::optional<SignalField> decode_signal_field(std::span<const std::uint8_t> bits);
std::size_t signal_field_bits();
}  // namespace detail

class Receiver {
 public:
  explicit Receiver(OfdmParams params);

  const OfdmParams& params() const { return params_; }

  /// Detect and decode the first packet in `samples`. Returns nullopt when
  /// no preamble is found or the SIGNAL field is undecodable.
  std::optional<RxResult> receive(CSpan samples) const;

  /// Decode a packet whose preamble starts at `start` (skips detection —
  /// used by tests and by the relay, which has its own detection).
  std::optional<RxResult> receive_at(CSpan samples, std::size_t start) const;

  /// Packet detection only: index where the STF begins, if found.
  std::optional<std::size_t> detect_preamble(CSpan samples, double threshold = 0.6) const;

 private:
  OfdmParams params_;
  OfdmModem modem_;
};

}  // namespace ff::phy
