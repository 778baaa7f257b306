// Sample-level relay walk-through: every stage of the FF device on a real
// packet, printed with powers and latencies — the Fig. 3 block diagram as a
// runnable program.
//
//   1. A WiFi packet leaves the AP (with the client's PN signature prefix).
//   2. The relay's PN correlator identifies the destination client.
//   3. The self-interference cancellation stack is tuned (Gaussian probe).
//   4. The forward pipeline (CFO remove -> CNF pre-filter -> CFO restore ->
//      amplify -> analog rotation -> TX filter, run as the one FIR those
//      stages compose to) produces the relayed signal.
//   5. The client receives direct + relayed and decodes; compare SNR with
//      and without the relay.
//
//   ./examples/relay_pipeline [--seed N] [--metrics out.json]
#include <cstdio>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "dsp/correlation.hpp"
#include "dsp/fir.hpp"
#include "dsp/noise.hpp"
#include "eval/cli.hpp"
#include "eval/testbed.hpp"
#include "eval/timedomain.hpp"
#include "fullduplex/si_channel.hpp"
#include "fullduplex/stack.hpp"
#include "ident/pn_detector.hpp"
#include "phy/frame.hpp"

using namespace ff;

int main(int argc, char** argv) {
  std::uint64_t seed = 7;
  eval::MetricsSink metrics;
  eval::Cli cli("relay_pipeline",
                "Sample-level walk-through of the FF device on one packet: "
                "identification, SI cancellation tuning, and forwarding.");
  cli.add_option("--seed", &seed, "scenario RNG seed");
  metrics.register_options(cli);
  if (!cli.parse(argc, argv)) return cli.exit_code();

  const phy::OfdmParams params;
  Rng rng(seed);

  // ---- Scenario: the paper's home, client in the far bedroom.
  eval::TestbedConfig cfg;
  cfg.antennas = 1;
  const auto plan = channel::FloorPlan::paper_home();
  const auto placement = eval::make_placement(plan);
  const channel::Point client{7.9, 5.7};
  auto link = eval::build_td_link(placement, client, cfg, rng);
  std::printf("Channels: AP->client %.1f dB, AP->relay %.1f dB, relay->client %.1f dB\n",
              link.sd.power_gain_db(), link.sr.power_gain_db(), link.rd.power_gain_db());
  std::printf("Source CFO vs destination: %+.1f kHz\n\n", link.source_cfo_hz / 1e3);

  // ---- Stage 1: the AP's packet, with the client's signature prefix.
  const phy::Transmitter tx(params);
  std::vector<std::uint8_t> payload(600);
  for (auto& b : payload) b = rng.bernoulli(0.5) ? 1 : 0;
  phy::TxOptions txo;
  txo.mcs_index = 3;
  txo.signature_client = 2;
  const CVec packet = tx.modulate(payload, txo);
  std::printf("[AP]    packet: %zu samples (%.0f us) incl. %zu-sample signature prefix\n",
              packet.size(), 1e6 * packet.size() / params.sample_rate_hz,
              phy::signature_prefix_len(params));

  // ---- Stage 2: the relay identifies the destination from the prefix.
  {
    CVec at_relay = link.sr.apply(packet, params.sample_rate_hz, -8.0 / params.sample_rate_hz);
    dsp::set_mean_power(at_relay, power_from_db(-65.0));
    dsp::add_awgn(rng, at_relay, power_from_db(-90.0));
    ident::PnSignatureDetector det;
    for (std::uint32_t c = 1; c <= 4; ++c)
      det.register_client(c, phy::signature_prefix_len(params) / 2);
    const auto hit = det.detect(at_relay);
    if (hit)
      std::printf("[relay] PN signature matched: client %u (peak %.2f) -> load its CNF "
                  "filter\n", hit->client, hit->peak);
    else
      std::printf("[relay] no signature match -> stay silent (harmless false negative)\n");
  }

  // ---- Stage 3: tune the cancellation stack (Sec. 3.3).
  {
    const double fs = 20e6;
    const auto si = fd::make_si_channel(rng);
    const CVec si_fir = fd::si_loop_fir(si, fs);
    const std::size_t n = 16000;
    CVec source = dsp::awgn_dbm(rng, n, -70.0);
    CVec relay_tx(n, Complex{});
    for (std::size_t i = 2; i < n; ++i) relay_tx[i] = source[i - 2];
    dsp::set_mean_power(relay_tx, power_from_db(20.0));
    const CVec probe = fd::inject_probe(rng, relay_tx, 30.0, metrics.registry());
    const CVec si_sig = dsp::filter(si_fir, relay_tx);
    CVec port(n);
    const CVec thermal = dsp::awgn_dbm(rng, n, -90.0);
    for (std::size_t i = 0; i < n; ++i) port[i] = source[i] + si_sig[i] + thermal[i];
    fd::StackConfig stack_cfg;
    stack_cfg.metrics = metrics.registry();
    fd::CancellationStack stack(stack_cfg);
    stack.tune(relay_tx, probe, port);
    const CVec si_only = si_sig;  // measure on the SI component alone
    const CVec after_analog = stack.apply_analog_only(relay_tx, si_only);
    const CVec after_all = stack.apply(relay_tx, si_only);
    std::printf("[relay] SI cancellation tuned: analog %.1f dB, total %.1f dB "
                "(TX 20 dBm -> residual %.1f dBm)\n",
                20.0 - dsp::mean_power_db(after_analog),
                20.0 - dsp::mean_power_db(after_all), dsp::mean_power_db(after_all));
  }

  // ---- Stage 4+5: forward the packet and decode at the client.
  auto pipeline = eval::make_ff_pipeline(link, params, 0.0);
  pipeline.metrics = metrics.registry();
  std::printf("[relay] forward pipeline: gain %.1f dB, %zu-tap CNF pre-filter, analog "
              "rotation %.0f deg, bulk delay %.0f ns\n",
              pipeline.gain_db, pipeline.prefilter.size(),
              deg_from_rad(std::arg(pipeline.analog_rotation)),
              1e9 * pipeline.adc_dac_delay_samples / pipeline.sample_rate_hz);

  eval::TdRunOptions without;
  without.use_relay = false;
  without.mcs_index = 3;
  Rng rng_a(100);
  const auto base = eval::run_td_packet(link, without, rng_a);
  eval::TdRunOptions with;
  with.pipeline = pipeline;
  with.mcs_index = 3;
  Rng rng_b(100);
  const auto relayed = eval::run_td_packet(link, with, rng_b);

  const auto show = [](const char* name, const eval::TdRunResult& r) {
    if (!r.decoded)
      std::printf("%s: packet not decodable\n", name);
    else
      std::printf("%s: SNR %5.1f dB -> best rate %5.1f Mbps (CRC %s, relayed-path extra "
                  "delay %.0f ns)\n",
                  name, r.snr_db, r.throughput_mbps, r.crc_ok ? "ok" : "FAIL",
                  r.relay_extra_delay_s * 1e9);
  };
  show("[client] AP only    ", base);
  show("[client] AP+FF relay", relayed);
  return metrics.write() ? 0 : 1;
}
