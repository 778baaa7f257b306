// Streaming relay session: the time-domain link of eval/timedomain.hpp
// rebuilt as an online element graph (src/stream/), processing IQ in
// bounded blocks instead of materialized whole-session vectors.
//
//   packets ── cfo ── tee ──────────── direct channel ── queue ──┐
//                      │                                         add ── sink
//                      └── S->R channel ── relay pipeline ── R->D channel ┘
//
// The relay pipeline is the FF design for this link (make_ff_pipeline: CNF
// split, CFO remove/restore, noise-aware gain), running at the 4x converter
// oversampling rate. The destination stream is collected and decoded with
// the standard WiFi receiver, so the run ends with a real CRC verdict.
//
// The session is expressed as a graph *description* (stream/lang.hpp): the
// link physics are derived exactly as the batch evaluator derives them,
// then printed into a GraphSpec and built through the element registry.
// --dump-graph writes that description (examples/relay.ff is this file's
// output); --graph runs an edited description instead; --set calls write
// handlers (fir taps, cfo retunes, gate overrides) before the run. The
// text round trip is bit-exact: a session built from the printed graph
// produces the same samples as the hand-wired construction
// (tests/lang_test.cpp pins the checksum).
//
// Everything is deterministic: the output stream is bit-identical for any
// --block-size, --mode and --threads choice (tests/stream_test.cpp holds the
// runtime to that), so the knobs trade latency and memory against overhead
// without touching the physics.
//
// --mode selects the scheduler: 'reference' runs the graph as one chain in
// deterministic rounds on the calling thread, 'throughput' cuts it into
// --threads element chains, one worker thread each, connected by lock-free
// SPSC rings (--batch-size blocks per transfer). Both produce the same
// samples; throughput mode exists for rate, not physics.
//
// Usage: streaming_relay [--block-size N] [--duration S] [--backpressure B]
//                        [--threads T] [--mode reference|throughput]
//                        [--batch-size N]
//                        [--precision f64|f32]
//                        [--graph session.ff] [--set elem.handler=value]...
//                        [--dump-graph out.ff]
//                        [--seed S] [--metrics out.json]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <vector>

#include "channel/floorplan.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "dsp/correlation.hpp"
#include "dsp/resample.hpp"
#include "eval/cli.hpp"
#include "eval/testbed.hpp"
#include "eval/timedomain.hpp"
#include "phy/frame.hpp"
#include "stream/elements.hpp"
#include "stream/graph.hpp"
#include "stream/lang.hpp"
#include "stream/scheduler.hpp"

using namespace ff;

namespace {

constexpr std::size_t kOversample = 4;  // the evaluator's converter rate

// Two-sided interpolation lead for sub-sample path delays, matching the
// batch evaluator (eval/timedomain.cpp): the direct path gets twice the
// lead so both arrival paths share identical total alignment.
constexpr double kAlignSamples = 16.0;

struct PacketShape {
  std::size_t stride;      // samples per staged packet (incl. gap), hi rate
  double mean_power;       // over the modulated part, before any gain
};

/// Shape of one staged packet at the oversampled rate (the payload bits
/// don't change the length or, to first order, the power).
PacketShape packet_shape(const stream::PacketSourceConfig& pc) {
  const phy::Transmitter tx(pc.params);
  const std::vector<std::uint8_t> payload(pc.payload_bits, 0);
  phy::TxOptions txo;
  txo.mcs_index = pc.mcs_index;
  txo.signature_client = pc.signature_client;
  const CVec hi = dsp::upsample(tx.modulate(payload, txo), pc.oversample);
  return {hi.size() + pc.gap_samples, dsp::mean_power(hi)};
}

/// `paths` value for a Channel declaration: delay:amp entries, %.17g both
/// sides so the rebuilt MultipathChannel discretizes to identical taps.
std::string format_paths(const channel::MultipathChannel& ch) {
  std::string out;
  for (const auto& tap : ch.taps()) {
    if (!out.empty()) out += ",";
    out += stream::format_double(tap.delay_s) + ":" + stream::format_complex(tap.amp);
  }
  return out;
}

stream::Params channel_params(const stream::ChannelElementConfig& cfg,
                              std::uint64_t seed) {
  stream::Params p;
  p.set("paths", format_paths(cfg.channel));
  p.set("fc", stream::format_double(cfg.channel.carrier_hz()));
  p.set("rate", stream::format_double(cfg.sample_rate_hz));
  p.set("delay_ref", stream::format_double(cfg.delay_ref_s));
  if (cfg.noise_power > 0.0) p.set("noise", stream::format_double(cfg.noise_power));
  p.set("seed", std::to_string(seed));
  if (cfg.precision == Precision::kF32) p.set("precision", "f32");
  return p;
}

/// Print the derived session into a graph description. Every value is
/// formatted to round-trip exactly, so building this spec reproduces the
/// hand-wired construction bit for bit.
stream::GraphSpec make_session_spec(const stream::PacketSourceConfig& pc,
                                    std::size_t block_size, double tx_amp,
                                    double source_cfo_hz, double fs_hi,
                                    const stream::ChannelElementConfig& sd,
                                    const stream::ChannelElementConfig& sr,
                                    const stream::ChannelElementConfig& rd,
                                    const relay::PipelineConfig& pipe) {
  stream::GraphSpec spec;
  spec.source = "<session>";

  auto decl = [&spec](const char* name, const char* cls, stream::Params params) {
    stream::ElementDecl d;
    d.name = name;
    d.class_name = cls;
    d.params = std::move(params);
    spec.decls.push_back(std::move(d));
  };

  stream::Params src;
  src.set("mcs", std::to_string(pc.mcs_index));
  src.set("payload_bits", std::to_string(pc.payload_bits));
  src.set("packets", std::to_string(pc.n_packets));
  src.set("gap", std::to_string(pc.gap_samples));
  src.set("oversample", std::to_string(pc.oversample));
  src.set("seed", std::to_string(pc.seed));
  src.set("block", std::to_string(block_size));
  decl("src", "PacketSource", std::move(src));

  stream::Params txgain;
  txgain.set("taps", stream::format_cvec(CVec{Complex{tx_amp, 0.0}}));
  decl("txgain", "Fir", std::move(txgain));

  stream::Params cfo;
  cfo.set("hz", stream::format_double(source_cfo_hz));
  cfo.set("rate", stream::format_double(fs_hi));
  if (pipe.precision == Precision::kF32) cfo.set("precision", "f32");
  decl("src_cfo", "Cfo", std::move(cfo));

  decl("tee", "Tee", {});
  decl("chan_sd", "Channel", channel_params(sd, sd.seed));
  decl("q", "Queue", {});
  decl("chan_sr", "Channel", channel_params(sr, sr.seed));

  stream::Params relay;
  relay.set("rate", stream::format_double(pipe.sample_rate_hz));
  relay.set("adc_dac_delay", std::to_string(pipe.adc_dac_delay_samples));
  relay.set("extra_buffer", std::to_string(pipe.extra_buffer_samples));
  relay.set("cfo_hz", stream::format_double(pipe.cfo_hz));
  relay.set("restore_cfo", pipe.restore_cfo ? "true" : "false");
  relay.set("prefilter", stream::format_cvec(pipe.prefilter));
  relay.set("analog_rotation", stream::format_complex(pipe.analog_rotation));
  relay.set("gain_db", stream::format_double(pipe.gain_db));
  if (!pipe.tx_filter.empty())
    relay.set("tx_filter", stream::format_cvec(pipe.tx_filter));
  if (pipe.precision == Precision::kF32) relay.set("precision", "f32");
  decl("relay", "Pipeline", std::move(relay));

  decl("chan_rd", "Channel", channel_params(rd, rd.seed));
  decl("add", "Add2", {});
  decl("sink", "AccumulatorSink", {});

  auto edge = [&spec](const char* from, std::size_t from_port, const char* to,
                      std::size_t to_port) {
    stream::Connection c;
    c.from = from;
    c.from_port = from_port;
    c.to = to;
    c.to_port = to_port;
    spec.connections.push_back(std::move(c));
  };
  edge("src", 0, "txgain", 0);
  edge("txgain", 0, "src_cfo", 0);
  edge("src_cfo", 0, "tee", 0);
  edge("tee", 0, "chan_sd", 0);
  edge("chan_sd", 0, "q", 0);
  edge("q", 0, "add", 0);
  edge("tee", 1, "chan_sr", 0);
  edge("chan_sr", 0, "relay", 0);
  edge("relay", 0, "chan_rd", 0);
  edge("chan_rd", 0, "add", 1);
  edge("add", 0, "sink", 0);
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  eval::StreamCli stream_cli;
  std::uint64_t seed = 20140817;
  int mcs = 3;
  std::string dump_graph;
  eval::Cli cli("streaming_relay",
                "Run one FastForward downlink as a streaming element graph: "
                "packets flow through the direct path and the relay's forward "
                "pipeline in bounded blocks, are superposed at the client, and "
                "decoded. The session is a graph description (--dump-graph to "
                "see it, --graph to run an edited one).");
  stream_cli.register_options(cli);
  cli.add_option("--seed", &seed, "link/payload RNG seed");
  cli.add_option("--mcs", &mcs, "packet MCS index");
  cli.add_option("--dump-graph", &dump_graph,
                 "write the derived session's graph description to this file "
                 "and exit (examples/relay.ff is this output)");
  if (!cli.parse(argc, argv)) return cli.exit_code();
  if (!stream_cli.validate()) return 2;

  // ---- the link (same construction as the batch time-domain evaluator).
  const eval::TestbedConfig tb;
  const auto plan = channel::FloorPlan::paper_home();
  const auto placement = eval::make_placement(plan);
  Rng rng(seed);
  const channel::Point client{6.0, 4.0};
  eval::TimeDomainLink link = eval::build_td_link(placement, client, tb, rng);
  const double fs_hi = tb.ofdm.sample_rate_hz * static_cast<double>(kOversample);

  relay::PipelineConfig pipeline_cfg =
      eval::make_ff_pipeline(link, tb.ofdm, /*extra_latency_s=*/0.0);

  // ---- session sizing from --duration.
  stream::PacketSourceConfig pc;
  pc.params = tb.ofdm;
  pc.mcs_index = mcs;
  pc.payload_bits = 600;
  pc.gap_samples = 400 * kOversample;
  pc.oversample = kOversample;
  pc.seed = seed;
  const PacketShape shape = packet_shape(pc);
  const auto want_samples =
      static_cast<std::size_t>(stream_cli.duration_s() * fs_hi);
  pc.n_packets = std::max<std::size_t>(1, want_samples / shape.stride);

  // ---- the graph description.
  const double align_s = kAlignSamples / fs_hi;
  // Transmit power: one-tap FIR scaling the unit-power packets up to the
  // AP's power (power_from_db, the evaluator's relative-dB convention).
  const double tx_amp = std::sqrt(power_from_db(link.source_power_dbm) / shape.mean_power);

  stream::ChannelElementConfig sd;
  sd.channel = link.sd;
  sd.sample_rate_hz = fs_hi;
  sd.delay_ref_s = -2.0 * align_s;  // double lead: shared with relay path's 2 hops
  // Destination thermal floor, defined over the 20 MHz channel and scaled to
  // the 4x simulation bandwidth; adding it on one branch of a sum is the
  // same as adding it at the sink.
  sd.noise_power = power_from_db(link.dest_noise_dbm) * kOversample;
  sd.seed = seed ^ 0xD5;

  stream::ChannelElementConfig sr;
  sr.channel = link.sr;
  sr.sample_rate_hz = fs_hi;
  sr.delay_ref_s = -align_s;
  sr.noise_power = power_from_db(link.relay_noise_dbm) * kOversample;
  sr.seed = seed ^ 0x5F;

  stream::ChannelElementConfig rd;
  rd.channel = link.rd;
  rd.sample_rate_hz = fs_hi;
  rd.delay_ref_s = -align_s;
  rd.seed = seed ^ 0xFD;

  // --precision f32: the whole sample path (both hops' channels, the relay
  // forward pipeline) runs on the float32 kernel family; the graph text
  // carries it as `precision=f32` on each declaration, so a dumped session
  // round-trips the choice.
  if (stream_cli.is_f32()) {
    sd.precision = sr.precision = rd.precision = Precision::kF32;
    pipeline_cfg.precision = Precision::kF32;
  }

  stream::GraphSpec spec =
      make_session_spec(pc, stream_cli.block_size(), tx_amp, link.source_cfo_hz,
                        fs_hi, sd, sr, rd, pipeline_cfg);

  if (!dump_graph.empty()) {
    std::ofstream out(dump_graph, std::ios::binary);
    if (out) out << "// FastForward downlink session (generated by streaming_relay "
                    "--dump-graph; see docs/STREAMING.md)\n"
                 << spec.to_text();
    if (!out) {
      std::fprintf(stderr, "failed to write graph to %s\n", dump_graph.c_str());
      return 1;
    }
    std::printf("graph description written to %s\n", dump_graph.c_str());
    return 0;
  }

  if (!stream_cli.graph().empty()) {
    try {
      spec = stream::parse_graph_file(stream_cli.graph());
    } catch (const std::exception& err) {
      std::fprintf(stderr, "%s\n", err.what());
      return 2;
    }
  }

  // ---- build and run.
  const std::size_t cap = stream_cli.backpressure();
  stream::Graph g;
  try {
    stream::build_graph(g, spec, stream::ElementRegistry::builtin(), cap);
    // Pre-run write handlers (--set elem.handler=value), e.g. retuned taps
    // or a forced gate decision. Sample-positioned writes mid-stream go
    // through Element::write_at instead.
    for (const auto& w : stream_cli.writes())
      g.handler(w.element, w.handler).write(w.value);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "%s\n", err.what());
    return 2;
  }

  stream::SchedulerConfig sc;
  sc.threads = stream_cli.threads();
  sc.metrics = stream_cli.metrics();
  if (stream_cli.is_throughput()) {
    sc.mode = stream::SchedulerMode::kThroughput;
    sc.batch_size = stream_cli.batch_size();
  }
  stream::Scheduler scheduler(g, sc);
  const std::uint64_t progress = scheduler.run();

  auto* sink = dynamic_cast<stream::AccumulatorSink*>(g.find("sink"));
  if (!sink) {
    std::fprintf(stderr,
                 "graph has no AccumulatorSink named 'sink'; nothing to decode\n");
    return 2;
  }
  const CVec rx_hi = sink->take();
  std::printf("streamed %zu samples at %.0f Msps "
              "(%zu-sample blocks, queue depth %zu, %zu threads, %s mode, %s, %llu %s)\n",
              rx_hi.size(), fs_hi / 1e6, stream_cli.block_size(),
              cap, sc.threads, stream_cli.mode().c_str(), stream_cli.precision().c_str(),
              static_cast<unsigned long long>(progress),
              stream_cli.is_throughput() ? "ring transfers" : "rounds");
  if (stream::Element* relay = g.find("relay"))
    std::printf("relay [%s]: max_delay_s=%s scrubbed=%s\n", relay->class_name(),
                relay->call_read("max_delay_s").c_str(),
                relay->call_read("scrubbed").c_str());

  // ---- decode the first packet at the client (back at the PHY rate).
  const CVec rx20 = dsp::downsample(rx_hi, kOversample);
  const phy::Receiver rx(tb.ofdm);
  if (const auto result = rx.receive(rx20)) {
    std::printf("client decode: crc=%s mcs=%d snr=%.1f dB cfo=%.1f kHz "
                "(source cfo %.1f kHz)\n",
                result->crc_ok ? "OK" : "FAIL", result->mcs_index, result->snr_db,
                result->cfo_hz / 1e3, link.source_cfo_hz / 1e3);
  } else {
    std::printf("client decode: no packet found\n");
  }

  if (!stream_cli.write_metrics()) return 1;
  return 0;
}
