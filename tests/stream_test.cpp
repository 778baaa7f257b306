// Streaming element-graph runtime tests: graph validation, the block-size
// and scheduler invariance contract (streaming output must be
// bit-identical to the batch path no matter how the stream is blocked or
// scheduled), and bounded-queue backpressure (saturation degrades
// throughput, never correctness).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "channel/cfo.hpp"
#include "channel/floorplan.hpp"
#include "channel/multipath.hpp"
#include "common/rng.hpp"
#include "common/seeding.hpp"
#include "common/telemetry.hpp"
#include "common/units.hpp"
#include "dsp/fir.hpp"
#include "dsp/kernels/kernels.hpp"
#include "dsp/noise.hpp"
#include "dsp/resample.hpp"
#include "dsp/sequence.hpp"
#include "eval/faults.hpp"
#include "eval/testbed.hpp"
#include "eval/timedomain.hpp"
#include "fullduplex/si_channel.hpp"
#include "fullduplex/stack.hpp"
#include "fullduplex/tuner.hpp"
#include "net/drift.hpp"
#include "phy/frame.hpp"
#include "stream/elements.hpp"
#include "stream/graph.hpp"
#include "stream/scheduler.hpp"

namespace ff {
namespace {

using stream::Block;
using stream::Graph;
using stream::Scheduler;
using stream::SchedulerConfig;

constexpr std::size_t kBlockSizes[] = {1, 7, 64, 4096};
constexpr std::size_t kThreadCounts[] = {1, 2, 4};

CVec random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  CVec x(n);
  for (auto& s : x) s = rng.cgaussian();
  return x;
}

std::uint64_t counter_value(const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& m : snap.counters)
    if (m.name == name) return m.count;
  return 0;
}

double gauge_value(const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& m : snap.gauges)
    if (m.name == name) return m.value;
  return -1.0;
}

/// Run `data` through a single transform element at the given block size
/// and return the collected output.
template <typename MakeElement>
CVec run_single_transform(const CVec& data, std::size_t block_size, MakeElement make) {
  Graph g;
  auto* src = g.emplace<stream::VectorSource>("src", data, block_size);
  auto* xf = g.add(make());
  auto* sink = g.emplace<stream::AccumulatorSink>("sink");
  g.connect(*src, 0, *xf, 0);
  g.connect(*xf, 0, *sink, 0);
  Scheduler(g).run();
  return sink->take();
}

// ------------------------------------------------------------- validation

TEST(StreamGraph, RejectsEmptyGraph) {
  Graph g;
  EXPECT_THROW(g.validate(), std::logic_error);
}

TEST(StreamGraph, RejectsUnconnectedPorts) {
  Graph g;
  g.emplace<stream::VectorSource>("src", CVec{Complex{1.0, 0.0}}, 4);
  EXPECT_THROW(g.validate(), std::logic_error);  // src output dangling
}

TEST(StreamGraph, RejectsDuplicateNames) {
  Graph g;
  auto* a = g.emplace<stream::VectorSource>("x", CVec{Complex{1.0, 0.0}}, 4);
  auto* b = g.emplace<stream::AccumulatorSink>("x");
  g.connect(*a, 0, *b, 0);
  EXPECT_THROW(g.validate(), std::logic_error);
}

TEST(StreamGraph, RejectsSelfLoopAndDoubleConnect) {
  Graph g;
  auto* q = g.emplace<stream::Queue>("q");
  EXPECT_THROW(g.connect(*q, 0, *q, 0), std::logic_error);
  auto* src = g.emplace<stream::VectorSource>("src", CVec{Complex{1.0, 0.0}}, 4);
  g.connect(*src, 0, *q, 0);
  auto* q2 = g.emplace<stream::Queue>("q2");
  EXPECT_THROW(g.connect(*src, 0, *q2, 0), std::logic_error);  // port reuse
}

TEST(StreamGraph, RejectsCycles) {
  Graph g;
  auto* src = g.emplace<stream::VectorSource>("src", CVec{Complex{1.0, 0.0}}, 4);
  auto* add = g.emplace<stream::Add2>("add");
  auto* tee = g.emplace<stream::Tee>("tee", 2);
  auto* sink = g.emplace<stream::AccumulatorSink>("sink");
  g.connect(*src, 0, *add, 0);
  g.connect(*add, 0, *tee, 0);
  g.connect(*tee, 0, *sink, 0);
  g.connect(*tee, 1, *add, 1);  // feedback: add -> tee -> add
  EXPECT_THROW(g.validate(), std::logic_error);
}

std::vector<std::string> topo_names(const Graph& g) {
  std::vector<std::string> names;
  for (const stream::Element* e : g.topo_order()) names.push_back(e->name());
  return names;
}

TEST(StreamGraph, LevelsFollowLongestPath) {
  Graph g;
  auto* src = g.emplace<stream::VectorSource>("src", random_signal(64, 9), 16);
  auto* tee = g.emplace<stream::Tee>("tee", 2);
  auto* add = g.emplace<stream::Add2>("add");
  auto* sink = g.emplace<stream::AccumulatorSink>("sink");
  auto* q = g.emplace<stream::Queue>("q");
  g.connect(*src, 0, *tee, 0);
  g.connect(*tee, 0, *add, 0, /*capacity=*/16);
  g.connect(*tee, 1, *q, 0);
  g.connect(*q, 0, *add, 1);
  g.connect(*add, 0, *sink, 0);
  g.validate();
  // src=0, tee=1, q=2, add=3 (longest path through q, though q was added
  // after add), sink=4.
  EXPECT_EQ(topo_names(g), (std::vector<std::string>{"src", "tee", "q", "add", "sink"}));

  // b2, b1 and out1 share level 2, and b2 was added before b1: within a
  // level the order is insertion order.
  Graph h;
  auto* s = h.emplace<stream::VectorSource>("s", random_signal(64, 9), 16);
  auto* split = h.emplace<stream::Tee>("split", 3);
  auto* b2 = h.emplace<stream::Queue>("b2");
  auto* b1 = h.emplace<stream::Queue>("b1");
  auto* join = h.emplace<stream::Add2>("join");
  auto* out1 = h.emplace<stream::NullSink>("out1");
  auto* out2 = h.emplace<stream::NullSink>("out2");
  h.connect(*s, 0, *split, 0);
  h.connect(*split, 0, *b1, 0);
  h.connect(*split, 1, *b2, 0);
  h.connect(*b1, 0, *join, 0);
  h.connect(*b2, 0, *join, 1);
  h.connect(*split, 2, *out1, 0);
  h.connect(*join, 0, *out2, 0);
  h.validate();
  EXPECT_EQ(topo_names(h), (std::vector<std::string>{"s", "split", "b2", "b1", "out1",
                                                     "join", "out2"}));
}

TEST(StreamCombine, RejectsMisalignedStreams) {
  Graph g;
  auto* a = g.emplace<stream::VectorSource>("a", random_signal(32, 1), 8);
  auto* b = g.emplace<stream::VectorSource>("b", random_signal(32, 2), 16);
  auto* add = g.emplace<stream::Add2>("add");
  auto* sink = g.emplace<stream::AccumulatorSink>("sink");
  g.connect(*a, 0, *add, 0);
  g.connect(*b, 0, *add, 1);
  g.connect(*add, 0, *sink, 0);
  EXPECT_THROW(Scheduler(g).run(), std::logic_error);
}

// ------------------------------------------- block-size invariance (batch)

TEST(StreamInvariance, FirMatchesBatchAtEveryBlockSize) {
  const CVec x = random_signal(5000, 42);
  const CVec taps = dsp::design_lowpass(31, 0.2);
  const CVec batch = dsp::filter(taps, x);  // zero initial conditions
  for (const std::size_t bs : kBlockSizes) {
    const CVec out = run_single_transform(x, bs, [&] {
      return std::make_unique<stream::FirElement>("fir", taps);
    });
    ASSERT_EQ(out.size(), batch.size());
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(out[i], batch[i]) << "block_size=" << bs << " sample " << i;
  }
}

TEST(StreamInvariance, CfoMatchesBatchAtEveryBlockSize) {
  const CVec x = random_signal(3000, 7);
  const double fs = 20e6, cfo = 31.4e3, retune = -12.5e3;
  // A set_cfo write at a sample that is not a phasor anchor (1000 % 256 !=
  // 0): the recurrence carries across the retune identically however the
  // stream is blocked.
  constexpr std::size_t kRetuneAt = 1000;
  channel::CfoRotator rot(cfo, fs);
  CVec batch = rot.process(CSpan{x.data(), kRetuneAt});
  rot.set_cfo(retune, fs);
  const CVec tail = rot.process(CSpan{x}.subspan(kRetuneAt));
  batch.insert(batch.end(), tail.begin(), tail.end());
  for (const std::size_t bs : kBlockSizes) {
    const CVec out = run_single_transform(x, bs, [&] {
      auto e = std::make_unique<stream::CfoElement>("cfo", cfo, fs);
      e->write_at(kRetuneAt, "set_cfo", "-12500");
      return e;
    });
    ASSERT_EQ(out.size(), batch.size());
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(out[i], batch[i]) << "block_size=" << bs << " sample " << i;
  }
}

relay::PipelineConfig test_pipeline_config() {
  relay::PipelineConfig cfg;
  cfg.sample_rate_hz = 20e6;
  cfg.adc_dac_delay_samples = 2;
  cfg.cfo_hz = 12.5e3;
  cfg.prefilter = dsp::design_lowpass(9, 0.3);
  cfg.analog_rotation = Complex{0.8, -0.6};
  cfg.gain_db = 20.0;
  cfg.tx_filter = dsp::design_lowpass(5, 0.25);
  return cfg;
}

TEST(StreamInvariance, PipelineMatchesBatchAtEveryBlockSize) {
  const CVec x = random_signal(4000, 11);
  relay::ForwardPipeline reference(test_pipeline_config());
  const CVec batch = reference.process(x);
  for (const std::size_t bs : kBlockSizes) {
    const CVec out = run_single_transform(x, bs, [&] {
      return std::make_unique<stream::PipelineElement>("relay", test_pipeline_config());
    });
    ASSERT_EQ(out.size(), batch.size());
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(out[i], batch[i]) << "block_size=" << bs << " sample " << i;
  }
}

TEST(StreamInvariance, FaultScheduleMatchesBatchAtEveryBlockSize) {
  const CVec x = random_signal(2000, 5);
  eval::FaultConfig fc;
  fc.sample_drop_rate = 0.01;
  fc.sample_corrupt_rate = 0.003;
  fc.seed = 99;
  eval::FaultInjector reference(fc);
  const CVec batch = reference.apply_copy(x);
  for (const std::size_t bs : kBlockSizes) {
    const CVec out = run_single_transform(x, bs, [&] {
      return std::make_unique<stream::FaultElement>("faults", fc);
    });
    ASSERT_EQ(out.size(), batch.size());
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(out[i], batch[i]) << "block_size=" << bs << " sample " << i;
  }
}

stream::ChannelElementConfig drifting_channel_config() {
  stream::ChannelElementConfig cc;
  cc.channel = channel::MultipathChannel(
      {channel::PathTap{100e-9, Complex{0.5, 0.1}},
       channel::PathTap{250e-9, Complex{-0.2, 0.3}}},
      2.45e9);
  cc.sample_rate_hz = 20e6;
  cc.sinc_half_width = 8;
  cc.noise_power = 1e-6;
  cc.coherence_time_s = 1e-4;  // fast drift so retunes matter in-test
  cc.retune_interval_samples = 512;
  cc.seed = 1234;
  return cc;
}

TEST(StreamInvariance, DriftingChannelIsBlockSizeInvariant) {
  const CVec x = random_signal(3000, 21);
  // Reference: the same element run at the largest block size.
  const CVec reference = run_single_transform(x, 4096, [&] {
    return std::make_unique<stream::ChannelElement>("chan", drifting_channel_config());
  });
  for (const std::size_t bs : kBlockSizes) {
    Graph g;
    auto* src = g.emplace<stream::VectorSource>("src", x, bs);
    auto* chan = g.emplace<stream::ChannelElement>("chan", drifting_channel_config());
    auto* sink = g.emplace<stream::AccumulatorSink>("sink");
    g.connect(*src, 0, *chan, 0);
    g.connect(*chan, 0, *sink, 0);
    Scheduler(g).run();
    EXPECT_EQ(chan->retunes(), (x.size() - 1) / 512);
    const CVec out = sink->take();
    ASSERT_EQ(out.size(), reference.size());
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(out[i], reference[i]) << "block_size=" << bs << " sample " << i;
  }
}

// The per-sample channel the block path must reproduce, written out: each
// sample pushed through the FIR and then given one ziggurat draw, with a
// drift retune before every 512th sample after the first. At kF32 the
// sample is narrowed, filtered by the narrowed taps, given cgaussian32's
// draw and widened.
CVec per_sample_channel(const CVec& x, const stream::ChannelElementConfig& cc) {
  net::DriftingChannel drift(cc.channel, cc.coherence_time_s);
  Rng noise = seeding::named_stream(cc.seed, "noise");
  Rng drift_rng = seeding::named_stream(cc.seed, "drift");
  const CVec taps = cc.channel.to_fir(cc.sample_rate_hz, cc.delay_ref_s, cc.sinc_half_width);
  dsp::FirFilter fir(taps);
  dsp::FirFilter32 fir32(dsp::kernels::narrowed(taps));
  CVec y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (i > 0 && i % cc.retune_interval_samples == 0) {
      drift.advance(static_cast<double>(cc.retune_interval_samples) / cc.sample_rate_hz,
                    drift_rng);
      const CVec now =
          drift.now().to_fir(cc.sample_rate_hz, cc.delay_ref_s, cc.sinc_half_width);
      fir.set_taps(now);
      fir32.set_taps(dsp::kernels::narrowed(now));
    }
    if (cc.precision == Precision::kF32) {
      const Complex32 in{static_cast<float>(x[i].real()), static_cast<float>(x[i].imag())};
      const Complex32 out = fir32.push(in) + noise.cgaussian32(static_cast<float>(cc.noise_power));
      y[i] = {out.real(), out.imag()};
    } else {
      y[i] = fir.push(x[i]) + noise.cgaussian_zig(cc.noise_power);
    }
  }
  return y;
}

TEST(StreamChannel, NoisyChannelMatchesPerSampleDraws) {
  // DriftingChannelIsBlockSizeInvariant compares the element with itself;
  // this holds it, at both precisions, to the per-sample loop above.
  const CVec x = random_signal(6000, 22);
  for (const Precision precision : {Precision::kF64, Precision::kF32}) {
    stream::ChannelElementConfig cc = drifting_channel_config();
    cc.precision = precision;
    const CVec reference = per_sample_channel(x, cc);
    for (const std::size_t bs : {1, 7, 511, 512, 513, 4096}) {
      const CVec out = run_single_transform(
          x, bs, [&] { return std::make_unique<stream::ChannelElement>("chan", cc); });
      ASSERT_EQ(out.size(), reference.size());
      EXPECT_EQ(std::memcmp(out.data(), reference.data(), out.size() * sizeof(Complex)), 0)
          << (precision == Precision::kF32 ? "f32" : "f64") << " block_size=" << bs;
    }
  }
}

TEST(StreamChannel, ConstructorRejectsNonFiniteConfig) {
  // The C++ constructor holds the same line as the Params path, which only
  // accepts finite numbers: an infinite noise power makes every sample
  // non-finite, and an infinite rate discretizes the FIR from garbage. A
  // path delay no FIR can hold (1e12 s is 2e19 samples at 20 Msps, past
  // size_t) once discretized silently into an all-zero channel; it is
  // refused with an error naming `paths`, as is an infinite one.
  const double inf = std::numeric_limits<double>::infinity();
  const auto build = [](auto&& edit) {
    stream::ChannelElementConfig cc = drifting_channel_config();
    edit(cc);
    return stream::ChannelElement("chan", cc);
  };
  const auto with_delay = [](double delay_s) {
    return [delay_s](stream::ChannelElementConfig& cc) {
      cc.channel = channel::MultipathChannel({channel::PathTap{100e-9, Complex{0.5, 0.1}},
                                              channel::PathTap{delay_s, Complex{1.0, 0.0}}},
                                             2.45e9);
    };
  };
  EXPECT_NO_THROW(build([](auto&) {}));
  EXPECT_THROW(build([&](auto& cc) { cc.noise_power = inf; }), std::logic_error);
  EXPECT_THROW(build([&](auto& cc) { cc.sample_rate_hz = inf; }), std::logic_error);
  EXPECT_THROW(build([&](auto& cc) { cc.coherence_time_s = inf; }), std::logic_error);
  EXPECT_THROW(build([&](auto& cc) { cc.noise_power = std::nan(""); }), std::logic_error);
  EXPECT_NO_THROW(build(with_delay(1e-6)));
  for (const double delay_s : {1e12, inf}) {
    try {
      build(with_delay(delay_s));
      ADD_FAILURE() << "a " << delay_s << " s path was accepted";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("paths"), std::string::npos) << e.what();
    }
  }
}

TEST(StreamInvariance, CancellerMatchesStackApply) {
  // Classic SI scenario: the relay hears its own transmission through the
  // SI channel; the tuned stack's batch apply() must equal the streaming
  // CancellerElement bit-for-bit (the digital stage is causal).
  Rng rng(77);
  const std::size_t n = 20000;
  const channel::MultipathChannel si = fd::make_si_channel(rng);
  CVec tx = dsp::awgn_dbm(rng, n, 20.0);
  const CVec probe = fd::inject_probe(rng, tx, 30.0);
  const CVec si_fir = fd::si_loop_fir(si, 20e6);
  const CVec si_rx = dsp::filter(si_fir, tx);
  const CVec thermal = dsp::awgn_dbm(rng, n, -90.0);
  CVec rx(n);
  for (std::size_t i = 0; i < n; ++i) rx[i] = si_rx[i] + thermal[i];

  fd::CancellationStack stack;
  stack.tune(tx, probe, rx);
  const CVec batch = stack.apply(tx, rx);

  for (const std::size_t bs : {std::size_t{64}, std::size_t{997}}) {
    Graph g;
    auto* rx_src = g.emplace<stream::VectorSource>("rx", rx, bs);
    auto* tx_src = g.emplace<stream::VectorSource>("tx", tx, bs);
    auto* canc = g.emplace<stream::CancellerElement>("canceller", stack);
    auto* sink = g.emplace<stream::AccumulatorSink>("sink");
    g.connect(*rx_src, 0, *canc, 0);
    g.connect(*tx_src, 0, *canc, 1);
    g.connect(*canc, 0, *sink, 0);
    Scheduler(g).run();
    const CVec out = sink->take();
    ASSERT_EQ(out.size(), batch.size());
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(out[i], batch[i]) << "block_size=" << bs << " sample " << i;
  }
}

TEST(StreamGate, OpensOnSignatureAndIsBlockSizeInvariant) {
  const phy::OfdmParams params;
  const std::size_t prefix = phy::signature_prefix_len(params);
  phy::Transmitter tx(params);
  phy::TxOptions txo;
  txo.signature_client = 3;
  std::vector<std::uint8_t> payload(64, 1);
  const CVec pkt = tx.modulate(payload, txo);

  const std::size_t window = 2 * prefix;
  const auto make_detector = [&] {
    ident::PnSignatureDetector det(0.6);
    det.register_client(3, prefix / 2);
    det.register_client(9, prefix / 2);
    return det;
  };

  CVec reference;
  for (const std::size_t bs : kBlockSizes) {
    Graph g;
    auto* src = g.emplace<stream::VectorSource>("src", pkt, bs);
    auto* gate = g.emplace<stream::GateElement>("gate", make_detector(), window);
    auto* sink = g.emplace<stream::AccumulatorSink>("sink");
    g.connect(*src, 0, *gate, 0);
    g.connect(*gate, 0, *sink, 0);
    Scheduler(g).run();

    ASSERT_TRUE(gate->decided());
    ASSERT_TRUE(gate->decision().has_value());
    EXPECT_EQ(gate->decision()->client, 3u);
    const CVec out = sink->take();
    ASSERT_EQ(out.size(), pkt.size());
    // Muted through the decision window, passing afterwards.
    for (std::size_t i = 0; i < window; ++i) ASSERT_EQ(out[i], Complex{});
    for (std::size_t i = window; i < out.size(); ++i) ASSERT_EQ(out[i], pkt[i]);
    if (reference.empty()) reference = out;
    EXPECT_EQ(out, reference) << "block_size=" << bs;
  }

  // No registered signature in the stream: the gate stays shut.
  Graph g;
  auto* src = g.emplace<stream::VectorSource>("src", random_signal(window + 500, 3), 64);
  auto* gate = g.emplace<stream::GateElement>("gate", make_detector(), window);
  auto* sink = g.emplace<stream::AccumulatorSink>("sink");
  g.connect(*src, 0, *gate, 0);
  g.connect(*gate, 0, *sink, 0);
  Scheduler(g).run();
  ASSERT_TRUE(gate->decided());
  EXPECT_FALSE(gate->decision().has_value());
  for (const Complex s : sink->take()) ASSERT_EQ(s, Complex{});
}

// ------------------------------------------ composite graph, block sizes

struct CompositeResult {
  CVec out;
  std::uint64_t rounds = 0;
  std::uint64_t sink_samples = 0;
  double depth_peak = -1.0;
  std::uint64_t retunes = 0;  // chan_rd's drift steps: element-state probe
};

/// Scheduler selection for run_composite (reference rounds by default).
struct CompositeExec {
  bool throughput = false;
  std::size_t batch = 1;
};

/// The streaming relay testbench: packets reach the destination through a
/// direct path and through a relay branch (source->relay channel, forward
/// pipeline, relay->destination drifting channel), superposed at the sink.
CompositeResult run_composite(std::size_t block_size, std::size_t threads,
                              const CompositeExec& exec = {}) {
  stream::PacketSourceConfig pc;
  pc.n_packets = 2;
  pc.payload_bits = 128;
  pc.gap_samples = 200;
  pc.seed = 2026;

  stream::ChannelElementConfig direct;
  direct.channel = channel::MultipathChannel(
      {channel::PathTap{150e-9, Complex{0.3, -0.2}}}, 2.45e9);
  direct.sample_rate_hz = 20e6;
  direct.sinc_half_width = 8;
  direct.noise_power = 1e-8;
  direct.seed = 5;

  stream::ChannelElementConfig sr;
  sr.channel = channel::MultipathChannel(
      {channel::PathTap{80e-9, Complex{0.6, 0.1}}}, 2.45e9);
  sr.sample_rate_hz = 20e6;
  sr.sinc_half_width = 8;
  sr.seed = 6;

  stream::ChannelElementConfig rd = drifting_channel_config();
  rd.seed = 7;

  MetricsRegistry metrics;
  Graph g;
  auto* src = g.emplace<stream::PacketSource>("src", pc, block_size);
  auto* tee = g.emplace<stream::Tee>("tee", 2);
  auto* chan_sd = g.emplace<stream::ChannelElement>("chan_sd", direct);
  auto* chan_sr = g.emplace<stream::ChannelElement>("chan_sr", sr);
  auto* relay = g.emplace<stream::PipelineElement>("relay", test_pipeline_config());
  auto* chan_rd = g.emplace<stream::ChannelElement>("chan_rd", rd);
  auto* q = g.emplace<stream::Queue>("q");
  auto* add = g.emplace<stream::Add2>("add");
  auto* sink = g.emplace<stream::AccumulatorSink>("sink");

  g.connect(*src, 0, *tee, 0);
  // The direct branch is 1 element long, the relay branch 3: the Queue (and
  // a deeper direct-side channel) levels them so Add2 sees aligned streams
  // without deadlocking on default capacities.
  g.connect(*tee, 0, *chan_sd, 0, /*capacity=*/8);
  g.connect(*chan_sd, 0, *q, 0, /*capacity=*/8);
  g.connect(*q, 0, *add, 0, /*capacity=*/8);
  g.connect(*tee, 1, *chan_sr, 0);
  g.connect(*chan_sr, 0, *relay, 0);
  g.connect(*relay, 0, *chan_rd, 0);
  g.connect(*chan_rd, 0, *add, 1);
  g.connect(*add, 0, *sink, 0);

  SchedulerConfig sc;
  sc.threads = threads;
  sc.metrics = &metrics;
  if (exec.throughput) {
    sc.mode = stream::SchedulerMode::kThroughput;
    sc.batch_size = exec.batch;
  }
  CompositeResult r;
  r.rounds = Scheduler(g, sc).run();
  r.out = sink->take();
  r.retunes = chan_rd->retunes();
  const auto snap = metrics.snapshot();
  r.sink_samples = counter_value(snap, "stream.sink.samples");
  r.depth_peak = gauge_value(snap, "stream.add.in1.depth_peak");
  return r;
}

TEST(StreamInvariance, CompositeGraphIsBlockSizeInvariantOnAPinnedSchedule) {
  const CompositeResult reference = run_composite(64, 1);
  ASSERT_GT(reference.out.size(), 0u);
  EXPECT_EQ(reference.sink_samples, reference.out.size());

  // The reference schedule is a function of the graph and its block size:
  // the rounds to drain it and the relay branch's queue peak into add.
  const struct {
    std::size_t bs;
    std::uint64_t rounds;
    double depth_peak;
  } schedules[] = {{1, 270, 8.0}, {7, 39, 8.0}, {64, 5, 8.0}, {4096, 1, 2.0}};
  for (const auto& want : schedules) {
    const CompositeResult r = run_composite(want.bs, 1);
    ASSERT_EQ(r.out.size(), reference.out.size()) << "bs=" << want.bs;
    for (std::size_t i = 0; i < r.out.size(); ++i)
      ASSERT_EQ(r.out[i], reference.out[i]) << "bs=" << want.bs << " sample " << i;
    EXPECT_EQ(r.rounds, want.rounds) << "bs=" << want.bs;
    EXPECT_EQ(r.depth_peak, want.depth_peak) << "bs=" << want.bs;
    EXPECT_EQ(r.sink_samples, r.out.size());
  }
}

// ------------------------------------- throughput mode (pipeline scheduler)

TEST(StreamThroughput, MatchesReferenceAtAnyPartitioningAndBatch) {
  // The tentpole equivalence claim: the pipeline scheduler must reproduce
  // the reference output — and the trajectory of element state (drift
  // retunes happen at exact sample positions) — at every combination of
  // chain count and batch size, including oversubscribed ones (the 9
  // composite elements cut into 4 chains on however few cores CI has).
  const CompositeResult reference = run_composite(64, 1);
  ASSERT_GT(reference.out.size(), 0u);

  for (const std::size_t chains : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
      CompositeExec exec;
      exec.throughput = true;
      exec.batch = batch;
      const CompositeResult r = run_composite(64, chains, exec);
      ASSERT_EQ(r.out.size(), reference.out.size())
          << "chains=" << chains << " batch=" << batch;
      for (std::size_t i = 0; i < r.out.size(); ++i)
        ASSERT_EQ(r.out[i], reference.out[i])
            << "chains=" << chains << " batch=" << batch << " sample " << i;
      EXPECT_EQ(r.retunes, reference.retunes)
          << "chains=" << chains << " batch=" << batch;
      EXPECT_EQ(r.sink_samples, reference.sink_samples)
          << "chains=" << chains << " batch=" << batch;
    }
  }
}

TEST(StreamThroughput, BatchedWorkIsBlockSizeInvariant) {
  // work_batch / process_batch must be invisible in the samples at every
  // block size, not just the composite's 64.
  const CompositeResult reference = run_composite(64, 1);
  for (const std::size_t bs : kBlockSizes) {
    CompositeExec exec;
    exec.throughput = true;
    exec.batch = 8;
    const CompositeResult r = run_composite(bs, 2, exec);
    ASSERT_EQ(r.out.size(), reference.out.size()) << "bs=" << bs;
    for (std::size_t i = 0; i < r.out.size(); ++i)
      ASSERT_EQ(r.out[i], reference.out[i]) << "bs=" << bs << " sample " << i;
  }
}

TEST(StreamThroughput, ChainCountClampsToGraphSize) {
  // More threads than elements: the scheduler must clamp, not crash or
  // spin up idle workers that never retire.
  const CVec x = random_signal(1000, 31);
  Graph g;
  auto* src = g.emplace<stream::VectorSource>("src", x, 64);
  auto* sink = g.emplace<stream::AccumulatorSink>("sink");
  g.connect(*src, 0, *sink, 0);
  SchedulerConfig sc;
  sc.mode = stream::SchedulerMode::kThroughput;
  sc.threads = 16;  // graph has 2 elements
  sc.batch_size = 4;
  Scheduler(g, sc).run();
  EXPECT_EQ(sink->take(), x);
}

TEST(StreamThroughput, BackpressureStillLossless) {
  // Tiny channels, a throttled sink, and ring bridges in between: the
  // pipeline must stay lossless and ordered under saturation.
  const CVec x = random_signal(10000, 13);
  Graph g;
  auto* src = g.emplace<stream::VectorSource>("src", x, 16);
  auto* q = g.emplace<stream::Queue>("q");
  auto* sink = g.emplace<stream::AccumulatorSink>("sink", /*max_blocks_per_work=*/1);
  g.connect(*src, 0, *q, 0, /*capacity=*/2);
  g.connect(*q, 0, *sink, 0, /*capacity=*/2);
  SchedulerConfig sc;
  sc.mode = stream::SchedulerMode::kThroughput;
  sc.threads = 3;  // one element per chain: both channels become bridges
  sc.batch_size = 4;
  Scheduler(g, sc).run();
  EXPECT_EQ(sink->take(), x);
}

TEST(StreamThroughput, RingTransfersCountEachBridgedBlockOnce) {
  // Two chains, one bridge: each of the 5,000 blocks crosses one ring, and
  // run() and stream.ring.transfers count it once, not once per side.
  const CVec x = random_signal(5000, 37);
  Graph g;
  auto* src = g.emplace<stream::VectorSource>("src", x, 1);
  auto* sink = g.emplace<stream::AccumulatorSink>("sink");
  g.connect(*src, 0, *sink, 0);
  MetricsRegistry metrics;
  SchedulerConfig sc;
  sc.mode = stream::SchedulerMode::kThroughput;
  sc.threads = 2;
  sc.metrics = &metrics;
  EXPECT_EQ(Scheduler(g, sc).run(), 5000u);
  EXPECT_EQ(counter_value(metrics.snapshot(), "stream.ring.transfers"), 5000u);
  EXPECT_EQ(sink->take(), x);
}

TEST(StreamThroughput, PropagatesElementErrorsAcrossChains) {
  // A worker thread hitting an element error (misaligned combine) must
  // surface it as the scheduler's own exception, not a hang or a crash.
  Graph g;
  auto* a = g.emplace<stream::VectorSource>("a", random_signal(32, 1), 8);
  auto* b = g.emplace<stream::VectorSource>("b", random_signal(32, 2), 16);
  auto* add = g.emplace<stream::Add2>("add");
  auto* sink = g.emplace<stream::AccumulatorSink>("sink");
  g.connect(*a, 0, *add, 0);
  g.connect(*b, 0, *add, 1);
  g.connect(*add, 0, *sink, 0);
  SchedulerConfig sc;
  sc.mode = stream::SchedulerMode::kThroughput;
  sc.threads = 4;
  EXPECT_THROW(Scheduler(g, sc).run(), std::logic_error);
}

namespace {
/// An element that accepts wiring but never consumes, closes, or emits:
/// the pipeline analog of a wedged downstream stage.
class StuckElement : public stream::Element {
 public:
  explicit StuckElement(std::string name) : Element(std::move(name), 1, 1) {}
  const char* class_name() const override { return "Stuck"; }
  bool work() override { return false; }
};
}  // namespace

TEST(StreamScheduler, StuckGraphFailsWithItsRoundNumber) {
  // Round 1 fills the capacity-4 channel into the stuck element; round 2
  // moves nothing, and nothing waits on an external peer.
  Graph g;
  auto* src = g.emplace<stream::VectorSource>("src", random_signal(1000, 3), 8);
  auto* stuck = g.emplace<StuckElement>("stuck");
  auto* sink = g.emplace<stream::AccumulatorSink>("sink");
  g.connect(*src, 0, *stuck, 0, /*capacity=*/4);
  g.connect(*stuck, 0, *sink, 0, /*capacity=*/4);
  try {
    Scheduler(g).run();
    FAIL() << "a stuck graph reached the end";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stalled after 2 rounds"), std::string::npos) << what;
  }
}

TEST(StreamThroughput, WatchdogAbortsStuckGraph) {
  Graph g;
  auto* src = g.emplace<stream::VectorSource>("src", random_signal(1000, 3), 8);
  auto* stuck = g.emplace<StuckElement>("stuck");
  auto* sink = g.emplace<stream::AccumulatorSink>("sink");
  g.connect(*src, 0, *stuck, 0, /*capacity=*/4);
  g.connect(*stuck, 0, *sink, 0, /*capacity=*/4);
  SchedulerConfig sc;
  sc.mode = stream::SchedulerMode::kThroughput;
  sc.threads = 3;
  sc.watchdog_ms = 150.0;  // fail fast in-test; default is 10 s
  try {
    Scheduler(g, sc).run();
    FAIL() << "stuck graph must trip the watchdog";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no progress"), std::string::npos) << what;
    EXPECT_NE(what.find("ring"), std::string::npos) << what;  // occupancy report
  }
}

namespace {
/// A source whose single block takes `delay` to produce, so the chains are
/// still running when the watchdog starts waiting on them.
class SlowSource : public stream::Source {
 public:
  SlowSource(std::string name, std::chrono::microseconds delay)
      : Source(std::move(name), 16), delay_(delay) {}
  const char* class_name() const override { return "SlowSource"; }

 protected:
  bool exhausted() const override { return done_; }
  CVec generate() override {
    std::this_thread::sleep_for(delay_);
    done_ = true;
    return CVec(16, Complex{1.0, 0.0});
  }

 private:
  std::chrono::microseconds delay_;
  bool done_ = false;
};

/// A sink that stamps the time it consumed its last block.
class StampSink : public stream::SinkBase {
 public:
  explicit StampSink(std::string name) : SinkBase(std::move(name)) {}
  const char* class_name() const override { return "StampSink"; }
  std::chrono::steady_clock::time_point last{};

 protected:
  void consume(const stream::Block&) override { last = std::chrono::steady_clock::now(); }
};
}  // namespace

// The watchdog waits on the chains' retirement, not on a 1 ms sleep: run()
// returns as soon as the last chain does. Measured from the sink's last
// block to run() returning, a run with the watchdog on takes no longer
// than one with it off, whose calling thread only joins the workers (the
// workers' own exit cost, large under sanitizers, is in both). The
// sleeping watchdog noticed the end only at its next tick, about 0.5 ms
// later in the median; the source's varied delay spreads the end over a
// whole tick.
TEST(StreamThroughput, RunEndsWhenItsLastChainRetires) {
  std::vector<double> overhang_ms[2];  // [watchdog off, on]
  for (int trial = 0; trial < 21; ++trial) {
    for (const bool watchdog : {false, true}) {
      Graph g;
      auto* src =
          g.emplace<SlowSource>("src", std::chrono::microseconds(1500 + 53 * trial));
      auto* fir = g.emplace<stream::FirElement>("fir", CVec{Complex{0.5, 0.0}});
      auto* sink = g.emplace<StampSink>("sink");
      g.connect(*src, 0, *fir, 0);
      g.connect(*fir, 0, *sink, 0);
      SchedulerConfig sc;
      sc.mode = stream::SchedulerMode::kThroughput;
      sc.threads = 3;
      if (!watchdog) sc.watchdog_ms = 0.0;
      Scheduler(g, sc).run();
      overhang_ms[watchdog].push_back(std::chrono::duration<double, std::milli>(
                                          std::chrono::steady_clock::now() - sink->last)
                                          .count());
    }
  }
  for (auto& v : overhang_ms) std::sort(v.begin(), v.end());
  EXPECT_LT(overhang_ms[1][10] - overhang_ms[0][10], 0.2)
      << "median ms from the last block to run() returning: watchdog on "
      << overhang_ms[1][10] << ", off " << overhang_ms[0][10];
}

// --------------------------------------- pinned relay-session checksum

/// FNV-1a over the raw bytes of the session output: the fold every pinned
/// stream checksum uses (docs/PERFORMANCE.md, "Checksum provenance").
std::uint64_t fnv1a_bytes(const void* bytes, std::size_t len) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// The pinned relay session: the paper-home link at client (6, 4), MCS-3
/// packets filling 5 ms at 4x oversampling, run through the hand-wired
/// direct + relayed topology in 256-sample blocks over capacity-8 channels.
/// lang_test and serve_test rebuild the same session from graph text and
/// through sockets and pin the same constant.
struct RelaySession {
  eval::TimeDomainLink link;
  relay::PipelineConfig pipeline;
  stream::PacketSourceConfig packets;
  double fs_hi = 0.0;
  Precision precision = Precision::kF64;
  bool with_noise = true;  // false: noise-free twin for accuracy tracking
};

RelaySession make_relay_session(Precision precision = Precision::kF64) {
  constexpr std::size_t kOversample = 4;  // the evaluator's converter rate
  const eval::TestbedConfig tb;
  const auto plan = channel::FloorPlan::paper_home();
  const auto placement = eval::make_placement(plan);
  Rng rng(20140817);

  RelaySession s;
  s.link = eval::build_td_link(placement, {6.0, 4.0}, tb, rng);
  s.fs_hi = tb.ofdm.sample_rate_hz * static_cast<double>(kOversample);
  s.pipeline = eval::make_ff_pipeline(s.link, tb.ofdm, /*extra_latency_s=*/0.0);
  s.precision = precision;
  s.pipeline.precision = precision;

  s.packets.params = tb.ofdm;
  s.packets.mcs_index = 3;
  s.packets.payload_bits = 600;
  s.packets.gap_samples = 400 * kOversample;
  s.packets.oversample = kOversample;
  s.packets.seed = 20140817;
  const phy::Transmitter tx(tb.ofdm);
  const std::size_t stride =
      tx.modulate(std::vector<std::uint8_t>(s.packets.payload_bits, 0),
                  {.mcs_index = s.packets.mcs_index})
              .size() *
          kOversample +
      s.packets.gap_samples;
  const auto want = static_cast<std::size_t>(5e-3 * s.fs_hi);
  s.packets.n_packets = std::max<std::size_t>(1, want / stride);
  return s;
}

CVec run_relay_session_samples(const RelaySession& s, const SchedulerConfig& sc_in,
                               std::size_t block_size = 256) {
  constexpr std::size_t kCap = 8;
  Graph g;
  auto* src = g.emplace<stream::PacketSource>("src", s.packets, block_size);
  auto* cfo = g.emplace<stream::CfoElement>("src_cfo", s.link.source_cfo_hz, s.fs_hi,
                                            s.precision);
  auto* tee = g.emplace<stream::Tee>("tee", 2);

  stream::ChannelElementConfig sd;
  sd.channel = s.link.sd;
  sd.sample_rate_hz = s.fs_hi;
  if (s.with_noise) sd.noise_power = power_from_db(s.link.dest_noise_dbm) * 4.0;
  sd.seed = s.packets.seed ^ 0xD5;
  sd.precision = s.precision;
  auto* chan_sd = g.emplace<stream::ChannelElement>("chan_sd", sd);
  auto* q = g.emplace<stream::Queue>("q");

  stream::ChannelElementConfig sr;
  sr.channel = s.link.sr;
  sr.sample_rate_hz = s.fs_hi;
  if (s.with_noise) sr.noise_power = power_from_db(s.link.relay_noise_dbm) * 4.0;
  sr.seed = s.packets.seed ^ 0x5F;
  sr.precision = s.precision;
  auto* chan_sr = g.emplace<stream::ChannelElement>("chan_sr", sr);
  auto* relay = g.emplace<stream::PipelineElement>("relay", s.pipeline);

  stream::ChannelElementConfig rd;
  rd.channel = s.link.rd;
  rd.sample_rate_hz = s.fs_hi;
  rd.seed = s.packets.seed ^ 0xFD;
  rd.precision = s.precision;
  auto* chan_rd = g.emplace<stream::ChannelElement>("chan_rd", rd);

  auto* add = g.emplace<stream::Add2>("add");
  auto* sink = g.emplace<stream::AccumulatorSink>("sink");

  g.connect(*src, 0, *cfo, 0, kCap);
  g.connect(*cfo, 0, *tee, 0, kCap);
  g.connect(*tee, 0, *chan_sd, 0, kCap);
  g.connect(*chan_sd, 0, *q, 0, kCap);
  g.connect(*q, 0, *add, 0, kCap);
  g.connect(*tee, 1, *chan_sr, 0, kCap);
  g.connect(*chan_sr, 0, *relay, 0, kCap);
  g.connect(*relay, 0, *chan_rd, 0, kCap);
  g.connect(*chan_rd, 0, *add, 1, kCap);
  g.connect(*add, 0, *sink, 0, kCap);

  Scheduler(g, sc_in).run();
  CVec out = sink->take();
  EXPECT_EQ(out.size(), 399360u);  // 1560 blocks of 256
  return out;
}

std::uint64_t run_relay_session(const RelaySession& s, const SchedulerConfig& sc_in,
                                std::size_t block_size = 256) {
  const CVec out = run_relay_session_samples(s, sc_in, block_size);
  return fnv1a_bytes(out.data(), out.size() * sizeof(Complex));
}

TEST(StreamThroughput, RelaySessionChecksumPinnedAcrossModes) {
  // The pinned f64 stream checksum. If this moves, the streaming runtime
  // changed the physics — at ANY block size, chain partitioning and batch
  // size, in either mode.
  constexpr std::uint64_t kChecksum = 0x1179AD8BF8201EEFULL;
  const RelaySession session = make_relay_session();

  // Reference mode across block sizes: per-sample (1), odd (7), small (64),
  // default (256) and large (4096) blocks, the shapes where a vectorized
  // block path could diverge from the per-sample one.
  for (const std::size_t block : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                  std::size_t{256}, std::size_t{4096}})
    EXPECT_EQ(run_relay_session(session, SchedulerConfig{}, block), kChecksum)
        << "block=" << block;

  for (const std::size_t chains : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
      SchedulerConfig sc;
      sc.mode = stream::SchedulerMode::kThroughput;
      sc.threads = chains;
      sc.batch_size = batch;
      EXPECT_EQ(run_relay_session(session, sc), kChecksum)
          << "chains=" << chains << " batch=" << batch;
    }
  }
}

// ------------------------------------------- float32 relay-session family

// The f32 relay session has its OWN pinned checksum (docs/PERFORMANCE.md,
// "The float32 family"): a different constant from the f64 session's
// 1179ad8bf8201eef, but held to the same invariance contract — one value no
// matter how the stream is blocked, how many chains run it, which
// scheduler executes it, or (via the release-nosimd preset re-running this
// binary) which ISA the kernels dispatched to.
TEST(StreamF32, RelaySessionChecksumPinnedAcrossBlocksThreadsAndModes) {
  constexpr std::uint64_t kChecksumF32 = 0x9B0F13BDDC24F7A8ULL;
  const RelaySession session = make_relay_session(Precision::kF32);

  // Every block size runs in both modes; the throughput chain count cycles
  // through {1,2,4} across the sweep.
  std::size_t rotate = 0;
  for (const std::size_t block : kBlockSizes) {
    EXPECT_EQ(run_relay_session(session, SchedulerConfig{}, block), kChecksumF32)
        << "block=" << block << " mode=reference";
    SchedulerConfig tp;
    tp.mode = stream::SchedulerMode::kThroughput;
    tp.threads = kThreadCounts[rotate++ % 3];
    tp.batch_size = 4;
    EXPECT_EQ(run_relay_session(session, tp, block), kChecksumF32)
        << "block=" << block << " threads=" << tp.threads << " mode=throughput";
  }
  // The bench block size in reference mode and across the chain sweep.
  EXPECT_EQ(run_relay_session(session, SchedulerConfig{}), kChecksumF32) << "ref";
  for (const std::size_t threads : kThreadCounts) {
    SchedulerConfig tp;
    tp.mode = stream::SchedulerMode::kThroughput;
    tp.threads = threads;
    EXPECT_EQ(run_relay_session(session, tp), kChecksumF32) << "tp t=" << threads;
  }
}

// Accuracy of the fast path, proven against the f64 reference session. The
// noise-free pair isolates the arithmetic: the same link and packets, with
// float rounding inside the CFO rotators, channel FIRs and the relay
// pipeline as the only difference. The noisy pair holds to the same bound:
// a float32 channel adds the f64 channel's ziggurat draws rounded to float
// (Rng::cgaussian32), so the two precisions run the same simulation, noise
// included. The bound is generous against the observed error but still pins
// the path to "conversion noise only" — any algorithmic divergence between
// the twins, or a different noise realization, would blow through it by
// orders of magnitude.
TEST(StreamF32, RelaySessionTracksF64ReferenceAndDecodes) {
  const SchedulerConfig sc;
  const auto run_twins = [&](bool with_noise) {
    RelaySession ref_session = make_relay_session();
    ref_session.with_noise = with_noise;
    RelaySession f32_session = make_relay_session(Precision::kF32);
    f32_session.with_noise = with_noise;
    return std::pair{run_relay_session_samples(ref_session, sc),
                     run_relay_session_samples(f32_session, sc)};
  };
  const auto rel_mse = [](const CVec& ref, const CVec& got) {
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      num += std::norm(got[i] - ref[i]);
      den += std::norm(ref[i]);
    }
    EXPECT_GT(den, 0.0);
    return num / den;
  };

  {
    const auto [ref, got] = run_twins(/*with_noise=*/true);
    ASSERT_EQ(ref.size(), got.size());
    const double noisy = rel_mse(ref, got);
    EXPECT_LT(noisy, 1e-10) << "noisy rel MSE " << noisy;
  }

  const auto [ref, got] = run_twins(/*with_noise=*/false);
  ASSERT_EQ(ref.size(), got.size());
  const double clean = rel_mse(ref, got);
  EXPECT_LT(clean, 1e-10) << "rel MSE " << clean;
  // As an EVM: at least 100 dB below the signal, far under the session's
  // own channel noise floor.
  EXPECT_LT(10.0 * std::log10(clean), -100.0);

  // The receiver sees the same session: detection, CRC verdict and SNR must
  // match the f64 reference. (This bench-shaped session superposes the
  // direct and relay paths unaligned, so neither precision decodes cleanly
  // here — the aligned example session's crc=OK, in both precisions, is
  // enforced by the streaming-smoke CTest script.)
  const phy::Receiver rx(make_relay_session().packets.params);
  const auto got_rx = rx.receive(dsp::downsample(got, /*factor=*/4));
  const auto ref_rx = rx.receive(dsp::downsample(ref, /*factor=*/4));
  ASSERT_EQ(got_rx.has_value(), ref_rx.has_value());
  if (ref_rx) {
    EXPECT_EQ(got_rx->crc_ok, ref_rx->crc_ok);
    EXPECT_EQ(got_rx->mcs_index, ref_rx->mcs_index);
    EXPECT_NEAR(got_rx->snr_db, ref_rx->snr_db, 0.05);
  }
}

// The number the paper cares about is residual self-interference after
// cancellation. Build a leak channel, hand the canceller estimates that are
// 0.1% detuned (so the residual floor is set by the estimation error at
// ~-60 dB, like a real tuner, not by arithmetic), and require the f32 path
// to land within 0.01 dB of the f64 residual: switching precision must not
// cost measurable cancellation depth.
TEST(StreamF32, CancellationResidualDbMatchesF64) {
  Rng rng(23);
  CVec analog_true(8), digital_true(48);
  for (auto& t : analog_true) t = rng.cgaussian(1e-2);
  for (auto& t : digital_true) t = rng.cgaussian(1e-4);
  CVec analog_est = analog_true, digital_est = digital_true;
  for (auto& t : analog_est) t *= 1.001;
  for (auto& t : digital_est) t *= 1.001;

  const std::size_t n = 4096;
  CVec tx(n);
  for (auto& v : tx) v = rng.cgaussian();
  CVec rx(n);
  for (std::size_t i = 0; i < n; ++i) {
    Complex acc{};
    for (std::size_t k = 0; k < analog_true.size() && k <= i; ++k)
      acc += analog_true[k] * tx[i - k];
    for (std::size_t k = 0; k < digital_true.size() && k <= i; ++k)
      acc += digital_true[k] * tx[i - k];
    rx[i] = acc;
  }
  double in_power = 0.0;
  for (const auto& v : rx) in_power += std::norm(v);
  ASSERT_GT(in_power, 0.0);

  const auto residual_db = [&](Precision precision) {
    stream::CancellerElement canc("c", analog_est, digital_est);
    if (precision == Precision::kF32) {
      stream::Params p;
      p.set("analog", stream::format_cvec(analog_est));
      p.set("digital", stream::format_cvec(digital_est));
      p.set("precision", "f32");
      canc.configure(p);
    }
    CVec out = rx;
    canc.cancel_into(CMutSpan{out.data(), out.size()},
                     CSpan{tx.data(), tx.size()});
    double res = 0.0;
    for (const auto& v : out) res += std::norm(v);
    return 10.0 * std::log10(res / in_power);
  };

  const double f64_db = residual_db(Precision::kF64);
  const double f32_db = residual_db(Precision::kF32);
  EXPECT_LT(f64_db, -55.0) << "canceller did not cancel";
  EXPECT_NEAR(f32_db, f64_db, 0.01)
      << "f32 residual " << f32_db << " dB vs f64 " << f64_db << " dB";
}

// ------------------------------------------------------------ backpressure

TEST(StreamBackpressure, BoundedQueueNeverDropsUnderSaturation) {
  const CVec x = random_signal(10000, 13);
  MetricsRegistry metrics;
  Graph g;
  // Tiny capacities + a sink throttled to 1 block per opportunity: the
  // graph saturates immediately and the source spends most rounds stalled.
  auto* src = g.emplace<stream::VectorSource>("src", x, 16);
  auto* q = g.emplace<stream::Queue>("q");
  auto* sink = g.emplace<stream::AccumulatorSink>("sink", /*max_blocks_per_work=*/1);
  g.connect(*src, 0, *q, 0, /*capacity=*/2);
  g.connect(*q, 0, *sink, 0, /*capacity=*/2);

  SchedulerConfig sc;
  sc.metrics = &metrics;
  Scheduler(g, sc).run();

  // Nothing dropped, nothing reordered, nothing duplicated.
  EXPECT_EQ(sink->take(), x);
  // The producer genuinely hit backpressure...
  EXPECT_GT(src->stalls(), 0u);
  // ...and the bounded queues never exceeded their capacity.
  const auto snap = metrics.snapshot();
  EXPECT_LE(gauge_value(snap, "stream.q.in0.depth_peak"), 2.0);
  EXPECT_LE(gauge_value(snap, "stream.sink.in0.depth_peak"), 2.0);
  EXPECT_EQ(counter_value(snap, "stream.sink.samples"), x.size());
  EXPECT_GT(counter_value(snap, "stream.src.stalls"), 0u);
}

TEST(StreamBackpressure, ThrottledSinkStillDrainsEverythingMultithreaded) {
  const CVec x = random_signal(5000, 17);
  for (const std::size_t chains : kThreadCounts) {
    Graph g;
    auto* src = g.emplace<stream::VectorSource>("src", x, 8);
    auto* tee = g.emplace<stream::Tee>("tee", 2);
    auto* a = g.emplace<stream::AccumulatorSink>("a", 1);
    auto* b = g.emplace<stream::AccumulatorSink>("b", 2);
    g.connect(*src, 0, *tee, 0, /*capacity=*/2);
    g.connect(*tee, 0, *a, 0, /*capacity=*/2);
    g.connect(*tee, 1, *b, 0, /*capacity=*/2);
    SchedulerConfig sc;
    sc.mode = stream::SchedulerMode::kThroughput;
    sc.threads = chains;
    Scheduler(g, sc).run();
    EXPECT_EQ(a->take(), x) << "chains=" << chains;
    EXPECT_EQ(b->take(), x) << "chains=" << chains;
  }
}

TEST(StreamScheduler, ReferenceModeRunsOneChain) {
  // threads 0 and 1 both mean the one chain on the calling thread; more
  // is a throughput-mode setting.
  const CVec x = random_signal(100, 19);
  for (const std::size_t threads : {std::size_t{0}, std::size_t{1}, std::size_t{2}}) {
    Graph g;
    auto* src = g.emplace<stream::VectorSource>("src", x, 8);
    auto* sink = g.emplace<stream::AccumulatorSink>("sink");
    g.connect(*src, 0, *sink, 0);
    SchedulerConfig sc;
    sc.threads = threads;
    if (threads <= 1) {
      // 13 blocks through a capacity-8 channel: 8, then 5 and the close.
      EXPECT_EQ(Scheduler(g, sc).run(), 2u) << "threads=" << threads;
      EXPECT_EQ(sink->take(), x) << "threads=" << threads;
      continue;
    }
    try {
      Scheduler(g, sc).run();
      FAIL() << "reference mode ran with threads = " << threads;
    } catch (const std::logic_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("mode = throughput"), std::string::npos) << what;
    }
  }
}

TEST(StreamRuntime, BlockFlagsMarkStreamEnds) {
  Graph g;
  auto* src = g.emplace<stream::VectorSource>("src", random_signal(10, 23), 4);
  auto* sink = g.emplace<stream::AccumulatorSink>("sink");
  g.connect(*src, 0, *sink, 0);
  Scheduler(g).run();
  EXPECT_EQ(sink->blocks_seen(), 3u);  // 4 + 4 + 2
  EXPECT_EQ(sink->take().size(), 10u);
}

// ------------------------------------------------------ sink and channels

TEST(StreamSink, TakeEqualsTheBatchConcatenationInBothModes) {
  // The sink keeps each block's buffer as it is handed over and
  // concatenates once in take(). In throughput mode the source and the
  // sink run on different chains, so every kept buffer was allocated on
  // another thread and crossed a ring.
  const CVec x = random_signal(5000, 41);
  for (const std::size_t bs : kBlockSizes) {
    for (const bool throughput : {false, true}) {
      MetricsRegistry metrics;
      Graph g;
      auto* src = g.emplace<stream::VectorSource>("src", x, bs);
      auto* sink = g.emplace<stream::AccumulatorSink>("sink");
      g.connect(*src, 0, *sink, 0);
      SchedulerConfig sc;
      sc.metrics = &metrics;
      if (throughput) {
        sc.mode = stream::SchedulerMode::kThroughput;
        sc.threads = 2;  // chains [src] and [sink]
        sc.batch_size = 4;
      }
      Scheduler(g, sc).run();
      const std::uint64_t blocks = (x.size() + bs - 1) / bs;
      const std::string where =
          "bs=" + std::to_string(bs) + (throughput ? " throughput" : " reference");
      if (throughput) {
        // A ring bridges the sink's input: the hand-off crossed threads.
        EXPECT_GE(gauge_value(metrics.snapshot(), "stream.ring.sink.in0.depth_peak"), 1.0)
            << where;
      }
      EXPECT_EQ(sink->blocks_seen(), blocks) << where;
      EXPECT_EQ(sink->take(), x) << where;
      EXPECT_TRUE(sink->take().empty()) << where;
      // The read handlers are running counts; take() does not reset them.
      EXPECT_EQ(g.handler("sink", "samples").read(), std::to_string(x.size())) << where;
      EXPECT_EQ(g.handler("sink", "blocks").read(), std::to_string(blocks)) << where;
    }
  }
}

namespace {
/// Stamps every block after the first `skip` samples later than it is: a
/// stream with a gap.
class GapElement : public stream::Transform {
 public:
  GapElement(std::string name, std::uint64_t skip)
      : Transform(std::move(name)), skip_(skip) {}
  const char* class_name() const override { return "Gap"; }

 protected:
  void process(Block& block) override {
    if (block.start > 0) block.start += skip_;
  }

 private:
  std::uint64_t skip_;
};
}  // namespace

TEST(StreamSink, RejectsABlockThatSkipsAhead) {
  Graph g;
  auto* src = g.emplace<stream::VectorSource>("src", random_signal(256, 43), 64);
  auto* gap = g.emplace<GapElement>("gap", 10);
  auto* sink = g.emplace<stream::AccumulatorSink>("collector");
  g.connect(*src, 0, *gap, 0);
  g.connect(*gap, 0, *sink, 0);
  try {
    Scheduler(g).run();
    FAIL() << "a gapped stream reached the end";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("collector received out-of-order block"), std::string::npos)
        << what;
    EXPECT_NE(what.find("starts at 74, expected 64"), std::string::npos) << what;
  }
}

TEST(BlockFifo, WrapsAroundInOrderAndRefusesPushPastCapacity) {
  const auto block_at = [](std::uint64_t start) {
    Block b;
    b.samples.assign(3, Complex{static_cast<double>(start), 0.0});
    b.start = start;
    return b;
  };
  stream::BlockFifo fifo(3);
  EXPECT_EQ(fifo.capacity(), 3u);
  EXPECT_TRUE(fifo.empty());
  // Head and tail cross the end of the slot array several times.
  std::uint64_t pushed = 0, popped = 0;
  for (int round = 0; round < 5; ++round) {
    while (!fifo.full()) fifo.push_back(block_at(pushed++));
    EXPECT_EQ(fifo.size(), 3u);
    EXPECT_THROW(fifo.push_back(block_at(99)), std::logic_error);
    EXPECT_EQ(fifo.size(), 3u);
    for (int i = 0; i < 2; ++i) {
      const Block b = fifo.pop_front();
      EXPECT_EQ(b.start, popped);
      ASSERT_EQ(b.samples.size(), 3u);
      EXPECT_EQ(b.samples[0], Complex(static_cast<double>(popped), 0.0));
      ++popped;
    }
    EXPECT_EQ(fifo.size(), 1u);
  }
  EXPECT_EQ(fifo.pop_front().start, popped);
  EXPECT_TRUE(fifo.empty());
  EXPECT_THROW(fifo.pop_front(), std::logic_error);
  EXPECT_THROW(stream::BlockFifo(0), std::logic_error);
}

}  // namespace
}  // namespace ff
