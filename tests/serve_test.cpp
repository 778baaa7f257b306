// Serve-layer tests: the ff-iq-v1 wire protocol, the socket transport
// elements, the control line protocol, atomic snapshots, and the relay
// daemon end to end.
//
// The load-bearing test is SocketRelaySessionChecksumPinned: the pinned
// relay session run with its source and sink replaced by socket transports
// (frames in over one Unix socket, frames out over another) must reproduce
// the SAME pinned output checksum as the fully in-process graph
// (tests/stream_test.cpp), at multiple frame sizes and
// under both schedulers — the sender's framing chooses the receiver's
// block structure, and the runtime is block-size invariant.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "channel/floorplan.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "common/units.hpp"
#include "eval/testbed.hpp"
#include "eval/timedomain.hpp"
#include "phy/frame.hpp"
#include "serve/control.hpp"
#include "serve/daemon.hpp"
#include "serve/snapshot.hpp"
#include "stream/elements.hpp"
#include "stream/graph.hpp"
#include "stream/io_elements.hpp"
#include "stream/scheduler.hpp"
#include "stream/wire.hpp"

namespace ff {
namespace {

// ------------------------------------------------------------- helpers

/// Fresh private directory for this test's Unix socket paths.
std::string make_temp_dir() {
  char tmpl[] = "/tmp/ffserveXXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  if (dir == nullptr) throw std::runtime_error("mkdtemp failed");
  return dir;
}

std::uint64_t fnv1a_bytes(const void* bytes, std::size_t len) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::uint64_t checksum(const CVec& v) {
  return fnv1a_bytes(v.data(), v.size() * sizeof(Complex));
}

/// Read one '\n'-terminated line (control responses, FFERR lines).
std::string recv_line(int fd) {
  std::string out;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1) {
    if (c == '\n') return out;
    out.push_back(c);
  }
  return out;  // EOF: whatever arrived
}

/// One control round trip on an established connection.
std::string control(int fd, const std::string& cmd) {
  stream::wire_send_text(fd, cmd + "\n");
  return recv_line(fd);
}

// ------------------------------------------------------ wire primitives

TEST(Wire, EndpointParsingRoundTripsAndRejectsGarbage) {
  const auto ux = stream::parse_endpoint("t", "unix:/tmp/x.sock");
  EXPECT_EQ(ux.kind, stream::WireEndpoint::Kind::kUnix);
  EXPECT_EQ(ux.path, "/tmp/x.sock");
  EXPECT_EQ(ux.text(), "unix:/tmp/x.sock");

  const auto tcp = stream::parse_endpoint("t", "tcp:127.0.0.1:9000");
  EXPECT_EQ(tcp.kind, stream::WireEndpoint::Kind::kTcp);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 9000);
  EXPECT_EQ(tcp.text(), "tcp:127.0.0.1:9000");

  EXPECT_THROW(stream::parse_endpoint("t", "http://x"), std::logic_error);
  EXPECT_THROW(stream::parse_endpoint("t", "unix:"), std::logic_error);
  EXPECT_THROW(stream::parse_endpoint("t", "tcp:host"), std::logic_error);
  EXPECT_THROW(stream::parse_endpoint("t", "tcp:host:notaport"), std::logic_error);
  EXPECT_THROW(stream::parse_endpoint("t", "tcp:host:70000"), std::logic_error);
}

TEST(Wire, FramesRoundTripOverSocketPair) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const stream::OwnedFd a(sv[0]), b(sv[1]);

  CVec sent(300);
  for (std::size_t i = 0; i < sent.size(); ++i)
    sent[i] = Complex{static_cast<double>(i), -static_cast<double>(i)};

  stream::wire_send_magic(a.get());
  stream::wire_send_frame(a.get(), CSpan{sent.data(), 200});
  stream::wire_send_frame(a.get(), CSpan{sent.data() + 200, 100});
  stream::wire_send_eos(a.get());

  stream::wire_expect_magic(b.get());
  CVec frame;
  ASSERT_EQ(stream::wire_recv_frame(b.get(), frame, -1), stream::WireRecv::kFrame);
  EXPECT_EQ(frame.size(), 200u);
  EXPECT_EQ(frame[7], sent[7]);
  ASSERT_EQ(stream::wire_recv_frame(b.get(), frame, -1), stream::WireRecv::kFrame);
  EXPECT_EQ(frame.size(), 100u);
  EXPECT_EQ(frame[99], sent[299]);
  EXPECT_EQ(stream::wire_recv_frame(b.get(), frame, -1), stream::WireRecv::kEos);
}

TEST(Wire, ListenRefusesLiveOrForeignUnixPathsButReclaimsStaleOnes) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/lis.sock";
  const auto ep = stream::parse_endpoint("t", "unix:" + path);

  {
    // A live listener on the path must not be hijacked by a second bind...
    const stream::OwnedFd live = stream::wire_listen(ep);
    EXPECT_THROW(stream::wire_listen(ep), std::logic_error);
    // ...and must still be reachable afterwards (its socket file survived).
    const stream::OwnedFd c = stream::wire_connect(ep, 5.0);
    EXPECT_TRUE(c.valid());
  }

  // The dead listener left its socket file behind: stale, reclaimable.
  { const stream::OwnedFd again = stream::wire_listen(ep); }

  // A non-socket file at the path is never deleted.
  ::unlink(path.c_str());
  { std::ofstream f(path); f << "precious"; }
  EXPECT_THROW(stream::wire_listen(ep), std::logic_error);
  EXPECT_TRUE(std::ifstream(path).good());

  ::unlink(path.c_str());
  ::rmdir(dir.c_str());
}

// A listener that comes up about 1 ms after wire_connect starts is reached
// within a few ms: the retry pause starts at 100 us and doubles. (With a
// fixed 10 ms pause, every trial here took at least 10 ms.)
TEST(Wire, ConnectReachesALateListenerWithinMilliseconds) {
  const std::string dir = make_temp_dir();
  const auto ep = stream::parse_endpoint("t", "unix:" + dir + "/late.sock");
  std::vector<double> took_ms;
  for (int trial = 0; trial < 5; ++trial) {
    std::atomic<bool> go{false};
    stream::OwnedFd listener;
    std::thread binder([&] {
      while (!go.load()) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      listener = stream::wire_listen(ep);
    });
    const auto t0 = std::chrono::steady_clock::now();
    go.store(true);
    const stream::OwnedFd c = stream::wire_connect(ep, 5.0);
    took_ms.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
    binder.join();
    EXPECT_TRUE(c.valid());
    ::unlink(ep.path.c_str());
  }
  std::sort(took_ms.begin(), took_ms.end());
  EXPECT_LT(took_ms[2], 6.0) << "median connect time (ms) to a listener bound after 1 ms";
  ::rmdir(dir.c_str());
}

TEST(Wire, CleanCloseBetweenFramesIsEofTimeoutWhenQuiet) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  stream::OwnedFd a(sv[0]);
  const stream::OwnedFd b(sv[1]);

  CVec frame;
  // Nothing sent yet: a bounded wait times out.
  EXPECT_EQ(stream::wire_recv_frame(b.get(), frame, 10), stream::WireRecv::kTimeout);
  // Peer closes between frames: EOF, treated like EOS by the transports.
  a.reset();
  EXPECT_EQ(stream::wire_recv_frame(b.get(), frame, -1), stream::WireRecv::kEof);
}

// ------------------------------------------------------ control protocol

TEST(Control, ParsesEveryVerbAndRejectsMalformedLines) {
  using Verb = serve::ControlCommand::Verb;
  serve::ControlCommand cmd;
  std::string err;

  EXPECT_TRUE(serve::parse_control_line("ping", cmd, err));
  EXPECT_EQ(cmd.verb, Verb::kPing);
  EXPECT_TRUE(serve::parse_control_line("  stats  ", cmd, err));
  EXPECT_EQ(cmd.verb, Verb::kStats);
  EXPECT_TRUE(serve::parse_control_line("elements", cmd, err));
  EXPECT_EQ(cmd.verb, Verb::kElements);
  EXPECT_TRUE(serve::parse_control_line("snapshot", cmd, err));
  EXPECT_EQ(cmd.verb, Verb::kSnapshot);
  EXPECT_TRUE(serve::parse_control_line("shutdown", cmd, err));
  EXPECT_EQ(cmd.verb, Verb::kShutdown);

  EXPECT_TRUE(serve::parse_control_line("read relay.scrubbed", cmd, err));
  EXPECT_EQ(cmd.verb, Verb::kRead);
  EXPECT_EQ(cmd.element, "relay");
  EXPECT_EQ(cmd.handler, "scrubbed");

  // The write value is the rest of the line, verbatim (lists pass through).
  EXPECT_TRUE(serve::parse_control_line("write fir.set_taps (0.9,0),(0.1,0)", cmd, err));
  EXPECT_EQ(cmd.verb, Verb::kWrite);
  EXPECT_EQ(cmd.element, "fir");
  EXPECT_EQ(cmd.handler, "set_taps");
  EXPECT_EQ(cmd.value, "(0.9,0),(0.1,0)");

  EXPECT_FALSE(serve::parse_control_line("", cmd, err));
  EXPECT_FALSE(serve::parse_control_line("bogus", cmd, err));
  EXPECT_FALSE(serve::parse_control_line("ping extra", cmd, err));
  EXPECT_FALSE(serve::parse_control_line("read noDotHere", cmd, err));
  EXPECT_FALSE(serve::parse_control_line("read", cmd, err));
  // A write with nothing after the target is a valid empty value (some
  // handlers treat the value as optional); the handler decides.
  EXPECT_TRUE(serve::parse_control_line("write fir.set_taps", cmd, err));
  EXPECT_EQ(cmd.value, "");
}

TEST(Control, ResponsesAreSingleLines) {
  EXPECT_EQ(serve::ok_response(), "ok\n");
  EXPECT_EQ(serve::ok_response("pong"), "ok pong\n");
  EXPECT_EQ(serve::err_response("busy", "try later"), "err busy try later\n");
  // Newlines in a detail must not break the one-line framing.
  const std::string multi = serve::err_response("bad-value", "line1\nline2");
  EXPECT_EQ(std::count(multi.begin(), multi.end(), '\n'), 1);
  // Nor in an ok payload: a handler value may hold them (a config body can
  // span lines), and a second line would read as the next command's reply.
  const std::string ok = serve::ok_response("/tmp/a\nb\r\nc");
  EXPECT_EQ(ok, "ok /tmp/a b  c\n");
  EXPECT_EQ(std::count(ok.begin(), ok.end(), '\n'), 1);
}

TEST(Control, LineBufferSplitsStreamsAndStripsCr) {
  serve::LineBuffer lb;
  std::string line;
  lb.append("pi", 2);
  EXPECT_FALSE(lb.next_line(line));
  lb.append("ng\r\nsta", 7);
  ASSERT_TRUE(lb.next_line(line));
  EXPECT_EQ(line, "ping");
  EXPECT_FALSE(lb.next_line(line));
  lb.append("ts\n", 3);
  ASSERT_TRUE(lb.next_line(line));
  EXPECT_EQ(line, "stats");
  EXPECT_EQ(lb.pending(), 0u);
}

// ------------------------------------------------------------- snapshots

TEST(Snapshot, AtomicWriteProducesValidMetricsV1) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/metrics.json";

  MetricsRegistry reg;
  reg.add("serve.sessions_started", 3);
  reg.set("serve.session_active", 1.0);
  serve::write_snapshot_atomic(reg, path);

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream body;
  body << in.rdbuf();
  const std::string json = body.str();
  EXPECT_NE(json.find("ff-metrics-v1"), std::string::npos);
  EXPECT_NE(json.find("serve.sessions_started"), std::string::npos);
  EXPECT_NE(json.find("serve.session_active"), std::string::npos);

  // Overwrite in place: the reader never sees a torn file, and no .tmp
  // residue is left behind.
  reg.add("serve.sessions_started", 1);
  serve::write_snapshot_atomic(reg, path);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());

  EXPECT_THROW(serve::write_snapshot_atomic(reg, dir + "/no/such/dir.json"),
               std::logic_error);
}

// ------------------------------------------------------------ file taps

TEST(FileTap, PassesThroughAndDumpsRawComplex128) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/tap.iq";

  stream::Graph g;
  CVec data(50);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = Complex{static_cast<double>(i), 0.5};
  auto* src = g.emplace<stream::VectorSource>("src", data, 7);
  auto* tap = g.emplace<stream::FileTapSink>("tap");
  {
    stream::Params p;
    p.set("path", path);
    tap->configure(p);
  }
  auto* sink = g.emplace<stream::AccumulatorSink>("sink");
  g.connect(*src, 0, *tap, 0);
  g.connect(*tap, 0, *sink, 0);
  stream::Scheduler(g).run();

  // The tap is transparent to the graph...
  EXPECT_EQ(sink->take(), data);
  EXPECT_EQ(tap->written(), data.size());
  // ...and the file holds the same samples as raw interleaved float64 IQ.
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  CVec from_file(data.size());
  in.read(reinterpret_cast<char*>(from_file.data()),
          static_cast<std::streamsize>(data.size() * sizeof(Complex)));
  ASSERT_EQ(in.gcount(),
            static_cast<std::streamsize>(data.size() * sizeof(Complex)));
  EXPECT_EQ(from_file, data);
  EXPECT_EQ(checksum(from_file), checksum(data));
}

// ------------------------------- pinned checksum through socket transports

/// The pinned relay session (same construction as tests/stream_test.cpp,
/// which pins the in-process checksum).
struct RelaySession {
  eval::TimeDomainLink link;
  relay::PipelineConfig pipeline;
  stream::PacketSourceConfig packets;
  double fs_hi = 0.0;
};

RelaySession make_relay_session() {
  constexpr std::size_t kOversample = 4;
  const eval::TestbedConfig tb;
  const auto plan = channel::FloorPlan::paper_home();
  const auto placement = eval::make_placement(plan);
  Rng rng(20140817);

  RelaySession s;
  s.link = eval::build_td_link(placement, {6.0, 4.0}, tb, rng);
  s.fs_hi = tb.ofdm.sample_rate_hz * static_cast<double>(kOversample);
  s.pipeline = eval::make_ff_pipeline(s.link, tb.ofdm, /*extra_latency_s=*/0.0);

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

/// The source stream the in-process graph would feed the relay chain.
CVec capture_source(const RelaySession& s) {
  stream::Graph g;
  auto* src = g.emplace<stream::PacketSource>("src", s.packets, 256);
  auto* sink = g.emplace<stream::AccumulatorSink>("sink");
  g.connect(*src, 0, *sink, 0);
  stream::Scheduler(g).run();
  return sink->take();
}

/// Run the relay chain with socket transports at both ends: a feeder thread
/// streams `input` as `frame_size`-sample ff-iq-v1 frames into a listening
/// SocketSource, a collector thread drains the SocketSink, and the caller
/// checks the collected checksum.
CVec run_socket_relay(const RelaySession& s, const CVec& input,
                      std::size_t frame_size, const stream::SchedulerConfig& sc) {
  const std::string dir = make_temp_dir();
  const std::string in_ep = "unix:" + dir + "/in.sock";
  const std::string out_ep = "unix:" + dir + "/out.sock";
  constexpr std::size_t kCap = 8;

  stream::Graph g;
  auto* in = g.emplace<stream::SocketSource>("in");
  {
    stream::Params p;
    p.set("endpoint", in_ep);
    p.set("poll_ms", "5");
    in->configure(p);
  }
  auto* cfo = g.emplace<stream::CfoElement>("src_cfo", s.link.source_cfo_hz, s.fs_hi);
  auto* tee = g.emplace<stream::Tee>("tee", 2);

  stream::ChannelElementConfig sd;
  sd.channel = s.link.sd;
  sd.sample_rate_hz = s.fs_hi;
  sd.noise_power = power_from_db(s.link.dest_noise_dbm) * 4.0;
  sd.seed = s.packets.seed ^ 0xD5;
  auto* chan_sd = g.emplace<stream::ChannelElement>("chan_sd", sd);
  auto* q = g.emplace<stream::Queue>("q");

  stream::ChannelElementConfig sr;
  sr.channel = s.link.sr;
  sr.sample_rate_hz = s.fs_hi;
  sr.noise_power = power_from_db(s.link.relay_noise_dbm) * 4.0;
  sr.seed = s.packets.seed ^ 0x5F;
  auto* chan_sr = g.emplace<stream::ChannelElement>("chan_sr", sr);
  auto* relay = g.emplace<stream::PipelineElement>("relay", s.pipeline);

  stream::ChannelElementConfig rd;
  rd.channel = s.link.rd;
  rd.sample_rate_hz = s.fs_hi;
  rd.seed = s.packets.seed ^ 0xFD;
  auto* chan_rd = g.emplace<stream::ChannelElement>("chan_rd", rd);

  auto* add = g.emplace<stream::Add2>("add");
  auto* out = g.emplace<stream::SocketSink>("out");
  {
    stream::Params p;
    p.set("endpoint", out_ep);
    p.set("listen", "true");
    out->configure(p);
  }

  g.connect(*in, 0, *cfo, 0, kCap);
  g.connect(*cfo, 0, *tee, 0, kCap);
  g.connect(*tee, 0, *chan_sd, 0, kCap);
  g.connect(*chan_sd, 0, *q, 0, kCap);
  g.connect(*q, 0, *add, 0, kCap);
  g.connect(*tee, 1, *chan_sr, 0, kCap);
  g.connect(*chan_sr, 0, *relay, 0, kCap);
  g.connect(*relay, 0, *chan_rd, 0, kCap);
  g.connect(*chan_rd, 0, *add, 1, kCap);
  g.connect(*add, 0, *out, 0, kCap);

  std::thread feeder([&] {
    const stream::OwnedFd fd =
        stream::wire_connect(stream::parse_endpoint("feeder", in_ep), 20.0);
    stream::wire_send_magic(fd.get());
    std::size_t sent = 0;
    while (sent < input.size()) {
      const std::size_t n = std::min(frame_size, input.size() - sent);
      stream::wire_send_frame(fd.get(), CSpan{input.data() + sent, n});
      sent += n;
    }
    stream::wire_send_eos(fd.get());
  });

  CVec collected;
  std::thread collector([&] {
    const stream::OwnedFd fd =
        stream::wire_connect(stream::parse_endpoint("collector", out_ep), 20.0);
    stream::wire_expect_magic(fd.get());
    CVec frame;
    while (stream::wire_recv_frame(fd.get(), frame, -1) == stream::WireRecv::kFrame)
      collected.insert(collected.end(), frame.begin(), frame.end());
  });

  stream::Scheduler(g, sc).run();
  feeder.join();
  collector.join();
  ::unlink((dir + "/in.sock").c_str());
  ::unlink((dir + "/out.sock").c_str());
  ::rmdir(dir.c_str());
  return collected;
}

TEST(SocketRelay, SessionChecksumPinnedAcrossFrameSizesAndModes) {
  // The exact constant the fully in-process graph pins
  // (tests/stream_test.cpp).
  constexpr std::uint64_t kChecksum = 0x1179AD8BF8201EEFULL;
  const RelaySession session = make_relay_session();
  const CVec input = capture_source(session);
  ASSERT_EQ(input.size(), 399360u);

  for (const std::size_t frame_size : {std::size_t{256}, std::size_t{333}}) {
    {
      stream::SchedulerConfig sc;  // reference
      const CVec got = run_socket_relay(session, input, frame_size, sc);
      ASSERT_EQ(got.size(), input.size()) << "frame=" << frame_size;
      EXPECT_EQ(checksum(got), kChecksum) << "reference frame=" << frame_size;
    }
    {
      stream::SchedulerConfig sc;
      sc.mode = stream::SchedulerMode::kThroughput;
      sc.threads = 2;
      sc.batch_size = 4;
      const CVec got = run_socket_relay(session, input, frame_size, sc);
      ASSERT_EQ(got.size(), input.size()) << "frame=" << frame_size;
      EXPECT_EQ(checksum(got), kChecksum) << "throughput frame=" << frame_size;
    }
  }
}

// Regression: SocketSource used to keep reading until its output channel
// was full, waiting up to poll_ms for every frame, so a paced sender's frame
// sat in the source until the frames behind it arrived. Now a pass waits for
// its first frame only, and the frame is forwarded in the round it arrives.
TEST(SocketRelay, ForwardsEachFrameBeforeTheNextIsSent) {
  const std::string dir = make_temp_dir();
  const std::string in_ep = "unix:" + dir + "/in.sock";
  const std::string out_ep = "unix:" + dir + "/out.sock";

  stream::Graph g;
  auto* in = g.emplace<stream::SocketSource>("in");
  {
    stream::Params p;
    p.set("endpoint", in_ep);
    p.set("poll_ms", "60000");
    in->configure(p);
  }
  auto* out = g.emplace<stream::SocketSink>("out");
  {
    stream::Params p;
    p.set("endpoint", out_ep);
    out->configure(p);  // dials out to the listener below
  }
  g.connect(*in, 0, *out, 0);

  // The test owns the output listener, so a sink that never dials in shows
  // up as a poll timeout rather than a blocked accept.
  const stream::OwnedFd out_listener =
      stream::wire_listen(stream::parse_endpoint("t", out_ep));
  std::thread runner([&] { stream::Scheduler(g).run(); });

  const stream::OwnedFd tx =
      stream::wire_connect(stream::parse_endpoint("t", in_ep), 20.0);
  stream::wire_send_magic(tx.get());
  CVec ramp(64);
  for (std::size_t i = 0; i < ramp.size(); ++i)
    ramp[i] = Complex{static_cast<double>(i), -1.0};
  stream::wire_send_frame(tx.get(), CSpan{ramp.data(), ramp.size()});

  // The frame's output must arrive while the sender is still quiet. The EOS
  // is sent either way, so a failure ends the run instead of hanging it.
  stream::OwnedFd rx;
  const bool dialed = stream::wire_poll_readable(out_listener.get(), 5000);
  EXPECT_TRUE(dialed) << "the sink never received the first frame";
  if (dialed) {
    rx = stream::wire_accept(out_listener.get());
    stream::wire_expect_magic(rx.get());
    CVec frame;
    EXPECT_EQ(stream::wire_recv_frame(rx.get(), frame, 5000), stream::WireRecv::kFrame);
    EXPECT_EQ(frame, ramp);
  }
  stream::wire_send_eos(tx.get());
  runner.join();
  EXPECT_EQ(in->frames(), 1u);

  ::unlink((dir + "/in.sock").c_str());
  ::unlink((dir + "/out.sock").c_str());
  ::rmdir(dir.c_str());
}

// ------------------------------------------------------------ the daemon

TEST(RelayDaemon, ServesControlAdmissionAndLiveRetunes) {
  const std::string dir = make_temp_dir();
  const std::string in_ep = "unix:" + dir + "/in.sock";
  const std::string out_ep = "unix:" + dir + "/out.sock";
  const std::string ctl_ep = "unix:" + dir + "/ctl.sock";
  const std::string snap = dir + "/metrics.json";

  serve::DaemonConfig cfg;
  cfg.graph_text = "in :: SocketSource(endpoint=" + in_ep + ", poll_ms=5);\n" +
                   "gain :: Fir(taps=(2,0));\n" +
                   "out :: SocketSink(endpoint=" + out_ep + ", listen=true);\n" +
                   "in -> gain -> out;\n";
  cfg.graph_source = "daemon_test.ff";
  cfg.control = ctl_ep;
  cfg.snapshot_path = snap;
  cfg.snapshot_period_s = 0.05;
  cfg.log = [](const std::string&) {};  // quiet

  serve::RelayDaemon daemon(std::move(cfg));
  std::thread runner([&] { daemon.run(); });

  const stream::OwnedFd ctl =
      stream::wire_connect(stream::parse_endpoint("t", ctl_ep), 20.0);
  EXPECT_EQ(control(ctl.get(), "ping"), "ok pong");
  EXPECT_EQ(control(ctl.get(), "elements"),
            "ok in:SocketSource,gain:Fir,out:SocketSink");
  EXPECT_EQ(control(ctl.get(), "nonsense").rfind("err bad-command", 0), 0u);
  // No session yet: element commands are refused, stats says idle.
  EXPECT_EQ(control(ctl.get(), "read gain.taps").rfind("err no-session", 0), 0u);
  EXPECT_NE(control(ctl.get(), "stats").find("sessions_started=0"), std::string::npos);

  // Start a session: one sender, one receiver.
  const stream::OwnedFd tx =
      stream::wire_connect(stream::parse_endpoint("t", in_ep), 20.0);
  stream::wire_send_magic(tx.get());
  const stream::OwnedFd rx =
      stream::wire_connect(stream::parse_endpoint("t", out_ep), 20.0);

  CVec ramp(100);
  for (std::size_t i = 0; i < ramp.size(); ++i)
    ramp[i] = Complex{static_cast<double>(i), 1.0};
  stream::wire_send_frame(tx.get(), CSpan{ramp.data(), ramp.size()});

  stream::wire_expect_magic(rx.get());
  CVec frame;
  ASSERT_EQ(stream::wire_recv_frame(rx.get(), frame, -1), stream::WireRecv::kFrame);
  ASSERT_EQ(frame.size(), ramp.size());
  EXPECT_EQ(frame[5], ramp[5] * 2.0);  // gain 2 applied

  // Admission control: a second sender during the session is rejected with
  // a structured FFERR line.
  {
    const stream::OwnedFd intruder =
        stream::wire_connect(stream::parse_endpoint("t", in_ep), 20.0);
    const std::string line = recv_line(intruder.get());
    EXPECT_EQ(line.rfind("FFERR ", 0), 0u) << line;
    EXPECT_NE(line.find("\"code\":\"busy\""), std::string::npos) << line;
    EXPECT_NE(line.find("in.sock"), std::string::npos) << line;
  }

  // Live control mid-session: read state, then retune the gain. The next
  // frame is sent only after the write's `ok`, so it sees the new taps.
  EXPECT_EQ(control(ctl.get(), "read gain.taps"), "ok (2,0)");
  EXPECT_EQ(control(ctl.get(), "read in.connected"), "ok true");
  EXPECT_EQ(control(ctl.get(), "read gain.nope").rfind("err no-handler", 0), 0u);
  EXPECT_EQ(control(ctl.get(), "write gain.taps x").rfind("err not-writable", 0), 0u);
  EXPECT_EQ(control(ctl.get(), "write gain.set_taps bogus").rfind("err bad-value", 0),
            0u);
  EXPECT_EQ(control(ctl.get(), "write gain.set_taps (3,0)"), "ok");

  stream::wire_send_frame(tx.get(), CSpan{ramp.data(), ramp.size()});
  ASSERT_EQ(stream::wire_recv_frame(rx.get(), frame, -1), stream::WireRecv::kFrame);
  ASSERT_EQ(frame.size(), ramp.size());
  EXPECT_EQ(frame[5], ramp[5] * 3.0);  // retuned gain

  // End the stream; the daemon reaps the session as completed.
  stream::wire_send_eos(tx.get());
  const stream::WireRecv tail = stream::wire_recv_frame(rx.get(), frame, -1);
  EXPECT_TRUE(tail == stream::WireRecv::kEos || tail == stream::WireRecv::kEof);
  for (int i = 0; i < 200; ++i) {
    if (control(ctl.get(), "stats").find("sessions_completed=1") != std::string::npos)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_NE(control(ctl.get(), "stats").find("sessions_completed=1"),
            std::string::npos);

  // Snapshots: the forced write reports the path; the file is ff-metrics-v1
  // and carries the serve.* counters.
  EXPECT_EQ(control(ctl.get(), "snapshot"), "ok " + snap);
  {
    std::ifstream in(snap, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream body;
    body << in.rdbuf();
    EXPECT_NE(body.str().find("ff-metrics-v1"), std::string::npos);
    EXPECT_NE(body.str().find("serve.sessions_started"), std::string::npos);
    EXPECT_NE(body.str().find("serve.admission_rejected"), std::string::npos);
  }

  EXPECT_EQ(control(ctl.get(), "shutdown"), "ok shutting-down");
  runner.join();

  EXPECT_EQ(daemon.sessions_started(), 1u);
  EXPECT_EQ(daemon.sessions_completed(), 1u);
  EXPECT_EQ(daemon.sessions_aborted(), 0u);
  EXPECT_EQ(daemon.admission_rejected(), 1u);
}

/// Poll `stats` on the control connection until the response contains
/// `needle` (or ~4 s elapse). Returns the last stats line either way.
std::string wait_stats(int ctl_fd, const std::string& needle) {
  std::string last;
  for (int i = 0; i < 200; ++i) {
    last = control(ctl_fd, "stats");
    if (last.find(needle) != std::string::npos) return last;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return last;
}

// Regression: shutdown with a session in flight used to hang run() forever
// when the data peers stayed connected but quiet — neither driver-loop
// break condition could fire with session_ alive.
TEST(RelayDaemon, ShutdownAbortsAnInFlightSession) {
  const std::string dir = make_temp_dir();
  const std::string in_ep = "unix:" + dir + "/in.sock";
  const std::string out_ep = "unix:" + dir + "/out.sock";
  const std::string ctl_ep = "unix:" + dir + "/ctl.sock";

  serve::DaemonConfig cfg;
  cfg.graph_text = "in :: SocketSource(endpoint=" + in_ep + ", poll_ms=5);\n" +
                   "out :: SocketSink(endpoint=" + out_ep + ", listen=true);\n" +
                   "in -> out;\n";
  cfg.control = ctl_ep;
  cfg.log = [](const std::string&) {};
  serve::RelayDaemon daemon(std::move(cfg));
  std::thread runner([&] { daemon.run(); });

  const stream::OwnedFd ctl =
      stream::wire_connect(stream::parse_endpoint("t", ctl_ep), 20.0);
  const stream::OwnedFd tx =
      stream::wire_connect(stream::parse_endpoint("t", in_ep), 20.0);
  stream::wire_send_magic(tx.get());
  const stream::OwnedFd rx =
      stream::wire_connect(stream::parse_endpoint("t", out_ep), 20.0);

  // One frame through the graph proves the session is live; no EOS is ever
  // sent, so without the abort the session would idle forever.
  CVec ramp(16, Complex{1.0, 0.0});
  stream::wire_send_frame(tx.get(), CSpan{ramp.data(), ramp.size()});
  stream::wire_expect_magic(rx.get());
  CVec frame;
  ASSERT_EQ(stream::wire_recv_frame(rx.get(), frame, -1), stream::WireRecv::kFrame);

  EXPECT_EQ(control(ctl.get(), "shutdown"), "ok shutting-down");
  runner.join();  // hangs without the stop-with-session abort path

  EXPECT_EQ(daemon.sessions_started(), 1u);
  EXPECT_EQ(daemon.sessions_aborted(), 1u);
}

// Regression: an element command's reply used to wait for the driver
// loop's 50 ms poll tick after the session had already answered it. The
// session now wakes the driver, so a read returns within one session round
// (poll_ms = 5 here).
TEST(RelayDaemon, ControlReadsReturnWithoutWaitingForThePollTick) {
  const std::string dir = make_temp_dir();
  const std::string in_ep = "unix:" + dir + "/in.sock";
  const std::string out_ep = "unix:" + dir + "/out.sock";
  const std::string ctl_ep = "unix:" + dir + "/ctl.sock";

  serve::DaemonConfig cfg;
  cfg.graph_text = "in :: SocketSource(endpoint=" + in_ep + ", poll_ms=5);\n" +
                   "out :: SocketSink(endpoint=" + out_ep + ", listen=true);\n" +
                   "in -> out;\n";
  cfg.control = ctl_ep;
  cfg.log = [](const std::string&) {};
  serve::RelayDaemon daemon(std::move(cfg));
  std::thread runner([&] { daemon.run(); });

  const stream::OwnedFd ctl =
      stream::wire_connect(stream::parse_endpoint("t", ctl_ep), 20.0);
  const stream::OwnedFd tx =
      stream::wire_connect(stream::parse_endpoint("t", in_ep), 20.0);
  stream::wire_send_magic(tx.get());
  const stream::OwnedFd rx =
      stream::wire_connect(stream::parse_endpoint("t", out_ep), 20.0);
  CVec ramp(16, Complex{1.0, 0.0});
  stream::wire_send_frame(tx.get(), CSpan{ramp.data(), ramp.size()});
  stream::wire_expect_magic(rx.get());
  CVec frame;
  ASSERT_EQ(stream::wire_recv_frame(rx.get(), frame, -1), stream::WireRecv::kFrame);

  std::vector<double> rtt_ms;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(control(ctl.get(), "read in.frames"), "ok 1");
    rtt_ms.push_back(
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count());
  }
  std::sort(rtt_ms.begin(), rtt_ms.end());
  EXPECT_LT(rtt_ms[2], 25.0) << "median control read round trip (ms)";

  stream::wire_send_eos(tx.get());
  EXPECT_EQ(control(ctl.get(), "shutdown"), "ok shutting-down");
  runner.join();
}

// Regression: a data peer that connected and died before its session
// started used to hold its endpoint claim forever (pending fds were never
// polled for hangup), rejecting every reconnect as "already claimed".
TEST(RelayDaemon, DeadPendingPeerReleasesItsEndpoint) {
  const std::string dir = make_temp_dir();
  const std::string in_ep = "unix:" + dir + "/in.sock";
  const std::string out_ep = "unix:" + dir + "/out.sock";
  const std::string ctl_ep = "unix:" + dir + "/ctl.sock";

  serve::DaemonConfig cfg;
  cfg.graph_text = "in :: SocketSource(endpoint=" + in_ep + ", poll_ms=5);\n" +
                   "out :: SocketSink(endpoint=" + out_ep + ", listen=true);\n" +
                   "in -> out;\n";
  cfg.control = ctl_ep;
  cfg.max_sessions = 1;
  cfg.log = [](const std::string&) {};
  serve::RelayDaemon daemon(std::move(cfg));
  std::thread runner([&] { daemon.run(); });

  const stream::OwnedFd ctl =
      stream::wire_connect(stream::parse_endpoint("t", ctl_ep), 20.0);

  {
    // A peer claims the source endpoint, then dies before the session
    // starts (the sink endpoint never gets a peer).
    const stream::OwnedFd ghost =
        stream::wire_connect(stream::parse_endpoint("t", in_ep), 20.0);
    EXPECT_NE(wait_stats(ctl.get(), "pending=1").find("pending=1"),
              std::string::npos);
  }
  // The daemon notices the hangup and releases the claim...
  ASSERT_NE(wait_stats(ctl.get(), "pending=0").find("pending=0"),
            std::string::npos);

  // ...so a reconnecting peer is admitted and the session runs to
  // completion instead of being rejected as "already claimed".
  const stream::OwnedFd tx =
      stream::wire_connect(stream::parse_endpoint("t", in_ep), 20.0);
  stream::wire_send_magic(tx.get());
  ASSERT_NE(wait_stats(ctl.get(), "pending=1").find("pending=1"),
            std::string::npos);
  const stream::OwnedFd rx =
      stream::wire_connect(stream::parse_endpoint("t", out_ep), 20.0);
  CVec ramp(16, Complex{1.0, 0.0});
  stream::wire_send_frame(tx.get(), CSpan{ramp.data(), ramp.size()});
  stream::wire_send_eos(tx.get());
  stream::wire_expect_magic(rx.get());
  CVec frame;
  ASSERT_EQ(stream::wire_recv_frame(rx.get(), frame, -1), stream::WireRecv::kFrame);
  EXPECT_EQ(frame.size(), ramp.size());

  runner.join();  // max_sessions=1: the daemon exits once the session ends
  EXPECT_EQ(daemon.sessions_completed(), 1u);
  EXPECT_EQ(daemon.admission_rejected(), 0u);
}

// A control client that streams more than the daemon's 64 KiB line cap
// without a newline is dropped; the daemon and its other control clients
// carry on.
TEST(RelayDaemon, OversizedControlLineDropsOnlyThatClient) {
  const std::string dir = make_temp_dir();
  const std::string in_ep = "unix:" + dir + "/in.sock";
  const std::string ctl_ep = "unix:" + dir + "/ctl.sock";

  // No data peer ever connects, so no session starts.
  serve::DaemonConfig cfg;
  cfg.graph_text = "in :: SocketSource(endpoint=" + in_ep + ", poll_ms=5);\n" +
                   "in -> NullSink();\n";
  cfg.control = ctl_ep;
  cfg.log = [](const std::string&) {};
  serve::RelayDaemon daemon(std::move(cfg));
  std::thread runner([&] { daemon.run(); });

  const stream::OwnedFd a =
      stream::wire_connect(stream::parse_endpoint("t", ctl_ep), 20.0);
  const stream::OwnedFd b =
      stream::wire_connect(stream::parse_endpoint("t", ctl_ep), 20.0);

  // The daemon may close A before every byte is sent: stop at the first
  // failed send (MSG_NOSIGNAL turns SIGPIPE into EPIPE).
  const std::string garbage(70000, 'x');
  std::size_t sent = 0;
  while (sent < garbage.size()) {
    const ssize_t n =
        ::send(a.get(), garbage.data() + sent, garbage.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }

  // No ASSERT before the join below: run() must be shut down either way.
  const bool dropped = stream::wire_poll_readable(a.get(), 10000);
  EXPECT_TRUE(dropped) << "client A was never dropped";
  if (dropped) {
    char c = 0;
    const ssize_t n = ::recv(a.get(), &c, 1, 0);
    EXPECT_TRUE(n == 0 || (n < 0 && errno == ECONNRESET)) << "recv returned " << n;
  }

  EXPECT_EQ(control(b.get(), "ping"), "ok pong");
  EXPECT_EQ(control(b.get(), "shutdown"), "ok shutting-down");
  runner.join();
  EXPECT_EQ(daemon.sessions_started(), 0u);
}

TEST(RelayDaemon, ConstructorRejectsBadGraphsAndPresets) {
  serve::DaemonConfig cfg;
  cfg.graph_text = "in :: NoSuchClass();\nin -> NullSink();\n";
  cfg.log = [](const std::string&) {};
  EXPECT_THROW(serve::RelayDaemon{cfg}, std::logic_error);

  cfg.graph_text = "src :: VectorSource(data=(1,0), block=1);\n"
                   "f :: Fir(taps=(1,0));\nsrc -> f -> NullSink();\n";
  cfg.presets.push_back(eval::HandlerWrite{"f", "no_such_handler", "1"});
  EXPECT_THROW(serve::RelayDaemon{cfg}, std::logic_error);

  // A listening socket element needs an endpoint for the daemon to own.
  serve::DaemonConfig noep;
  noep.graph_text = "in :: SocketSource();\nin -> NullSink();\n";
  noep.log = [](const std::string&) {};
  EXPECT_THROW(serve::RelayDaemon{noep}, std::logic_error);

  // More than one thread is a throughput-mode setting: the daemon refuses
  // it at start-up, not at the first session.
  serve::DaemonConfig threads;
  threads.graph_text = "src :: VectorSource(data=(1,0), block=1);\nsrc -> NullSink();\n";
  threads.log = [](const std::string&) {};
  threads.threads = 3;
  try {
    serve::RelayDaemon daemon{threads};
    FAIL() << "a reference-mode daemon accepted threads = 3";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("mode = throughput"), std::string::npos) << e.what();
  }
  threads.throughput = true;
  EXPECT_NO_THROW(serve::RelayDaemon{threads});
}

/// One connect(2) to a Unix socket path, no retry: the fd, or an invalid
/// one when nobody listens there.
stream::OwnedFd connect_once(const std::string& path) {
  stream::OwnedFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0)
    fd.reset();
  return fd;
}

bool is_socket(const std::string& path) {
  struct stat st{};
  return ::lstat(path.c_str(), &st) == 0 && S_ISSOCK(st.st_mode);
}

/// A daemon config serving `in -> NullSink` on a listening source, with a
/// control endpoint; no session starts until a peer connects to `in`.
serve::DaemonConfig idle_daemon_config(const std::string& dir) {
  serve::DaemonConfig cfg;
  cfg.graph_text = "in :: SocketSource(endpoint=unix:" + dir + "/in.sock, poll_ms=5);\n" +
                   "in -> NullSink();\n";
  cfg.control = "unix:" + dir + "/ctl.sock";
  cfg.log = [](const std::string&) {};
  return cfg;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

// The daemon binds its listeners in the constructor: one connect(2) with no
// retry reaches both the control and the data endpoint before run() is
// called, and run() then serves the queued peers: the control client gets
// its pong and the data peer its session.
TEST(RelayDaemon, ConnectableOnceConstructed) {
  const std::string dir = make_temp_dir();
  serve::RelayDaemon daemon(idle_daemon_config(dir));
  const stream::OwnedFd ctl = connect_once(dir + "/ctl.sock");
  const stream::OwnedFd data = connect_once(dir + "/in.sock");
  EXPECT_TRUE(ctl.valid()) << "control endpoint refused a connect before run()";
  EXPECT_TRUE(data.valid()) << "data endpoint refused a connect before run()";

  std::thread runner([&] { daemon.run(); });
  if (ctl.valid()) {
    EXPECT_EQ(control(ctl.get(), "ping"), "ok pong");
    if (data.valid()) {
      // The queued data peer is the graph's only port: its session starts.
      EXPECT_NE(wait_stats(ctl.get(), "sessions_started=1").find("active=1"),
                std::string::npos);
    }
  }
  daemon.request_stop();
  runner.join();
  ::rmdir(dir.c_str());
}

// A client that connects both data peers and then asks `stats` gets a
// reply that shows the session: the daemon accepts the peers and starts
// the session before it answers control lines from the same poll round.
// (Answered first, the reply read active=0, and a client polling for the
// session start waited out its own retry interval.)
TEST(RelayDaemon, StatsAfterBothPeersConnectShowsTheSession) {
  const std::string dir = make_temp_dir();
  const std::string in_ep = "unix:" + dir + "/in.sock";
  const std::string out_ep = "unix:" + dir + "/out.sock";
  for (int trial = 0; trial < 5; ++trial) {
    serve::DaemonConfig cfg;
    cfg.graph_text = "in :: SocketSource(endpoint=" + in_ep + ", poll_ms=5);\n" +
                     "out :: SocketSink(endpoint=" + out_ep + ", listen=true);\n" +
                     "in -> out;\n";
    cfg.control = "unix:" + dir + "/ctl.sock";
    cfg.log = [](const std::string&) {};
    serve::RelayDaemon daemon(std::move(cfg));
    const stream::OwnedFd ctl = connect_once(dir + "/ctl.sock");
    ASSERT_TRUE(ctl.valid());
    std::thread runner([&] { daemon.run(); });
    EXPECT_EQ(control(ctl.get(), "ping"), "ok pong");
    const stream::OwnedFd tx = connect_once(dir + "/in.sock");
    const stream::OwnedFd rx = connect_once(dir + "/out.sock");
    EXPECT_NE(control(ctl.get(), "stats").find("active=1"), std::string::npos)
        << "trial " << trial;
    daemon.request_stop();
    runner.join();
  }
  ::rmdir(dir.c_str());
}

// A daemon that never ran still releases its endpoints: the destructor
// unlinks its Unix socket paths, so another daemon constructs on them. A
// daemon whose control path is held by a live daemon throws from its
// constructor, releases the data path it had bound, and leaves the live
// daemon's path alone.
TEST(RelayDaemon, NeverRunDaemonReleasesItsSocketPaths) {
  const std::string dir = make_temp_dir();
  const std::string in_path = dir + "/in.sock";
  const std::string ctl_path = dir + "/ctl.sock";
  {
    serve::RelayDaemon first(idle_daemon_config(dir));
    EXPECT_TRUE(is_socket(in_path));
    EXPECT_TRUE(is_socket(ctl_path));
  }
  EXPECT_FALSE(is_socket(in_path)) << "destructor left " << in_path;
  EXPECT_FALSE(is_socket(ctl_path)) << "destructor left " << ctl_path;

  const std::string other = make_temp_dir();
  {
    serve::RelayDaemon second(idle_daemon_config(dir));
    serve::DaemonConfig clash = idle_daemon_config(other);
    clash.control = "unix:" + ctl_path;  // held by `second`
    EXPECT_THROW(serve::RelayDaemon{clash}, std::logic_error);
    EXPECT_FALSE(is_socket(other + "/in.sock")) << "a failed constructor kept its data path";
    EXPECT_TRUE(connect_once(ctl_path).valid()) << "the live daemon lost its control path";
  }
  ::rmdir(other.c_str());
  ::rmdir(dir.c_str());
}

// request_stop() and the end of the last session wake run()'s loop at once.
// Both used to wait for its next 50 ms poll tick; each is repeated so a
// lucky tick cannot pass the median.
TEST(RelayDaemon, RunReturnsPromptlyAfterStopOrTheLastSession) {
  const std::string dir = make_temp_dir();
  std::vector<double> stop_ms;
  for (int trial = 0; trial < 5; ++trial) {
    serve::RelayDaemon daemon(idle_daemon_config(dir));
    std::thread runner([&] { daemon.run(); });
    // The reply proves run()'s loop is up; it then goes back to poll.
    // The connection stays open, so no hangup wakes the loop either.
    const stream::OwnedFd ctl =
        stream::wire_connect(stream::parse_endpoint("t", "unix:" + dir + "/ctl.sock"), 20.0);
    EXPECT_EQ(control(ctl.get(), "ping"), "ok pong");
    const auto t0 = std::chrono::steady_clock::now();
    daemon.request_stop();
    runner.join();
    stop_ms.push_back(ms_since(t0));
  }
  std::sort(stop_ms.begin(), stop_ms.end());
  EXPECT_LT(stop_ms[2], 20.0) << "median ms from request_stop() to run() returning";

  // --once: a one-session daemon exits when its session ends. The session
  // finishes in microseconds, so run() takes about the set-up time.
  std::vector<double> once_ms;
  for (int trial = 0; trial < 5; ++trial) {
    serve::DaemonConfig cfg;
    cfg.graph_text = "src :: VectorSource(data=(1,0),(2,0),(3,0), block=2);\n"
                     "sink :: AccumulatorSink;\nsrc -> sink;\n";
    cfg.max_sessions = 1;
    cfg.log = [](const std::string&) {};
    serve::RelayDaemon daemon(std::move(cfg));
    const auto t0 = std::chrono::steady_clock::now();
    daemon.run();
    once_ms.push_back(ms_since(t0));
    EXPECT_EQ(daemon.sessions_completed(), 1u);
  }
  std::sort(once_ms.begin(), once_ms.end());
  EXPECT_LT(once_ms[2], 20.0) << "median ms for run() of a one-session daemon";
  ::rmdir(dir.c_str());
}

TEST(RelayDaemon, RunsSocketlessGraphsBackToBack) {
  serve::DaemonConfig cfg;
  cfg.graph_text = "src :: VectorSource(data=(1,0),(2,0),(3,0), block=2);\n"
                   "sink :: AccumulatorSink;\nsrc -> sink;\n";
  cfg.max_sessions = 3;
  cfg.log = [](const std::string&) {};
  serve::RelayDaemon daemon(std::move(cfg));
  daemon.run();  // no sockets: three sessions run back to back, then exit
  EXPECT_EQ(daemon.sessions_started(), 3u);
  EXPECT_EQ(daemon.sessions_completed(), 3u);
}

}  // namespace
}  // namespace ff
