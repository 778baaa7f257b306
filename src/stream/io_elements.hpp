// Transport elements: IQ streams entering and leaving the process.
//
// These are the daemon-facing edge of the element library (wire.hpp holds
// the frame protocol; serve/ holds the daemon that adopts connections).
// Each element works in two modes:
//
//   * standalone — the element owns its endpoint: a listening element binds
//     and accepts lazily on first work()/consume(), a connecting element
//     dials out with a retry deadline. This is what `streaming_relay
//     --graph` or a test gets from graph text alone.
//   * adopted — a daemon hands the element an already-accepted connection
//     (adopt_connection) before the run; the element never touches the
//     endpoint itself. This is how ffrelayd multiplexes admission control
//     over one listener across back-to-back sessions.
//
// Determinism: one received frame becomes one Block, so the SENDER chooses
// the receiver's block structure — and since every element is block-size
// invariant, the sample stream downstream is bit-identical to an in-process
// graph fed the same samples (tests/serve_test.cpp pins the relay-session
// checksum through SocketSource -> graph -> SocketSink). Scheduling
// observables (round counts, stalls) become timing-dependent, because a
// socket element reports waiting_external() while its peer is quiet.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

#include "stream/element.hpp"
#include "stream/wire.hpp"

namespace ff::stream {

/// 0-in/1-out: reads ff-iq-v1 frames from a socket and emits one Block per
/// frame. EOS (zero frame or clean close between frames) closes the output.
///
/// Not a Source subclass: a Source must produce whenever !exhausted(), but
/// a socket discovers exhaustion only by reading — so this element polls
/// with a timeout and reports waiting_external() on quiet rounds.
///
/// Params: endpoint (unix:<path> | tcp:<host>:<port>; required unless a
/// connection is adopted), listen (default true: bind+accept; false: dial
/// out), poll_ms (default 50: how long a pass waits for its first frame;
/// buffered frames are taken without waiting), connect_timeout (default
/// 10 s, dial-out mode).
/// Handlers: produced, frames, connected (read).
class SocketSource : public Element {
 public:
  explicit SocketSource(std::string name);

  const char* class_name() const override { return "SocketSource"; }
  void configure(const Params& params) override;

  bool work() override;
  bool waiting_external() const override { return waiting_; }

  /// Daemon-managed mode: install an accepted, not-yet-read connection.
  /// Must precede the first work(); the element skips endpoint setup.
  void adopt_connection(OwnedFd conn);

  const std::optional<WireEndpoint>& endpoint() const { return endpoint_; }
  bool listening() const { return listen_; }
  std::uint64_t produced() const { return pos_; }
  std::uint64_t frames() const { return frames_; }

 protected:
  void add_handlers(HandlerRegistry& handlers) override;

 private:
  /// Standalone connection setup; true when a peer is ready, false to wait.
  bool poll_connection();

  std::optional<WireEndpoint> endpoint_;
  bool listen_ = true;
  int poll_ms_ = 50;
  double connect_timeout_s_ = 10.0;

  OwnedFd listener_;
  OwnedFd conn_;
  bool magic_seen_ = false;
  bool eos_ = false;
  bool waiting_ = false;
  std::uint64_t pos_ = 0;
  std::uint64_t frames_ = 0;
};

/// 1-in/0-out: sends each consumed Block as one ff-iq-v1 frame, then the
/// EOS marker when the input stream ends (kBlockLast or a drained input).
///
/// Params: endpoint (required unless adopted), listen (default false: dial
/// out; true: bind+accept lazily), connect_timeout (default 10 s).
/// Handlers: consumed, frames, connected (read).
class SocketSink : public Element {
 public:
  explicit SocketSink(std::string name);

  const char* class_name() const override { return "SocketSink"; }
  void configure(const Params& params) override;

  bool work() override;

  /// Daemon-managed mode: install an accepted connection before the run.
  void adopt_connection(OwnedFd conn);

  const std::optional<WireEndpoint>& endpoint() const { return endpoint_; }
  bool listening() const { return listen_; }
  std::uint64_t consumed() const { return consumed_; }

 protected:
  void add_handlers(HandlerRegistry& handlers) override;

 private:
  void ensure_connected();
  void send_eos_once();

  std::optional<WireEndpoint> endpoint_;
  bool listen_ = false;
  double connect_timeout_s_ = 10.0;

  OwnedFd listener_;
  OwnedFd conn_;
  bool magic_sent_ = false;
  bool eos_sent_ = false;
  std::uint64_t consumed_ = 0;
  std::uint64_t frames_ = 0;
};

/// 1-in/1-out pass-through that tees the stream to a file as raw
/// interleaved float64 IQ (the layout tools like numpy.fromfile or GNU
/// Radio file sources read directly). The streaming analog of `tee(1)`:
/// wire it anywhere to capture what flowed through that edge, without
/// disturbing the graph's output.
///
/// Params: path (required), append (default false).
/// Handlers: written, path (read).
class FileTapSink : public Transform {
 public:
  explicit FileTapSink(std::string name);
  ~FileTapSink() override;

  const char* class_name() const override { return "FileTapSink"; }
  void configure(const Params& params) override;

  std::uint64_t written() const { return written_; }
  const std::string& path() const { return path_; }

 protected:
  void add_handlers(HandlerRegistry& handlers) override;
  void process(Block& block) override;

 private:
  std::string path_;
  bool append_ = false;
  std::FILE* file_ = nullptr;
  std::uint64_t written_ = 0;
};

}  // namespace ff::stream
