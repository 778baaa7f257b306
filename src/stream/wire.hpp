// Socket plumbing for the stream transports and the relay daemon: endpoint
// parsing, RAII file descriptors, and the ff-iq-v1 frame protocol.
//
// The wire format is deliberately tiny — it carries IQ blocks between two
// FastForward processes on ONE machine (a client feeding/draining ffrelayd
// over a Unix-domain socket or local TCP), not a network protocol:
//
//   magic   "FFIQ1\n"                      (6 bytes, sent once per stream)
//   frame   u32le sample count, then count x (f64le I, f64le Q)
//   EOS     a frame with count == 0 — nothing follows
//
// One frame becomes one Block on the receiving graph, so the SENDER's
// framing defines the receiver's block structure; the elements are
// block-size invariant, so the sample stream (and its checksum) does not
// depend on the frame size. A clean close between frames is treated like
// EOS (peer died after its last frame); a close mid-frame is a crisp error.
// Byte order is host order (the transports are same-machine by design).
//
// Admission rejections and control responses travel as text lines
// (wire_send_text); the daemon's control protocol lives in serve/control.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace ff::stream {

/// A local transport address: `unix:/path/to.sock` or `tcp:host:port`.
struct WireEndpoint {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;         // kUnix: filesystem path of the socket
  std::string host;         // kTcp: hostname or dotted quad (local only)
  std::uint16_t port = 0;   // kTcp

  /// Canonical text form (round-trips through parse_endpoint).
  std::string text() const;
};

/// Parse `unix:...` / `tcp:host:port` (FF_CHECK with `context` on errors).
WireEndpoint parse_endpoint(const std::string& context, const std::string& text);

/// RAII file descriptor (sockets here, but any fd works).
class OwnedFd {
 public:
  OwnedFd() = default;
  explicit OwnedFd(int fd) : fd_(fd) {}
  ~OwnedFd() { reset(); }
  OwnedFd(OwnedFd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  OwnedFd& operator=(OwnedFd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  /// Give up ownership (caller closes).
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

// ---- connection setup --------------------------------------------------

/// Bind + listen on the endpoint (a stale Unix socket path is unlinked
/// first). FF_CHECK on failure.
OwnedFd wire_listen(const WireEndpoint& ep, int backlog = 4);

/// Accept one connection (blocking). FF_CHECK on failure.
OwnedFd wire_accept(int listen_fd);

/// Connect to the endpoint, retrying until `timeout_s` elapses (covers the
/// listener racing up): the pause between attempts starts at 100 us and
/// doubles up to 10 ms, clipped to the deadline. FF_CHECK when the deadline
/// passes.
OwnedFd wire_connect(const WireEndpoint& ep, double timeout_s = 10.0);

/// True when fd has readable data (or EOF) within `timeout_ms`
/// (0 = immediate check, < 0 = block).
bool wire_poll_readable(int fd, int timeout_ms);

// ---- the ff-iq-v1 frame protocol ---------------------------------------

inline constexpr char kWireMagic[6] = {'F', 'F', 'I', 'Q', '1', '\n'};
/// Sanity ceiling on one frame (16 Mi samples = 256 MiB): a count beyond it
/// means a desynchronized or hostile peer, not a big block.
inline constexpr std::uint32_t kWireMaxFrameSamples = 1u << 24;

void wire_send_magic(int fd);
/// FF_CHECK: the peer's first 6 bytes are the magic (blocking).
void wire_expect_magic(int fd);

/// Send one frame (count must be >= 1; EOS has its own call).
void wire_send_frame(int fd, CSpan samples);
/// Send the end-of-stream marker (count == 0).
void wire_send_eos(int fd);

enum class WireRecv {
  kFrame,    ///< `out` holds one frame of samples
  kEos,      ///< explicit end-of-stream marker
  kEof,      ///< peer closed cleanly between frames (treated like EOS)
  kTimeout,  ///< nothing readable within timeout_ms
};

/// Receive the next frame. Waits up to `timeout_ms` for the HEADER
/// (< 0 = block); once a header arrives the payload read blocks (frames are
/// written in one piece by the sender, so the window is microseconds).
/// A close mid-frame is an FF_CHECK error.
WireRecv wire_recv_frame(int fd, CVec& out, int timeout_ms);

// ---- text lines (control protocol, admission errors) -------------------

/// Send raw text (the caller includes any trailing '\n'). FF_CHECK on error.
void wire_send_text(int fd, const std::string& text);

}  // namespace ff::stream
