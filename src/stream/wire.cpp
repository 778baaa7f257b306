#include "stream/wire.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/check.hpp"

namespace ff::stream {

namespace {

/// strerror without the thread-safety footgun.
std::string errno_text(int err) {
  char buf[128];
  buf[0] = '\0';
#if defined(__GLIBC__) && defined(_GNU_SOURCE)
  return std::string(strerror_r(err, buf, sizeof buf));
#else
  strerror_r(err, buf, sizeof buf);
  return std::string(buf);
#endif
}

/// Full write, restarting on EINTR and short writes. Blocking fd.
void send_all(int fd, const void* data, std::size_t n, const char* what) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t k = ::send(fd, p, n, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      FF_CHECK_MSG(false, "wire: " << what << " failed: " << errno_text(errno));
    }
    p += k;
    n -= static_cast<std::size_t>(k);
  }
}

/// Full read. Returns bytes read: `n` normally, 0 on EOF at a boundary;
/// FF_CHECK on error or EOF mid-object.
std::size_t recv_all(int fd, void* data, std::size_t n, const char* what) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t k = ::recv(fd, p + got, n - got, 0);
    if (k < 0) {
      if (errno == EINTR) continue;
      FF_CHECK_MSG(false, "wire: " << what << " failed: " << errno_text(errno));
    }
    if (k == 0) {
      FF_CHECK_MSG(got == 0, "wire: peer closed mid-" << what << " (got " << got
                                                      << " of " << n << " bytes)");
      return 0;
    }
    got += static_cast<std::size_t>(k);
  }
  return got;
}

sockaddr_un unix_addr(const WireEndpoint& ep) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  FF_CHECK_MSG(ep.path.size() < sizeof(addr.sun_path),
               "wire: unix socket path too long: '" << ep.path << "'");
  std::memcpy(addr.sun_path, ep.path.c_str(), ep.path.size() + 1);
  return addr;
}

sockaddr_in tcp_addr(const WireEndpoint& ep) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  const std::string host = ep.host.empty() ? "127.0.0.1" : ep.host;
  FF_CHECK_MSG(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
               "wire: tcp host must be a local dotted quad, got '" << host << "'");
  return addr;
}

OwnedFd make_socket(const WireEndpoint& ep) {
  const int domain = ep.kind == WireEndpoint::Kind::kUnix ? AF_UNIX : AF_INET;
  OwnedFd fd(::socket(domain, SOCK_STREAM, 0));
  FF_CHECK_MSG(fd.valid(), "wire: socket() failed: " << errno_text(errno));
  if (ep.kind == WireEndpoint::Kind::kTcp) {
    // Frames are latency-sensitive and written whole; never Nagle them.
    int one = 1;
    ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  return fd;
}

}  // namespace

void OwnedFd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

std::string WireEndpoint::text() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + (host.empty() ? std::string("127.0.0.1") : host) + ":" +
         std::to_string(port);
}

WireEndpoint parse_endpoint(const std::string& context, const std::string& text) {
  WireEndpoint ep;
  if (text.rfind("unix:", 0) == 0) {
    ep.kind = WireEndpoint::Kind::kUnix;
    ep.path = text.substr(5);
    FF_CHECK_MSG(!ep.path.empty(), context << ": unix endpoint needs a path, got '"
                                           << text << "'");
    return ep;
  }
  if (text.rfind("tcp:", 0) == 0) {
    ep.kind = WireEndpoint::Kind::kTcp;
    const std::string rest = text.substr(4);
    const auto colon = rest.rfind(':');
    FF_CHECK_MSG(colon != std::string::npos && colon + 1 < rest.size(),
                 context << ": tcp endpoint needs host:port, got '" << text << "'");
    ep.host = rest.substr(0, colon);
    errno = 0;
    char* end = nullptr;
    const unsigned long port = std::strtoul(rest.c_str() + colon + 1, &end, 10);
    FF_CHECK_MSG(errno == 0 && end == rest.c_str() + rest.size() && port >= 1 &&
                     port <= 65535,
                 context << ": bad tcp port in '" << text << "'");
    ep.port = static_cast<std::uint16_t>(port);
    return ep;
  }
  FF_CHECK_MSG(false, context << ": endpoint must be unix:<path> or tcp:<host>:<port>, "
                                 "got '"
                              << text << "'");
  return ep;  // unreachable
}

OwnedFd wire_listen(const WireEndpoint& ep, int backlog) {
  OwnedFd fd = make_socket(ep);
  if (ep.kind == WireEndpoint::Kind::kUnix) {
    // Reclaim the path only if it is a socket nobody answers on — a stale
    // leftover from a dead process. A live listener (another daemon) or a
    // non-socket file at the path must never be silently deleted.
    struct stat st{};
    if (::lstat(ep.path.c_str(), &st) == 0) {
      FF_CHECK_MSG(S_ISSOCK(st.st_mode),
                   "wire: listen path '" << ep.path
                                         << "' exists and is not a socket; refusing "
                                            "to delete it");
      const sockaddr_un probe_addr = unix_addr(ep);
      OwnedFd probe(::socket(AF_UNIX, SOCK_STREAM, 0));
      FF_CHECK_MSG(!(probe.valid() &&
                     ::connect(probe.get(),
                               reinterpret_cast<const sockaddr*>(&probe_addr),
                               sizeof probe_addr) == 0),
                   "wire: " << ep.text()
                            << " is in use by a live listener; refusing to hijack it");
      ::unlink(ep.path.c_str());  // stale socket: no listener answered
    }
    const sockaddr_un addr = unix_addr(ep);
    FF_CHECK_MSG(::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                        sizeof addr) == 0,
                 "wire: bind(" << ep.text() << ") failed: " << errno_text(errno));
  } else {
    int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    const sockaddr_in addr = tcp_addr(ep);
    FF_CHECK_MSG(::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                        sizeof addr) == 0,
                 "wire: bind(" << ep.text() << ") failed: " << errno_text(errno));
  }
  FF_CHECK_MSG(::listen(fd.get(), backlog) == 0,
               "wire: listen(" << ep.text() << ") failed: " << errno_text(errno));
  return fd;
}

OwnedFd wire_accept(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) return OwnedFd(fd);
    if (errno == EINTR) continue;
    FF_CHECK_MSG(false, "wire: accept() failed: " << errno_text(errno));
  }
}

OwnedFd wire_connect(const WireEndpoint& ep, double timeout_s) {
  using clock = std::chrono::steady_clock;
  const auto deadline = clock::now() + std::chrono::duration<double>(timeout_s);
  // A peer that is still starting refuses the first attempts. Retry after
  // 100 us and double the pause up to 10 ms, so a listener that comes up
  // moments later is reached within about its own start-up time, while a
  // long wait costs at most 100 attempts a second.
  constexpr clock::duration kMaxPause = std::chrono::milliseconds(10);
  clock::duration pause = std::chrono::microseconds(100);
  for (;;) {
    OwnedFd fd = make_socket(ep);
    int rc;
    if (ep.kind == WireEndpoint::Kind::kUnix) {
      const sockaddr_un addr = unix_addr(ep);
      rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
    } else {
      const sockaddr_in addr = tcp_addr(ep);
      rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
    }
    if (rc == 0) return fd;
    const int err = errno;
    const auto now = clock::now();
    FF_CHECK_MSG(now < deadline,
                 "wire: connect(" << ep.text() << ") failed: " << errno_text(err));
    std::this_thread::sleep_for(
        std::min<std::chrono::duration<double>>(pause, deadline - now));
    pause = std::min(2 * pause, kMaxPause);
  }
}

bool wire_poll_readable(int fd, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  for (;;) {
    const int rc = ::poll(&p, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      FF_CHECK_MSG(false, "wire: poll() failed: " << errno_text(errno));
    }
    // POLLHUP/POLLERR read as "readable": the recv will see EOF/error.
    return rc > 0;
  }
}

void wire_send_magic(int fd) { send_all(fd, kWireMagic, sizeof kWireMagic, "magic"); }

void wire_expect_magic(int fd) {
  char got[sizeof kWireMagic];
  FF_CHECK_MSG(recv_all(fd, got, sizeof got, "magic") == sizeof got,
               "wire: peer closed before sending the stream magic");
  FF_CHECK_MSG(std::memcmp(got, kWireMagic, sizeof got) == 0,
               "wire: bad stream magic (expected \"FFIQ1\\n\" — is the peer "
               "speaking ff-iq-v1?)");
}

void wire_send_frame(int fd, CSpan samples) {
  FF_CHECK_MSG(!samples.empty(), "wire: a data frame needs >= 1 sample");
  FF_CHECK_MSG(samples.size() <= kWireMaxFrameSamples,
               "wire: frame of " << samples.size() << " samples exceeds the "
                                 << kWireMaxFrameSamples << "-sample ceiling");
  const std::uint32_t count = static_cast<std::uint32_t>(samples.size());
  send_all(fd, &count, sizeof count, "frame header");
  // Complex is std::complex<double>: guaranteed (re, im) double layout.
  send_all(fd, samples.data(), samples.size() * sizeof(Complex), "frame payload");
}

void wire_send_eos(int fd) {
  const std::uint32_t count = 0;
  send_all(fd, &count, sizeof count, "eos marker");
}

WireRecv wire_recv_frame(int fd, CVec& out, int timeout_ms) {
  if (!wire_poll_readable(fd, timeout_ms)) return WireRecv::kTimeout;
  std::uint32_t count = 0;
  if (recv_all(fd, &count, sizeof count, "frame header") == 0) return WireRecv::kEof;
  if (count == 0) return WireRecv::kEos;
  FF_CHECK_MSG(count <= kWireMaxFrameSamples,
               "wire: frame header claims " << count << " samples (ceiling "
                                            << kWireMaxFrameSamples
                                            << ") — desynchronized peer?");
  out.resize(count);
  FF_CHECK_MSG(recv_all(fd, out.data(), count * sizeof(Complex), "frame payload") != 0,
               "wire: peer closed before the frame payload");
  return WireRecv::kFrame;
}

void wire_send_text(int fd, const std::string& text) {
  send_all(fd, text.data(), text.size(), "text");
}

}  // namespace ff::stream
