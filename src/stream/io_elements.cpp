#include "stream/io_elements.hpp"

#include <utility>

#include "common/check.hpp"

namespace ff::stream {

// ------------------------------------------------------------ SocketSource

SocketSource::SocketSource(std::string name) : Element(std::move(name), 0, 1) {}

void SocketSource::configure(const Params& p) {
  FF_CHECK_MSG(pos_ == 0 && !conn_.valid(), name() << ": configure before streaming");
  if (p.has("endpoint"))
    endpoint_ = parse_endpoint(p.context() + ": endpoint", p.get_string("endpoint"));
  listen_ = p.get_bool_or("listen", listen_);
  poll_ms_ = p.get_int_or("poll_ms", poll_ms_);
  FF_CHECK_MSG(poll_ms_ >= 1, p.context() << ": poll_ms: must be >= 1");
  connect_timeout_s_ = p.get_double_or("connect_timeout", connect_timeout_s_);
  FF_CHECK_MSG(connect_timeout_s_ > 0.0,
               p.context() << ": connect_timeout: must be > 0");
}

void SocketSource::adopt_connection(OwnedFd conn) {
  FF_CHECK_MSG(conn.valid(), name() << ": adopt_connection needs a valid fd");
  FF_CHECK_MSG(!conn_.valid() && pos_ == 0,
               name() << ": adopt_connection before streaming, once");
  conn_ = std::move(conn);
}

bool SocketSource::poll_connection() {
  if (conn_.valid()) return true;
  FF_CHECK_MSG(endpoint_.has_value(),
               name() << ": no endpoint configured and no connection adopted");
  if (listen_) {
    if (!listener_.valid()) listener_ = wire_listen(*endpoint_);
    if (!wire_poll_readable(listener_.get(), poll_ms_)) return false;
    conn_ = wire_accept(listener_.get());
    return true;
  }
  conn_ = wire_connect(*endpoint_, connect_timeout_s_);
  return true;
}

bool SocketSource::work() {
  waiting_ = false;
  if (eos_) {
    if (!outputs_closed()) {
      close_outputs();
      return true;
    }
    return false;
  }
  // Only the first frame of a pass may be waited for. After it, take just
  // the frames already buffered in the socket, so each frame runs through
  // the graph in the round it arrives instead of waiting for the frames
  // behind it; a sender that outpaces the graph still fills the output
  // channel in one pass.
  int wait_ms = poll_ms_;
  bool moved = false;
  while (out_ready(0)) {
    if (!conn_.valid() && !poll_connection()) {
      waiting_ = true;
      break;
    }
    if (!magic_seen_) {
      if (!wire_poll_readable(conn_.get(), poll_ms_)) {
        waiting_ = true;
        break;
      }
      wire_expect_magic(conn_.get());
      magic_seen_ = true;
    }
    CVec samples;
    const WireRecv st = wire_recv_frame(conn_.get(), samples, wait_ms);
    if (st == WireRecv::kTimeout) {
      waiting_ = true;
      break;
    }
    if (st == WireRecv::kEos || st == WireRecv::kEof) {
      eos_ = true;
      break;
    }
    Block b;
    b.samples = std::move(samples);
    b.start = pos_;
    if (pos_ == 0) b.flags |= kBlockFirst;
    pos_ += b.samples.size();
    ++frames_;
    emit(0, std::move(b));
    moved = true;
    wait_ms = 0;
  }
  if (!eos_ && !out_ready(0)) note_stall();
  if (eos_) {
    close_outputs();
    moved = true;
  }
  return moved;
}

void SocketSource::add_handlers(HandlerRegistry& h) {
  Element::add_handlers(h);
  h.add_read("produced", [this] { return std::to_string(pos_); });
  h.add_read("frames", [this] { return std::to_string(frames_); });
  h.add_read("connected", [this] { return conn_.valid() ? "true" : "false"; });
}

// -------------------------------------------------------------- SocketSink

SocketSink::SocketSink(std::string name) : Element(std::move(name), 1, 0) {}

void SocketSink::configure(const Params& p) {
  FF_CHECK_MSG(consumed_ == 0 && !conn_.valid(),
               name() << ": configure before streaming");
  if (p.has("endpoint"))
    endpoint_ = parse_endpoint(p.context() + ": endpoint", p.get_string("endpoint"));
  listen_ = p.get_bool_or("listen", listen_);
  connect_timeout_s_ = p.get_double_or("connect_timeout", connect_timeout_s_);
  FF_CHECK_MSG(connect_timeout_s_ > 0.0,
               p.context() << ": connect_timeout: must be > 0");
}

void SocketSink::adopt_connection(OwnedFd conn) {
  FF_CHECK_MSG(conn.valid(), name() << ": adopt_connection needs a valid fd");
  FF_CHECK_MSG(!conn_.valid() && consumed_ == 0,
               name() << ": adopt_connection before streaming, once");
  conn_ = std::move(conn);
}

void SocketSink::ensure_connected() {
  if (conn_.valid()) return;
  FF_CHECK_MSG(endpoint_.has_value(),
               name() << ": no endpoint configured and no connection adopted");
  if (listen_) {
    // Blocks until the consumer dials in: the stream cannot leave the
    // process without a peer, and dropping it would break the
    // stalls-never-drops contract.
    if (!listener_.valid()) listener_ = wire_listen(*endpoint_);
    conn_ = wire_accept(listener_.get());
  } else {
    conn_ = wire_connect(*endpoint_, connect_timeout_s_);
  }
}

void SocketSink::send_eos_once() {
  if (eos_sent_) return;
  ensure_connected();
  if (!magic_sent_) {
    wire_send_magic(conn_.get());
    magic_sent_ = true;
  }
  wire_send_eos(conn_.get());
  eos_sent_ = true;
}

bool SocketSink::work() {
  bool moved = false;
  while (in_available(0)) {
    const Block b = pop(0);
    ensure_connected();
    if (!magic_sent_) {
      wire_send_magic(conn_.get());
      magic_sent_ = true;
    }
    {
      MetricsRegistry::ScopedTimer timer(metrics(), block_timer_name());
      wire_send_frame(conn_.get(), b.samples);
    }
    ++frames_;
    consumed_ += b.samples.size();
    note_consumed(b);
    moved = true;
    if (b.last()) send_eos_once();
  }
  // A drained input without a kBlockLast marker (e.g. fed by a
  // SocketSource, which never flags last) still owes the peer an EOS.
  if (!eos_sent_ && in_drained(0)) {
    send_eos_once();
    moved = true;
  }
  return moved;
}

void SocketSink::add_handlers(HandlerRegistry& h) {
  Element::add_handlers(h);
  h.add_read("consumed", [this] { return std::to_string(consumed_); });
  h.add_read("frames", [this] { return std::to_string(frames_); });
  h.add_read("connected", [this] { return conn_.valid() ? "true" : "false"; });
}

// ------------------------------------------------------------- FileTapSink

FileTapSink::FileTapSink(std::string name) : Transform(std::move(name)) {}

FileTapSink::~FileTapSink() {
  if (file_) std::fclose(file_);
}

void FileTapSink::configure(const Params& p) {
  FF_CHECK_MSG(file_ == nullptr && written_ == 0,
               name() << ": configure before streaming");
  path_ = p.get_string("path");
  FF_CHECK_MSG(!path_.empty(), p.context() << ": path: must not be empty");
  append_ = p.get_bool_or("append", append_);
}

void FileTapSink::process(Block& block) {
  if (!file_) {
    FF_CHECK_MSG(!path_.empty(), name() << ": no path configured");
    file_ = std::fopen(path_.c_str(), append_ ? "ab" : "wb");
    FF_CHECK_MSG(file_ != nullptr, name() << ": cannot open '" << path_ << "'");
  }
  // Raw interleaved float64 I/Q — the layout numpy.fromfile(dtype=complex128)
  // and GNU Radio file sources read directly.
  const std::size_t n =
      std::fwrite(block.samples.data(), sizeof(Complex), block.samples.size(), file_);
  FF_CHECK_MSG(n == block.samples.size(),
               name() << ": short write to '" << path_ << "'");
  written_ += n;
  if (block.last()) std::fflush(file_);
}

void FileTapSink::add_handlers(HandlerRegistry& h) {
  Transform::add_handlers(h);
  h.add_read("written", [this] { return std::to_string(written_); });
  h.add_read("path", [this] { return path_; });
}

}  // namespace ff::stream
