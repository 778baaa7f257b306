// ffrelayd's control-plane line protocol: the runtime introspection surface
// of PR 7's read/write handlers, served over a socket.
//
// A control client connects to the daemon's control endpoint and exchanges
// newline-terminated text, one command per line, one response line per
// command (in order):
//
//   ping                        -> ok pong
//   stats                       -> ok sessions=N active=0|1 ...
//   elements                    -> ok src:PacketSource,relay:Pipeline,...
//   read <elem>.<handler>       -> ok <value>
//   write <elem>.<handler> <v>  -> ok
//   snapshot                    -> ok <path>      (forces a metrics write)
//   shutdown                    -> ok shutting-down
//
// Errors are `err <code> <detail>` lines; codes are stable strings
// (bad-command, no-session, no-element, no-handler, not-readable,
// not-writable, bad-value, timeout, busy, io-error). `write` takes the rest of the
// line verbatim as the value, so complex values like (0.9,-0.2) pass
// through unquoted. The daemon executes element commands only at scheduler
// quiescent points (docs/DAEMON.md), which is what makes a live `write
// src_cfo.set_cfo 200` exactly as safe as `--set` at startup.
#pragma once

#include <string>

namespace ff::serve {

struct ControlCommand {
  enum class Verb { kPing, kStats, kElements, kRead, kWrite, kSnapshot, kShutdown };
  Verb verb = Verb::kPing;
  std::string element;  // kRead / kWrite
  std::string handler;  // kRead / kWrite
  std::string value;    // kWrite: rest of line, verbatim
};

/// Parse one command line (no trailing newline). On failure returns false
/// and fills `error` with the detail for an `err bad-command` response.
bool parse_control_line(const std::string& line, ControlCommand& out,
                        std::string& error);

/// `ok\n` or `ok <payload>\n` (payload has newlines replaced by spaces).
std::string ok_response(const std::string& payload = "");
/// `err <code> <detail>\n` (detail has newlines replaced by spaces).
std::string err_response(const std::string& code, const std::string& detail);

/// Splits a byte stream into lines: append() raw reads, next_line() pops
/// complete lines (without the terminator; a trailing '\r' is dropped so
/// `nc -C` works too).
class LineBuffer {
 public:
  void append(const char* data, std::size_t n) { buf_.append(data, n); }
  bool next_line(std::string& out);
  /// Guard against a client streaming garbage without newlines.
  std::size_t pending() const { return buf_.size(); }

 private:
  std::string buf_;
};

}  // namespace ff::serve
