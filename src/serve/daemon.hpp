// RelayDaemon: the streaming graph packaged as a long-running server — the
// ROADMAP's "relay-as-a-service" item, and the Click userlevel driver's
// role in this codebase (load a declarative graph once, then serve it).
//
// The daemon parses one `.ff` graph at startup and runs it as a sequence of
// SESSIONS. A session is one complete pass of the graph from first block to
// drained channels — the graph object is single-use, so the daemon rebuilds
// it from the spec for every session (cheap: element construction, no DSP).
// Three runtime surfaces hang off the driver loop:
//
//   * data transports — every listen-mode SocketSource/SocketSink in the
//     graph gets its listener OWNED BY THE DAEMON. A session starts when
//     every such endpoint has an accepted peer; the connections are adopted
//     into the freshly built graph (io_elements.hpp). Admission control is
//     one-session-at-a-time: a connection arriving while a session is in
//     progress (or while its endpoint already has a waiting peer) is
//     rejected with a structured `FFERR {...}` line and closed, instead of
//     being silently queued into a stream it will never join. Graphs with
//     no socket endpoints run sessions back-to-back (bounded by
//     max_sessions).
//
//   * control plane — a line protocol (serve/control.hpp) on its own
//     socket. Element read/write commands are executed ONLY at scheduler
//     quiescent points: the driver enqueues the request and the session's
//     on_round callback (reference mode) executes it between rounds, so a
//     live `write src_cfo.set_cfo 200` is exactly as safe as `--set` at
//     startup. Once it has answered, the session thread wakes the driver
//     loop through a self-pipe, so the reply goes out at once rather than
//     at the loop's next poll tick; a session that ends, and
//     request_stop(), wake it the same way. Throughput-mode sessions have
//     no global quiescent point and answer `err busy` for element commands
//     (stats/snapshot still work).
//
//   * telemetry export — the daemon-lifetime MetricsRegistry (serve.*
//     counters plus every session's stream.* metrics, accumulated) is
//     written atomically as ff-metrics-v1 every snapshot_period_s and at
//     every session boundary (serve/snapshot.hpp), not only at exit.
//
// Threading: the driver loop owns sockets and admission; each session runs
// in one std::thread (which starts one worker per chain in throughput
// mode). The MetricsRegistry is thread-safe by per-thread sharding; element
// state is only ever touched from the session thread at quiescent points.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/telemetry.hpp"
#include "eval/cli.hpp"
#include "serve/control.hpp"
#include "stream/graph.hpp"
#include "stream/lang.hpp"
#include "stream/wire.hpp"

namespace ff::serve {

struct DaemonConfig {
  /// The graph description (lang.hpp text) and its name for diagnostics.
  std::string graph_text;
  std::string graph_source = "<graph>";

  /// Control-plane endpoint (unix:<path> | tcp:<host>:<port>); "" = none.
  std::string control;

  /// Periodic ff-metrics-v1 snapshot file; "" = no snapshot export.
  std::string snapshot_path;
  double snapshot_period_s = 5.0;

  /// Scheduler selection per session (SchedulerConfig semantics). The
  /// watchdog is disabled: a daemon session idling on a quiet peer is
  /// normal, not a deadlock. `threads` counts throughput-mode chains; the
  /// reference mode runs one chain on the session thread, and the
  /// constructor rejects threads > 1 without `throughput`.
  bool throughput = false;
  std::size_t threads = 1;
  std::size_t batch_size = 1;
  std::size_t default_capacity = stream::Graph::kDefaultChannelCapacity;

  /// Stop after this many sessions (0 = serve until shutdown). The --once
  /// flag of ffrelayd is max_sessions = 1.
  std::uint64_t max_sessions = 0;

  /// Write handlers applied to every freshly built session graph before it
  /// runs (the --set surface). Validated against the graph at construction.
  std::vector<eval::HandlerWrite> presets;

  /// Telemetry sink for serve.* and all session stream.* metrics. nullptr =
  /// the daemon owns a private registry (snapshots still work).
  MetricsRegistry* metrics = nullptr;

  /// Log line sink; nullptr = stderr prefixed "ffrelayd: ".
  std::function<void(const std::string&)> log;
};

class RelayDaemon {
 public:
  /// Parses and validates the graph (a probe instance is built and the
  /// presets applied to it, so configuration errors fail HERE, not at the
  /// first client), then binds every data and control listener: the daemon
  /// is connectable once this returns, and a peer that connects before
  /// run() waits in the listen backlog. FF_CHECK on any error, including a
  /// listener that cannot be bound (path in use, a non-socket file at the
  /// path, a failed bind).
  explicit RelayDaemon(DaemonConfig cfg);
  /// Closes the listeners of a daemon that never ran and unlinks their Unix
  /// socket paths, as run() does on exit.
  ~RelayDaemon();

  RelayDaemon(const RelayDaemon&) = delete;
  RelayDaemon& operator=(const RelayDaemon&) = delete;

  /// Serve until `shutdown` (control plane), request_stop(), or
  /// max_sessions completed sessions. Returns normally on clean shutdown,
  /// after closing the listeners and unlinking their Unix socket paths, so
  /// a new daemon can be built on the same endpoints.
  void run();

  /// Ask the driver loop to wind down (safe from a signal handler: one
  /// relaxed atomic store plus one write(2) to the loop's non-blocking
  /// wake pipe, so run() reacts at once rather than at its next poll tick).
  /// In-flight reference-mode sessions are aborted at the next round;
  /// socket-fed throughput sessions are unblocked by shutting down their
  /// data connections.
  void request_stop();

  // ---- observability (driver thread / post-run) ----------------------
  std::uint64_t sessions_started() const { return sessions_started_; }
  std::uint64_t sessions_completed() const { return sessions_completed_; }
  std::uint64_t sessions_aborted() const { return sessions_aborted_; }
  std::uint64_t admission_rejected() const { return admission_rejected_; }

 private:
  /// A listen-mode socket element discovered in the graph spec.
  struct SocketPort {
    std::string element;
    stream::WireEndpoint endpoint;
    bool is_source = false;
  };

  /// One connected control client, its partial-line buffer, and (for an
  /// element command awaiting a quiescent point) the in-flight reply. While
  /// `pending` is valid, further lines from this client stay buffered — the
  /// protocol answers strictly in order — and the driver loop polls the
  /// future instead of blocking on it, so one slow command never stalls
  /// admission, other control clients, or periodic snapshots.
  struct CtlClient {
    stream::OwnedFd fd;
    LineBuffer lines;
    std::future<std::string> pending;
    std::chrono::steady_clock::time_point pending_deadline{};
  };

  /// A data peer accepted before its session starts. `eof_ok` marks a peer
  /// that already sent bytes and hung up (a complete pre-delivered stream):
  /// it keeps its claim but is no longer polled for liveness.
  struct PendingPeer {
    stream::OwnedFd fd;
    bool eof_ok = false;
  };

  /// One in-flight session: the single-use graph, its worker thread, and
  /// the raw fds adopted into it (for shutdown(2)-based unblocking; the
  /// elements own the fds and close them when the graph dies, strictly
  /// after thread join).
  struct Session {
    std::uint64_t id = 0;
    stream::Graph graph;
    std::vector<int> data_fds;
    std::thread thread;
    std::atomic<bool> done{false};
    std::atomic<bool> abort{false};
    std::string error;  // set before done; empty = clean completion
  };

  /// An element command awaiting a quiescent point.
  struct CtlRequest {
    ControlCommand cmd;
    std::promise<std::string> reply;
  };

  void log(const std::string& line) const;
  bool stopping() const { return stop_.load(std::memory_order_relaxed); }
  /// Unlinks the Unix paths of the bound listeners, then closes them.
  void close_listeners();
  /// Ends run()'s poll wait: one byte into the wake pipe.
  /// Async-signal-safe; keeps errno.
  void wake_loop();

  void maybe_start_session();
  void session_body(Session& s);
  void reap_session();
  void abort_session();

  void poll_once(int timeout_ms);
  void accept_data_client(std::size_t port_index);
  /// Returns the response to send now, or "" when the command was queued
  /// for a quiescent point (service_ctl_replies() delivers it later).
  std::string handle_control_line(CtlClient& client, const std::string& line);
  /// Processes the client's buffered lines while it has no pending reply.
  /// Returns false when the client should be dropped (its peer is gone).
  bool pump_ctl_client(CtlClient& client);
  /// Sends the response and counts err metrics; throws if the peer is gone.
  void send_ctl_response(CtlClient& client, const std::string& resp);
  /// Delivers ready (or timed-out) pending element-command replies.
  void service_ctl_replies();
  std::string exec_element_command(stream::Graph& g, const ControlCommand& cmd);
  /// Session thread: executes the queued element commands, then wakes the
  /// driver loop so service_ctl_replies() sends the replies right away.
  void drain_ctl_queue(stream::Graph& g);
  void flush_ctl_queue(const std::string& code, const std::string& detail);

  std::string stats_line() const;
  std::string elements_line() const;
  void write_snapshot(const char* reason);
  void maybe_periodic_snapshot();

  DaemonConfig cfg_;
  stream::GraphSpec spec_;
  std::vector<SocketPort> ports_;
  MetricsRegistry own_metrics_;
  MetricsRegistry* metrics_ = nullptr;

  std::atomic<bool> stop_{false};

  /// Self-pipe in poll_once()'s poll set: wake_loop() writes a byte to
  /// wake_wr_ when a session has answered control commands or ended, and
  /// on request_stop().
  stream::OwnedFd wake_rd_;
  stream::OwnedFd wake_wr_;
  stream::WireEndpoint control_endpoint_;  // parsed cfg_.control
  stream::OwnedFd control_listener_;
  std::vector<stream::OwnedFd> data_listeners_;  // parallel to ports_
  std::vector<CtlClient> ctl_clients_;
  std::map<std::string, PendingPeer> pending_;  // element -> waiting peer
  std::unique_ptr<Session> session_;

  std::mutex ctl_mu_;
  std::deque<std::unique_ptr<CtlRequest>> ctl_queue_;

  std::uint64_t sessions_started_ = 0;
  std::uint64_t sessions_completed_ = 0;
  std::uint64_t sessions_aborted_ = 0;
  std::uint64_t admission_rejected_ = 0;

  std::chrono::steady_clock::time_point start_time_{};
  std::chrono::steady_clock::time_point next_snapshot_{};
};

}  // namespace ff::serve
