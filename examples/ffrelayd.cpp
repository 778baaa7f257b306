// ffrelayd: the streaming relay as a long-running daemon.
//
// Loads a graph description (docs/STREAMING.md) and serves it with
// serve::RelayDaemon: listen-mode SocketSource/SocketSink elements become
// daemon-owned data endpoints (one relay session per matched set of peers,
// extra peers rejected with an FFERR line), a control socket speaks the
// read/write-handler line protocol (docs/DAEMON.md), and telemetry is
// exported as atomic ff-metrics-v1 snapshots on a timer.
//
//   ffrelayd --graph relay_serve.ff --control unix:/tmp/ff.ctl
//            --snapshot /tmp/ff-metrics.json --snapshot-period 1
//
// SIGINT/SIGTERM (and the control `shutdown` command) wind the daemon down
// cleanly: the in-flight session is aborted, queued control commands are
// answered, and a final snapshot is written.
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "eval/cli.hpp"
#include "serve/daemon.hpp"

namespace {

ff::serve::RelayDaemon* g_daemon = nullptr;

extern "C" void handle_signal(int) {
  // request_stop is a relaxed atomic store plus one write(2) to a
  // non-blocking pipe: async-signal-safe.
  if (g_daemon) g_daemon->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  std::string graph_path;
  ff::serve::DaemonConfig cfg;
  std::string mode = "reference";
  bool once = false;
  std::vector<std::string> sets;

  ff::eval::Cli cli("ffrelayd",
                    "Serve a streaming relay graph as a long-running daemon: "
                    "socket transports for IQ in/out, a control socket for live "
                    "handler reads/writes, periodic ff-metrics-v1 snapshots.");
  cli.add_option("--graph", &graph_path,
                 "graph description file to serve (required); listen-mode "
                 "SocketSource/SocketSink elements become daemon endpoints");
  cli.add_option("--control", &cfg.control,
                 "control endpoint (unix:<path> | tcp:<host>:<port>); omit for "
                 "no control plane");
  cli.add_option("--snapshot", &cfg.snapshot_path,
                 "write atomic ff-metrics-v1 snapshots to this file");
  cli.add_option("--snapshot-period", &cfg.snapshot_period_s,
                 "seconds between periodic snapshots");
  cli.add_option("--mode", &mode,
                 "per-session scheduler: 'reference' (live control commands "
                 "work) or 'throughput' (element commands answer `err busy`)");
  cli.add_option("--threads", &cfg.threads,
                 "throughput mode: pipeline chains per session, one worker thread "
                 "each (reference mode runs one chain: 0 or 1)");
  cli.add_option("--batch-size", &cfg.batch_size,
                 "throughput mode: blocks per element pass and ring transfer");
  cli.add_option("--backpressure", &cfg.default_capacity,
                 "default bounded-channel capacity in blocks");
  cli.add_option("--max-sessions", &cfg.max_sessions,
                 "exit after this many sessions (0 = serve until shutdown)");
  cli.add_flag("--once", &once, "serve exactly one session and exit");
  cli.add_repeatable("--set", &sets,
                     "write handler applied to every session graph before it "
                     "runs: elem.handler=value (repeatable)");
  if (!cli.parse(argc, argv)) return cli.exit_code();

  if (graph_path.empty()) {
    std::fprintf(stderr, "ffrelayd: --graph is required\n");
    return 2;
  }
  if (mode != "reference" && mode != "throughput") {
    std::fprintf(stderr, "ffrelayd: --mode must be 'reference' or 'throughput'\n");
    return 2;
  }
  cfg.throughput = mode == "throughput";
  if (once) cfg.max_sessions = 1;
  for (const std::string& s : sets) {
    ff::eval::HandlerWrite w;
    if (!ff::eval::parse_handler_write(s, w)) {
      std::fprintf(stderr, "ffrelayd: --set expects elem.handler=value, got '%s'\n",
                   s.c_str());
      return 2;
    }
    cfg.presets.push_back(std::move(w));
  }

  std::ifstream in(graph_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "ffrelayd: cannot read graph '%s'\n", graph_path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  cfg.graph_text = text.str();
  cfg.graph_source = graph_path;

  try {
    ff::serve::RelayDaemon daemon(std::move(cfg));
    g_daemon = &daemon;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    std::signal(SIGPIPE, SIG_IGN);
    daemon.run();
    g_daemon = nullptr;
    return 0;
  } catch (const std::exception& e) {
    g_daemon = nullptr;
    std::fprintf(stderr, "ffrelayd: %s\n", e.what());
    return 1;
  }
}
