// Schedulers for element graphs: a deterministic reference mode and a
// pipelined throughput mode over the same Graph.
//
// Reference (SchedulerMode::kReference) — execution proceeds in rounds.
// Within a round every level of the graph is visited in topological order
// and each element gets one work() opportunity; within one level the
// elements share no state (graph.hpp), so with threads > 1 a level runs
// under common/parallel's worker pool. The round/level structure — and
// therefore every element's state trajectory — is a function of the graph
// alone, so output streams and stream.* metric values are bit-identical at
// any thread count. The run ends when every channel is closed and drained;
// a round that moves nothing earlier than that is a stuck graph and fails
// crisply.
//
// Throughput (SchedulerMode::kThroughput) — the graph is partitioned into
// contiguous element chains (contiguous cuts of the topological order), and
// each chain runs on its own long-lived worker thread, placed by the OS.
// Chain-crossing channels are bridged by lock-free SPSC rings
// (ring.hpp), so blocks flow end to end with no global barrier: while chain
// 0 generates block k, chain 1 filters block k-1 and chain 2 decodes block
// k-2. Elements run their work_batch() path, and rings transfer up to
// batch_size blocks per index publication, amortizing per-block overhead.
// Output is still bit-identical to the reference mode — determinism comes
// from the graph's dataflow (each element processes its input FIFO in order
// on exactly one thread), not from the round structure — but *scheduling*
// observables (queue depth peaks, stall counts, rounds) become
// timing-dependent; see docs/OBSERVABILITY.md for which stream.* metrics
// stay comparable. A wall-clock progress watchdog converts deadlocked
// graphs (the pipeline analog of the reference mode's stuck-graph round)
// into a crisp error carrying every ring's occupancy.
//
// Telemetry (when a registry is injected): per-element block/sample
// counters and per-block latency timers recorded by the elements
// themselves, per-channel peak-occupancy gauges
// (stream.<consumer>.in<port>.depth_peak), stall counters, and
// stream.scheduler.rounds (reference) / stream.scheduler.chains plus
// stream.ring.* (throughput). Never record thread counts — reference-mode
// reports must stay byte-comparable across them (docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <functional>

#include "stream/graph.hpp"

namespace ff::stream {

enum class SchedulerMode {
  kReference,   ///< deterministic level-parallel rounds (the bit-exact baseline)
  kThroughput,  ///< element chains, one worker thread each, over lock-free SPSC rings
};

struct SchedulerConfig {
  /// Reference mode: worker threads for level execution (1 = fully serial).
  /// Throughput mode: number of pipeline chains / dedicated worker threads.
  /// 0 = the common/parallel default (FF_THREADS / hardware concurrency).
  std::size_t threads = 1;
  /// Optional telemetry sink, installed on every element for the run.
  MetricsRegistry* metrics = nullptr;
  /// Safety valve for misconfigured (e.g. unbounded-source) graphs:
  /// abort after this many rounds. 0 = no limit. Reference mode only; the
  /// throughput mode's safety valve is the watchdog below.
  std::uint64_t max_rounds = 0;

  /// Execution mode. kReference is the default and the determinism
  /// reference; kThroughput must reproduce its output bit-for-bit
  /// (tests/stream_test.cpp holds it to that).
  SchedulerMode mode = SchedulerMode::kReference;
  /// Throughput mode: blocks per work_batch() pass and per ring transfer.
  /// 1 = no batching. Larger batches amortize per-block overhead at the
  /// cost of pipeline latency; output samples never change.
  std::size_t batch_size = 1;
  /// Throughput mode: minimum SPSC ring capacity in blocks (rounded up to
  /// a power of two). 0 = derived per bridge from the bridged channel's
  /// capacity and batch_size.
  std::size_t ring_capacity = 0;
  /// Throughput mode stuck-graph watchdog: abort when no block moves
  /// across any ring (and no chain makes local progress) for this long.
  /// The error lists per-chain ring occupancies. 0 = disabled.
  double watchdog_ms = 10000.0;

  /// Reference mode: invoked after every round (with the 1-based round
  /// number) at the global quiescent point — no element is mid-work, so
  /// this is the safe place to call live read/write handlers
  /// (Graph::handler) or queue positioned writes. Must not change the
  /// graph topology. The round structure is thread-count independent, so
  /// handler calls made here keep the determinism contract. Throughput
  /// mode has no global quiescent point and FF_CHECKs this is empty —
  /// use Element::write_at for sample-exact writes there.
  std::function<void(std::uint64_t round)> on_round;
};

class Scheduler {
 public:
  explicit Scheduler(Graph& graph, SchedulerConfig cfg = {});

  /// Run the graph to completion (every source exhausted, every channel
  /// drained). Returns the number of rounds executed (reference mode) or
  /// the total number of blocks transferred across chain-bridging rings
  /// (throughput mode; 0 when the whole graph fit in one chain).
  std::uint64_t run();

  const SchedulerConfig& config() const { return cfg_; }

 private:
  std::uint64_t run_reference();
  std::uint64_t run_throughput();  // pipeline_scheduler.cpp

  Graph& graph_;
  SchedulerConfig cfg_;
};

}  // namespace ff::stream
