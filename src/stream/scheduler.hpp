// The scheduler for element graphs: one chain pass, run by a deterministic
// reference mode and by a pipelined throughput mode over the same Graph.
//
// Scheduler::run validates the graph and cuts its topological order
// (Graph::topo_order) into chains: one in reference mode, `threads` in
// throughput mode. Every chain runs the same pass: fill its inbound rings,
// call work_batch(batch) on each of its elements in order, then drain its
// outbound rings.
//
// Reference (SchedulerMode::kReference) — the one chain is the whole order,
// run on the calling thread with batch 1, no rings and no watchdog thread.
// Each pass is one round, and on_round fires after it, when no element is
// mid-work. The run ends when every channel is closed and drained; a pass
// that moves nothing before that, while no element waits on an external
// peer, is a stuck graph and fails crisply with its round number. The round
// structure, and so every element's state trajectory and every stream.*
// value but the timers, is a function of the graph alone.
//
// Throughput (SchedulerMode::kThroughput) — each chain is a contiguous cut
// of the order and runs on its own long-lived worker thread, placed by the
// OS. Chain-crossing channels are bridged by lock-free SPSC rings
// (ring.hpp), so blocks flow end to end with no global barrier: while chain
// 0 generates block k, chain 1 filters block k-1 and chain 2 decodes block
// k-2. Rings transfer up to batch_size blocks per index publication,
// amortizing per-block overhead. Output is still bit-identical to the
// reference mode — determinism comes from the graph's dataflow (each
// element processes its input FIFO in order on exactly one thread), not
// from the round structure — but *scheduling* observables (queue depth
// peaks, stall counts) become timing-dependent; see docs/OBSERVABILITY.md
// for which stream.* metrics stay comparable. A wall-clock progress
// watchdog converts deadlocked graphs (the pipeline analog of the stuck
// round) into a crisp error carrying every ring's occupancy.
//
// Telemetry (when a registry is injected): per-element block/sample
// counters and per-block latency timers recorded by the elements
// themselves, per-channel peak-occupancy gauges
// (stream.<consumer>.in<port>.depth_peak), stall counters, and
// stream.scheduler.rounds (reference) / stream.scheduler.chains plus
// stream.ring.* (throughput).
#pragma once

#include <cstdint>
#include <functional>

#include "stream/graph.hpp"

namespace ff::stream {

enum class SchedulerMode {
  kReference,   ///< one chain in rounds on the calling thread (the bit-exact baseline)
  kThroughput,  ///< element chains, one worker thread each, over lock-free SPSC rings
};

struct SchedulerConfig {
  /// Chains to cut the graph into. Reference mode runs one chain and takes
  /// 0 or 1: run() rejects more, naming mode = throughput. Throughput mode:
  /// worker threads, one chain each, clamped to the element count; 0 = the
  /// common/parallel default (FF_THREADS / hardware concurrency).
  std::size_t threads = 1;
  /// Optional telemetry sink, installed on every element for the run.
  MetricsRegistry* metrics = nullptr;

  /// Execution mode. kReference is the default and the determinism
  /// reference; kThroughput must reproduce its output bit-for-bit
  /// (tests/stream_test.cpp holds it to that).
  SchedulerMode mode = SchedulerMode::kReference;
  /// Throughput mode: blocks per work_batch() pass and per ring transfer.
  /// 1 = no batching. Larger batches amortize per-block overhead at the
  /// cost of pipeline latency; output samples never change. Each ring
  /// holds max(bridged channel's capacity, batch_size) blocks, rounded up
  /// to a power of two.
  std::size_t batch_size = 1;
  /// Throughput mode stuck-graph watchdog: abort when no block moves
  /// across any ring (and no chain makes local progress) for this long.
  /// The error lists per-chain ring occupancies. 0 = disabled.
  double watchdog_ms = 10000.0;

  /// Reference mode: invoked after every round (with the 1-based round
  /// number) at the global quiescent point — no element is mid-work, so
  /// this is the safe place to call live read/write handlers
  /// (Graph::handler) or queue positioned writes. Must not change the
  /// graph topology. The rounds are a function of the graph, so handler
  /// calls made here keep the determinism contract. Throughput mode has no
  /// global quiescent point and FF_CHECKs this is empty — use
  /// Element::write_at for sample-exact writes there.
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

 private:
  std::uint64_t run_one_chain();   // reference mode
  std::uint64_t run_throughput();  // throughput mode

  Graph& graph_;
  SchedulerConfig cfg_;
};

}  // namespace ff::stream
