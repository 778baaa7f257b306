// The chain pass and the two loops that run it (scheduler.hpp describes the
// modes).
//
// Throughput mode bridges every chain-crossing channel with a lock-free
// SPSC ring (ring.hpp): the only cross-thread traffic is the ring's
// acquire/release index pair per batch. Bridging keeps the Element API
// untouched. A crossing channel producer→consumer is split into three
// single-threaded pieces:
//
//   producer --emit()--> origin Channel     (touched only by producer chain)
//                          | drain, batch_size at a time
//                          v
//                       SpscRing            (the only shared structure)
//                          | fill, batch_size at a time
//                          v
//                        stub Channel --pop()--> consumer
//                                           (touched only by consumer chain)
//
// The producer's worker drains origin→ring after running its elements; the
// consumer's worker fills ring→stub before running its own. Each channel is
// owned by exactly one thread, so elements never know which mode they run
// under. When the origin closes and empties, the worker closes the ring;
// when the ring drains, the consumer's worker closes the stub — end-of-
// stream propagates through the bridge exactly like through a channel.
// Total buffering per bridged edge is origin + ring + stub, strictly more
// slack than the reference mode's single channel, so no graph that
// completes under the reference mode can deadlock here.
//
// The watchdog waits on a condition variable that the last worker to
// retire (or the first to abort) notifies, so a run ends when its last
// chain does, not at the watchdog's next tick.
#include "stream/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "stream/ring.hpp"

namespace ff::stream {

namespace {

/// One chain-crossing channel split into producer-side origin (the
/// channel already wired into the producer), the shared ring, and the
/// consumer-side stub the consumer is rewired onto for the run.
struct Bridge {
  Channel* origin = nullptr;
  Channel stub;
  SpscRing<Block> ring;
  std::size_t producer_chain = 0;
  std::size_t consumer_chain = 0;

  Bridge(Channel* ch, std::size_t ring_cap, std::size_t prod, std::size_t cons)
      : origin(ch),
        stub(ch->capacity()),
        ring(ring_cap),
        producer_chain(prod),
        consumer_chain(cons) {
    stub.producer = ch->producer;
    stub.consumer = ch->consumer;
    stub.producer_port = ch->producer_port;
    stub.consumer_port = ch->consumer_port;
  }
};

/// A contiguous cut of the topological order and the bridges it fills
/// (inbound) and drains (outbound). Reference mode's one chain is the whole
/// order and has no bridges.
struct Chain {
  std::span<Element* const> elements;
  std::vector<Bridge*> inbound;
  std::vector<Bridge*> outbound;
  std::vector<const Channel*> internal_channels;  // both endpoints in chain

  /// One pass: fill the inbound stubs from their rings, run each element's
  /// work_batch(batch) in order, then drain the outbound channels into their
  /// rings, adding the blocks pushed to `transfers`. Returns whether
  /// anything moved.
  bool pass(std::size_t batch, std::atomic<std::uint64_t>& transfers) {
    bool moved = false;

    // Fill: ring -> stub, so this chain's elements see fresh input.
    for (Bridge* br : inbound) {
      Channel& stub = br->stub;
      std::size_t space = stub.capacity() - stub.fifo.size();
      if (space > batch) space = batch;
      if (space > 0) {
        const std::size_t got = br->ring.try_pop_batch(space, [&](Block&& b) {
          stub.fifo.push_back(std::move(b));
        });
        if (got > 0) {
          stub.blocks_total += got;
          if (stub.fifo.size() > stub.depth_peak) stub.depth_peak = stub.fifo.size();
          moved = true;
        }
      }
      if (!stub.closed && br->ring.drained()) {
        stub.closed = true;
        moved = true;
      }
    }

    for (Element* e : elements) moved |= e->work_batch(batch);

    // Drain: origin -> ring, publishing to the downstream chain.
    for (Bridge* br : outbound) {
      Channel& origin = *br->origin;
      std::size_t n = origin.fifo.size();
      if (n > batch) n = batch;
      if (n > 0) {
        const std::size_t pushed =
            br->ring.try_push_batch(n, [&] { return origin.fifo.pop_front(); });
        if (pushed > 0) {
          // Each bridged block counts once, here: the pop on the
          // consumer's side moves the same block on.
          transfers.fetch_add(pushed, std::memory_order_relaxed);
          moved = true;
        }
      }
      if (origin.closed && origin.fifo.empty() && !br->ring.closed()) {
        br->ring.close();
        moved = true;
      }
    }
    return moved;
  }

  bool waiting_external() const {
    for (const Element* e : elements)
      if (e->waiting_external()) return true;
    return false;
  }

  bool finished() const {
    for (const Bridge* br : inbound)
      if (!br->stub.drained()) return false;
    for (const Channel* ch : internal_channels)
      if (!ch->drained()) return false;
    for (const Bridge* br : outbound)
      if (!br->origin->drained() || !br->ring.closed()) return false;
    return true;
  }
};

/// Peak queue occupancy per channel, keyed by the consuming port.
void record_depth_peaks(const Graph& graph, MetricsRegistry& metrics) {
  for (const auto& ch : graph.channels()) {
    const std::string name = "stream." + ch->consumer->name() + ".in" +
                             std::to_string(ch->consumer_port) + ".depth_peak";
    metrics.set(name, static_cast<double>(ch->depth_peak));
  }
}

}  // namespace

Scheduler::Scheduler(Graph& graph, SchedulerConfig cfg) : graph_(graph), cfg_(cfg) {}

std::uint64_t Scheduler::run() {
  FF_CHECK_MSG(cfg_.batch_size >= 1, "SchedulerConfig.batch_size must be >= 1");
  if (cfg_.mode == SchedulerMode::kThroughput) return run_throughput();
  FF_CHECK_MSG(cfg_.threads <= 1,
               "SchedulerConfig.threads = "
                   << cfg_.threads
                   << " in reference mode, which runs one chain on the calling thread: "
                      "set mode = throughput to run chains on worker threads");
  return run_one_chain();
}

std::uint64_t Scheduler::run_one_chain() {
  graph_.validate();
  graph_.set_metrics(cfg_.metrics);
  Chain chain;
  chain.elements = graph_.topo_order();
  std::atomic<std::uint64_t> no_rings{0};

  std::uint64_t rounds = 0;
  for (;;) {
    const bool moved = chain.pass(1, no_rings);
    ++rounds;
    // Quiescent point: every element's work for this round has returned,
    // and none runs until the next round starts — live handler calls here
    // observe and mutate element state race-free.
    if (cfg_.on_round) cfg_.on_round(rounds);
    if (graph_.finished()) break;
    // A round that moved nothing is a stuck graph — unless some element is
    // merely waiting on an external peer (a socket with no frame ready),
    // which is idleness, not deadlock. Such elements throttle the loop
    // themselves (they poll with a timeout inside work()).
    FF_CHECK_MSG(moved || chain.waiting_external(),
                 "stream graph stalled after " << rounds
                                               << " rounds: no element can make progress "
                                                  "(undrained channel with a blocked "
                                                  "producer — check queue capacities)");
  }

  if (cfg_.metrics) {
    cfg_.metrics->add("stream.scheduler.rounds", rounds);
    record_depth_peaks(graph_, *cfg_.metrics);
  }
  return rounds;
}

std::uint64_t Scheduler::run_throughput() {
  FF_CHECK_MSG(!cfg_.on_round,
               "SchedulerConfig.on_round is reference-mode only: the throughput "
               "pipeline has no global quiescent point between rounds — queue "
               "sample-exact writes with Element::write_at instead");
  graph_.validate();
  graph_.set_metrics(cfg_.metrics);

  const std::span<Element* const> order = graph_.topo_order();
  std::size_t n_chains = cfg_.threads == 0 ? default_thread_count() : cfg_.threads;
  if (n_chains > order.size()) n_chains = order.size();
  FF_CHECK_MSG(n_chains >= 1, "throughput scheduler needs at least one chain");

  // Contiguous cuts of the topological order: chain c gets
  // [c*n/chains, (c+1)*n/chains). Any cut is correct (determinism is
  // dataflow-borne); contiguity keeps most channels chain-internal.
  std::vector<Chain> chains(n_chains);
  std::unordered_map<const Element*, std::size_t> chain_of_element;
  for (std::size_t c = 0; c < n_chains; ++c) {
    const std::size_t begin = c * order.size() / n_chains;
    const std::size_t end = (c + 1) * order.size() / n_chains;
    chains[c].elements = order.subspan(begin, end - begin);
    for (Element* e : chains[c].elements) chain_of_element[e] = c;
  }

  // Bridge every chain-crossing channel and rewire its consumer onto the
  // stub for the duration of the run.
  std::vector<std::unique_ptr<Bridge>> bridges;
  for (const auto& ch : graph_.channels()) {
    const std::size_t pc = chain_of_element.at(ch->producer);
    const std::size_t cc = chain_of_element.at(ch->consumer);
    if (pc == cc) {
      chains[pc].internal_channels.push_back(ch.get());
      continue;
    }
    const std::size_t cap = std::max(ch->capacity(), cfg_.batch_size);
    auto br = std::make_unique<Bridge>(ch.get(), cap, pc, cc);
    ch->consumer->inputs_[ch->consumer_port] = &br->stub;
    chains[pc].outbound.push_back(br.get());
    chains[cc].inbound.push_back(br.get());
    bridges.push_back(std::move(br));
  }

  // Whatever happens below, put the consumers back on their real channels.
  struct RewireGuard {
    std::vector<std::unique_ptr<Bridge>>* bridges;
    ~RewireGuard() {
      for (auto& br : *bridges)
        br->origin->consumer->inputs_[br->origin->consumer_port] = br->origin;
    }
  } rewire_guard{&bridges};

  std::atomic<bool> abort{false};
  std::atomic<std::uint64_t> progress{0};   // bumped on any chain progress
  std::atomic<std::uint64_t> transfers{0};  // blocks pushed into rings
  std::atomic<std::size_t> done{0};         // workers that have returned
  // Guards the changes the watchdog waits for (a retirement, an abort), so
  // its wait cannot miss the notification.
  std::mutex retire_mu;
  std::condition_variable retired;
  std::vector<std::exception_ptr> errors(n_chains);
  const std::size_t batch = cfg_.batch_size;

  auto chain_loop = [&](std::size_t c) {
    Chain& chain = chains[c];
    SpinBackoff backoff;
    try {
      for (;;) {
        if (abort.load(std::memory_order_relaxed)) return;
        if (chain.pass(batch, transfers)) {
          progress.fetch_add(1, std::memory_order_relaxed);
          backoff.reset();
          continue;
        }
        if (chain.finished()) return;
        // An element idle on an external peer (waiting_external) is not a
        // wedge: feed the watchdog so a socket session with a quiet sender
        // outlives watchdog_ms. The element throttles itself (timeout poll
        // inside work()), so this pass isn't a busy spin.
        if (chain.waiting_external()) progress.fetch_add(1, std::memory_order_relaxed);
        backoff.pause();
      }
    } catch (...) {
      errors[c] = std::current_exception();
      {
        std::lock_guard<std::mutex> lock(retire_mu);
        abort.store(true, std::memory_order_relaxed);
      }
      retired.notify_one();
    }
  };
  // Wrapper so every exit path — finished, aborted, or thrown — retires the
  // worker in `done` (the watchdog's termination condition); the last one
  // to retire wakes the watchdog.
  auto run_chain = [&](std::size_t c) {
    chain_loop(c);
    std::size_t retired_now;
    {
      std::lock_guard<std::mutex> lock(retire_mu);
      retired_now = done.fetch_add(1, std::memory_order_release) + 1;
    }
    if (retired_now == n_chains) retired.notify_one();
  };

  std::vector<std::thread> workers;
  workers.reserve(n_chains);
  for (std::size_t c = 0; c < n_chains; ++c) workers.emplace_back(run_chain, c);

  // The calling thread is the watchdog: some chain must make progress (or
  // retire) at least once per watchdog_ms, or the run is declared wedged
  // and torn down. A graph that is merely slow keeps ticking `progress`;
  // only a true deadlock goes quiet. It checks once per 1 ms tick and
  // stops watching as soon as every worker has retired or one has aborted
  // the run (the join below then collects the rest).
  bool watchdog_fired = false;
  if (cfg_.watchdog_ms > 0.0) {
    using clock = std::chrono::steady_clock;
    std::uint64_t last_seen = ~std::uint64_t{0};
    auto last_change = clock::now();
    const auto over = [&] {
      return done.load(std::memory_order_acquire) == n_chains ||
             abort.load(std::memory_order_relaxed);
    };
    std::unique_lock<std::mutex> lock(retire_mu);
    while (!retired.wait_for(lock, std::chrono::milliseconds(1), over)) {
      const std::uint64_t now_progress = progress.load(std::memory_order_relaxed) +
                                         done.load(std::memory_order_relaxed);
      if (now_progress != last_seen) {
        last_seen = now_progress;
        last_change = clock::now();
        continue;
      }
      const double quiet_ms =
          std::chrono::duration<double, std::milli>(clock::now() - last_change).count();
      if (quiet_ms > cfg_.watchdog_ms) {
        watchdog_fired = true;
        abort.store(true, std::memory_order_relaxed);
        break;
      }
    }
  }
  for (auto& t : workers) t.join();

  for (std::size_t c = 0; c < n_chains; ++c)
    if (errors[c]) std::rethrow_exception(errors[c]);

  if (watchdog_fired && !graph_.finished()) {
    // The pipeline picture of where the graph wedged: every bridge's ring
    // occupancy plus the stub/origin queue states around it.
    std::ostringstream os;
    os << "stream graph made no progress for " << cfg_.watchdog_ms
       << " ms in throughput mode (" << n_chains << " chains, batch " << batch
       << "); ring occupancies:";
    for (const auto& br : bridges)
      os << " [" << br->origin->producer->name() << "->" << br->origin->consumer->name()
         << " chain" << br->producer_chain << "->chain" << br->consumer_chain
         << ": origin " << br->origin->fifo.size() << "/" << br->origin->capacity()
         << ", ring " << br->ring.size() << "/" << br->ring.capacity()
         << (br->ring.closed() ? " closed" : "") << ", stub " << br->stub.fifo.size()
         << "/" << br->stub.capacity() << "]";
    if (bridges.empty()) os << " (no rings: single chain holds the whole graph)";
    FF_CHECK_MSG(false, os.str());
  }
  FF_CHECK_MSG(graph_.finished(),
               "throughput scheduler exited with undrained channels (scheduler bug)");

  if (cfg_.metrics) {
    cfg_.metrics->set("stream.scheduler.chains", static_cast<double>(n_chains));
    cfg_.metrics->add("stream.ring.transfers",
                      transfers.load(std::memory_order_relaxed));
    // Depth peaks and per-ring statistics are scheduling observables here:
    // their values depend on thread timing and are excluded from
    // determinism comparisons, like timer values (docs/OBSERVABILITY.md).
    record_depth_peaks(graph_, *cfg_.metrics);
    for (const auto& br : bridges) {
      const std::string prefix = "stream.ring." + br->origin->consumer->name() + ".in" +
                                 std::to_string(br->origin->consumer_port) + ".";
      cfg_.metrics->set(prefix + "depth_peak", static_cast<double>(br->ring.depth_peak()));
      cfg_.metrics->add(prefix + "push_stalls", br->ring.producer_stalls());
      cfg_.metrics->add(prefix + "pop_stalls", br->ring.consumer_stalls());
    }
  }
  return transfers.load(std::memory_order_relaxed);
}

}  // namespace ff::stream
