// Element model of the streaming runtime (Click-style modular dataflow).
//
// An Element is a stateful processing stage with numbered input and output
// ports. Ports are wired point-to-point through bounded Channels (fixed
// rings of Blocks) owned by the Graph; an element never sees its
// neighbours, only its channels. Each scheduling opportunity the Scheduler
// calls work_batch() (by default work()), which moves as many blocks as the
// channels allow and returns whether anything moved. A full output channel is backpressure:
// the element simply leaves its input queued and reports a stall — nothing
// is ever dropped.
//
// Determinism contract (what makes multi-threaded runs bit-identical):
//   * an element touches only its own state and its own channels;
//   * a channel has exactly one producer and one consumer, and every
//     element runs on exactly one thread for the whole run (the
//     Scheduler's chain that holds it);
//   * all randomness is owned per-element and consumed in sample order.
// Under that contract the sample stream an element emits depends only on
// the graph and its configuration — not on the scheduler mode or chain
// count, and (for the provided elements, which wrap push()-style stateful
// kernels) not on how the stream is cut into blocks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/telemetry.hpp"
#include "stream/block.hpp"
#include "stream/handlers.hpp"
#include "stream/params.hpp"

namespace ff::stream {

class Element;

/// Fixed-capacity FIFO of Blocks: a ring of `capacity` slots allocated once,
/// when the channel is wired, so moving a block in or out never allocates
/// (a std::deque would allocate a node every 12 blocks, and nodes freed late
/// pin freed block memory in the allocator's caches). A popped slot is left
/// moved-from: it holds no sample buffer.
class BlockFifo {
 public:
  explicit BlockFifo(std::size_t capacity) : slots_(capacity) {
    FF_CHECK_MSG(capacity >= 1, "a block FIFO needs capacity >= 1");
  }

  std::size_t capacity() const { return slots_.size(); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == slots_.size(); }

  /// Append a block (FF_CHECK: not full).
  void push_back(Block&& block) {
    FF_CHECK_MSG(!full(), "push on a full block FIFO (capacity " << capacity() << ")");
    std::size_t tail = head_ + size_;
    if (tail >= slots_.size()) tail -= slots_.size();
    slots_[tail] = std::move(block);
    ++size_;
  }

  /// Remove and return the oldest block (FF_CHECK: not empty).
  Block pop_front() {
    FF_CHECK_MSG(!empty(), "pop on an empty block FIFO");
    Block block = std::move(slots_[head_]);
    if (++head_ == slots_.size()) head_ = 0;
    --size_;
    return block;
  }

 private:
  std::vector<Block> slots_;
  std::size_t head_ = 0;  // slot of the oldest block
  std::size_t size_ = 0;
};

/// Bounded single-producer single-consumer FIFO connecting two ports.
/// Capacity is in blocks; a full channel stalls the producer (backpressure),
/// a closed channel tells the consumer no more blocks will ever arrive.
struct Channel {
  explicit Channel(std::size_t capacity) : fifo(capacity) {}

  BlockFifo fifo;
  bool closed = false;

  // Occupancy bookkeeping for the stream.* telemetry.
  std::uint64_t blocks_total = 0;
  std::size_t depth_peak = 0;

  // Wiring (set by Graph::connect; used for validation and metric names).
  Element* producer = nullptr;
  Element* consumer = nullptr;
  std::size_t producer_port = 0;
  std::size_t consumer_port = 0;

  std::size_t capacity() const { return fifo.capacity(); }
  bool full() const { return fifo.full(); }
  bool empty() const { return fifo.empty(); }
  /// Nothing queued and nothing coming: the consumer is finished with it.
  bool drained() const { return closed && fifo.empty(); }
};

class Element {
 public:
  Element(std::string name, std::size_t n_inputs, std::size_t n_outputs);
  virtual ~Element() = default;
  Element(const Element&) = delete;
  Element& operator=(const Element&) = delete;

  const std::string& name() const { return name_; }
  std::size_t n_inputs() const { return inputs_.size(); }
  std::size_t n_outputs() const { return outputs_.size(); }

  /// Click-style class name ("Fir", "PacketSource", ...): the name this
  /// element is declared with in the graph language and registered under in
  /// the ElementRegistry. A class constant, not the instance name.
  virtual const char* class_name() const = 0;

  /// Apply declarative key=value configuration (the graph-language path;
  /// equivalent to the convenience constructors). Must be called before the
  /// element processes any block. The base class consumes nothing, so any
  /// key left unread fails Params::check_all_used() with a field-naming
  /// error — the ElementRegistry runs that check after every configure().
  virtual void configure(const Params& params) { (void)params; }

  /// This element's handler table, built lazily from add_handlers() on
  /// first access. Every element carries at least the base read handlers
  /// `class` and `stalls`.
  const HandlerRegistry& handlers();

  /// Invoke a read handler by name (FF_CHECK: exists and is readable).
  std::string call_read(const std::string& handler);

  /// Invoke a write handler immediately (FF_CHECK: exists and is
  /// writable). Only safe at quiescent points — before/after a run or
  /// between reference-mode rounds (SchedulerConfig::on_round); for a
  /// sample-exact mid-stream write under ANY scheduler, use write_at().
  void call_write(const std::string& handler, const std::string& value);

  /// Queue a write handler to fire at exact input-stream position `pos`:
  /// the element splits the enclosing block so the write lands between
  /// samples pos-1 and pos, regardless of block size, batch size, thread
  /// count or scheduler mode — the determinism contract for live retunes
  /// (docs/STREAMING.md). A position already consumed applies at the next
  /// block boundary; one at/after end-of-stream never fires. FF_CHECKs the
  /// element supports positioned writes (Transforms do) and the handler is
  /// writable.
  void write_at(std::uint64_t pos, const std::string& handler, const std::string& value);

  /// True when write_at() queues are applied sample-exactly by this class.
  virtual bool supports_positioned_writes() const { return false; }
  std::size_t pending_writes() const { return writes_.size(); }

  /// One scheduling opportunity: move whatever the channels allow without
  /// blocking. Returns true when any block was consumed or emitted.
  virtual bool work() = 0;

  /// Batched scheduling opportunity, the one the Scheduler's chain pass
  /// calls (batch 1 in reference mode): process up to `max_blocks` blocks
  /// per inner pass so
  /// per-block overhead (virtual dispatch, timer scopes, channel
  /// bookkeeping) is amortized. The default simply runs work() — which
  /// already moves everything movable — so every element supports batching;
  /// Transform overrides it with a real span-of-blocks path
  /// (process_batch). Whatever the batch size, blocks are processed in
  /// FIFO order through the same per-block state updates, so the sample
  /// stream is bit-identical to the unbatched path.
  virtual bool work_batch(std::size_t max_blocks) {
    (void)max_blocks;
    return work();
  }

  /// True when the element's last work() ended idle waiting on an EXTERNAL
  /// peer (e.g. a socket with no frame ready) rather than on another
  /// element. Both modes use it to tell "idle" from "wedged": the
  /// reference mode's stuck-graph check tolerates a round that moved
  /// nothing while some element waits externally, and the throughput
  /// watchdog keeps ticking. Such elements must throttle themselves (poll
  /// with a timeout) — the scheduler will call work() again immediately.
  /// Note this makes scheduling observables (round counts, stall counters)
  /// timing-dependent for graphs containing such elements; sample streams
  /// stay deterministic.
  virtual bool waiting_external() const { return false; }

  /// Blocks this element stalled on a full output (backpressure events).
  std::uint64_t stalls() const { return stalls_; }

 protected:
  /// Register this class's handlers. Overrides call the base first (it
  /// registers `class` and `stalls`), then add their own.
  virtual void add_handlers(HandlerRegistry& handlers);

  /// Resize the port arrays (configure-time only: FF_CHECKs every current
  /// port is still unwired). Lets declarative classes with variable arity
  /// (Tee) pick their port count from Params.
  void set_port_counts(std::size_t n_inputs, std::size_t n_outputs);

  /// Hook invoked when a telemetry sink is (un)installed — override to
  /// forward the registry into wrapped components that record their own
  /// metrics (e.g. relay::ForwardPipeline).
  virtual void on_metrics(MetricsRegistry* metrics) { (void)metrics; }

  /// A write handler scheduled at an exact input-stream position
  /// (write_at); the queue is kept sorted by pos, FIFO among equals.
  struct PendingWrite {
    std::uint64_t pos = 0;
    std::string handler;
    std::string value;
  };
  std::vector<PendingWrite> writes_;

  // ---- channel access for concrete elements -------------------------
  bool in_available(std::size_t port) const { return !inputs_[port]->empty(); }
  /// Blocks currently queued on an input.
  std::size_t in_count(std::size_t port) const { return inputs_[port]->fifo.size(); }
  /// Blocks an input can hold.
  std::size_t in_capacity(std::size_t port) const { return inputs_[port]->capacity(); }
  /// Blocks an output can accept right now (0 when full or closed).
  std::size_t out_space(std::size_t port) const {
    const Channel& ch = *outputs_[port];
    return ch.closed ? 0 : ch.capacity() - ch.fifo.size();
  }
  /// Upstream closed and everything consumed: this input is finished.
  bool in_drained(std::size_t port) const { return inputs_[port]->drained(); }
  /// Output can accept a block right now.
  bool out_ready(std::size_t port) const {
    return !outputs_[port]->full() && !outputs_[port]->closed;
  }
  Block pop(std::size_t port);
  /// Emit a block (counts stream.<name>.blocks / .samples when metrics on).
  void emit(std::size_t port, Block&& block);
  /// Close every output channel (idempotent): end of this element's stream.
  void close_outputs();
  bool outputs_closed() const;
  /// Record one backpressure stall (input ready but output full).
  void note_stall();
  /// Count a consumed block for elements with no outputs (sinks count here
  /// what emit() would have counted).
  void note_consumed(const Block& block);

  MetricsRegistry* metrics() const { return metrics_; }
  /// Per-block processing timer name (empty until metrics are attached).
  const std::string& block_timer_name() const { return m_block_us_; }

 private:
  friend class Graph;
  friend class Scheduler;

  void attach_input(std::size_t port, Channel* ch);
  void attach_output(std::size_t port, Channel* ch);
  /// Install the telemetry sink and precompute this element's metric names
  /// (so the hot loop never builds strings). nullptr disables recording.
  void set_metrics(MetricsRegistry* metrics);

  std::string name_;
  std::vector<Channel*> inputs_;
  std::vector<Channel*> outputs_;
  std::uint64_t stalls_ = 0;

  MetricsRegistry* metrics_ = nullptr;
  std::string m_blocks_;    // stream.<name>.blocks
  std::string m_samples_;   // stream.<name>.samples
  std::string m_block_us_;  // stream.<name>.block_us
  std::string m_stalls_;    // stream.<name>.stalls

  HandlerRegistry handler_registry_;
  bool handlers_built_ = false;
};

/// Convenience base for 0-in/1-out sources. Concrete sources implement
/// exhausted() and next_block(); the base drives the emit loop, stamps
/// stream positions and first/last flags, and closes the output.
class Source : public Element {
 public:
  Source(std::string name, std::size_t block_size);

  bool work() final;

  std::size_t block_size() const { return block_size_; }
  /// Samples emitted so far (the stream clock).
  std::uint64_t produced() const { return pos_; }

 protected:
  /// True once the source will produce no further samples.
  virtual bool exhausted() const = 0;
  /// Produce the next up-to-block_size() samples (called only when
  /// !exhausted()). May return fewer than block_size() samples (e.g. the
  /// stream tail); must not return an empty vector.
  virtual CVec generate() = 0;

  /// Base handlers plus the `produced` stream-clock read.
  void add_handlers(HandlerRegistry& handlers) override;

  /// Configure-time block-size change (FF_CHECK: >= 1, nothing emitted yet).
  void set_block_size(std::size_t block_size);

 private:
  std::size_t block_size_;
  std::uint64_t pos_ = 0;
};

/// Convenience base for 1-in/1-out transforms: pops a block, processes it
/// in place (stateful kernels keep their own delay lines, so block
/// boundaries are invisible), re-emits it, and propagates end-of-stream.
///
/// work_batch() is the amortized variant: it pops up to max_blocks blocks
/// at once, hands them to process_batch() as one span, and emits them all.
/// The default process_batch loops process() block by block — bit-identical
/// to work() by construction — while elements with real batch leverage
/// (contiguous-buffer kernels, one timer scope per batch) can override it.
class Transform : public Element {
 public:
  explicit Transform(std::string name) : Element(std::move(name), 1, 1) {}

  bool work() final;
  bool work_batch(std::size_t max_blocks) override;

  /// Transforms apply write_at() queues sample-exactly: the block containing
  /// a queued position is processed as split sub-blocks around it, with the
  /// write handler fired at the boundary. The wrapped kernels are stateful
  /// and length-preserving, so piecewise processing is bit-identical to
  /// whole-block processing, and downstream block structure is unchanged.
  bool supports_positioned_writes() const override { return true; }

 protected:
  virtual void process(Block& block) = 0;
  /// Process a run of consecutive blocks (stream order). Must equal
  /// calling process() on each block in sequence, bit for bit.
  virtual void process_batch(std::span<Block> blocks) {
    for (Block& b : blocks) process(b);
  }

 private:
  /// process(), with any due positioned writes applied sample-exactly
  /// (splits the block when a write position falls inside it). The
  /// writes_-empty fast path is a single branch on top of process().
  void process_with_writes(Block& block);

  std::vector<Block> batch_;  // work_batch staging (reused across calls)
};

/// Convenience base for aligned 2-in/1-out combiners (adders, cancellers).
/// Pops one block from each input — the streams must be block-aligned,
/// which holds whenever both derive from the same source through
/// length-preserving elements — and emits one combined block.
class Combine2 : public Element {
 public:
  explicit Combine2(std::string name) : Element(std::move(name), 2, 1) {}

  bool work() final;

 protected:
  /// Combine `b` into `a` (a is re-emitted).
  virtual void process(Block& a, const Block& b) = 0;
};

/// Convenience base for 1-in/0-out sinks. `max_blocks_per_work` throttles
/// consumption (0 = drain everything offered) — a deliberately slow sink is
/// how the backpressure tests saturate a graph.
class SinkBase : public Element {
 public:
  SinkBase(std::string name, std::size_t max_blocks_per_work = 0);

  bool work() final;

 protected:
  virtual void consume(const Block& block) = 0;
  /// Every popped block is handed over here, buffer included. The default
  /// lets consume() read it and drops it; a sink that keeps what it is
  /// handed (AccumulatorSink) overrides this to keep the buffer, not copy
  /// it — as a Click element holds the Packet* it was pushed.
  virtual void consume_owned(Block&& block) { consume(block); }

  /// Configure-time throttle change (Params key max_blocks_per_work).
  void set_max_blocks_per_work(std::size_t n) { max_blocks_per_work_ = n; }

 private:
  std::size_t max_blocks_per_work_;
};

}  // namespace ff::stream
