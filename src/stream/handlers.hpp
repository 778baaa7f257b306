// Click-style per-element read/write handlers.
//
// A read handler renders one piece of live element state as a string
// (counters, current taps, cfo_hz, stall stats); a write handler applies a
// control action from a string value (set_taps, set_cfo, retune, gate
// open/close). Handlers are the runtime introspection surface: the graph
// language builds the elements, handlers inspect and retune them while the
// stream runs — without rebuilding the binary.
//
// Concrete elements register handlers in their add_handlers() override;
// the registry is built lazily on first access (Element::handlers()).
// Thread-safety is by scheduling, not locking: handlers touch element
// state, so they are only invoked at quiescent points — before/after a run,
// or between reference-mode rounds via SchedulerConfig::on_round, which
// runs on the calling thread after each pass of the one chain. For
// mid-stream retunes in either mode, use the positioned write queue
// (Element::write_at), which applies the handler at an exact sample index
// inside the element's own work() — the determinism contract in
// docs/STREAMING.md.
#pragma once

#include <functional>
#include <string>
#include <vector>

namespace ff::stream {

/// One named handler. read and/or write may be empty; readable()/writable()
/// say which directions exist.
struct Handler {
  std::string name;
  std::function<std::string()> read;
  std::function<void(const std::string&)> write;

  bool readable() const { return static_cast<bool>(read); }
  bool writable() const { return static_cast<bool>(write); }
  bool valid() const { return readable() || writable(); }
};

/// Per-element handler table, insertion-ordered (catalog printing follows
/// registration order, base-class handlers first).
class HandlerRegistry {
 public:
  /// Register a read handler (FF_CHECK: name not already readable).
  void add_read(const std::string& name, std::function<std::string()> fn);
  /// Register a write handler (FF_CHECK: name not already writable).
  /// A name may carry both directions (e.g. `taps` read + `set_taps` write
  /// are conventionally separate, but `open` could be both).
  void add_write(const std::string& name, std::function<void(const std::string&)> fn);

  /// Lookup by name; nullptr when absent.
  const Handler* find(const std::string& name) const;

  const std::vector<Handler>& all() const { return handlers_; }

 private:
  Handler& at_or_new(const std::string& name);

  std::vector<Handler> handlers_;
};

}  // namespace ff::stream
