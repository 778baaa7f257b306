// The Click-style graph description language.
//
// A relay session is text, not C++:
//
//   // declarations
//   src :: PacketSource(packets=50, block=256);
//   fir :: Fir(taps=@taps.txt);             // @file reads the value from a file
//   // chains (anonymous elements auto-name as Class@N)
//   src -> fir -> Cfo(hz=1200) -> sink :: AccumulatorSink;
//   tee[1] -> [0]add;                       // output port 1 -> input port 0
//   q -[4]-> slow;                          // channel capacity 4 blocks
//
// Statements end with ';'. `//` and `#` comment to end of line. An endpoint
// in a chain is: a bare name (must be declared somewhere in the file), an
// inline declaration `name :: Class(config)`, or an anonymous declaration
// `Class(config)` — the trailing parens are what mark a class use, so a
// bare `Queue` is a *reference* to an element named Queue, not an anonymous
// Queue (write `Queue()` for that). Port selectors `[n]` suffix the
// producing endpoint and prefix the consuming one, Click-style.
//
// parse_graph() produces a GraphSpec (a plain AST: declarations with their
// Params, connections with ports/capacities), with every diagnostic carrying
// `source:line:col`. build_graph() instantiates the spec into a validated
// Graph through an ElementRegistry of factories; a graph built from text is
// bit-identical to the equivalent hand-wired one (tests/lang_test.cpp pins
// the session checksum under both scheduler modes). GraphSpec::to_text()
// prints back a canonical form that re-parses to the same spec.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "stream/graph.hpp"
#include "stream/params.hpp"

namespace ff::stream {

/// Class-name -> factory table used by build_graph. make() runs the full
/// declarative construction protocol: factory, Params context naming,
/// configure(), and the unknown-parameter check.
class ElementRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Element>(std::string name)>;

  /// Register a factory under a class name (FF_CHECK: not yet taken).
  void add(const std::string& class_name, Factory factory);

  /// Register class E's name-only constructor: add<FirElement>("Fir").
  template <typename E>
  void add(const std::string& class_name) {
    add(class_name,
        [](std::string name) { return std::make_unique<E>(std::move(name)); });
  }

  bool has(const std::string& class_name) const;

  /// Construct `class_name` as instance `name` and configure it from
  /// `params`. FF_CHECKs the class is known (naming the known ones), and
  /// rejects unknown parameters after configure() (Params::check_all_used).
  std::unique_ptr<Element> make(const std::string& class_name, std::string name,
                                Params params) const;

  /// The registry holding every built-in element class (elements.hpp).
  static const ElementRegistry& builtin();

 private:
  std::map<std::string, Factory> factories_;
};

/// One `name :: Class(config)` declaration (explicit, inline or anonymous).
struct ElementDecl {
  std::string name;
  std::string class_name;
  Params params;
  int line = 0;
  int col = 0;
};

/// One `from[p] -> [q]to` edge; capacity 0 = builder default.
struct Connection {
  std::string from;
  std::size_t from_port = 0;
  std::string to;
  std::size_t to_port = 0;
  std::size_t capacity = 0;
  int line = 0;
  int col = 0;
};

/// Parsed graph description: declarations in appearance order plus the
/// connection list. A plain value type — build_graph() turns it into a
/// live Graph, to_text() prints the canonical round-trippable form.
struct GraphSpec {
  std::string source = "<graph>";  // name used in diagnostics
  std::vector<ElementDecl> decls;
  std::vector<Connection> connections;

  const ElementDecl* find_decl(const std::string& name) const;

  /// Canonical text form: every declaration explicit (anonymous elements
  /// keep their generated Class@N names), then every connection, ports and
  /// capacities printed only when non-default. parse_graph(to_text()) of a
  /// valid spec yields an equal spec.
  std::string to_text() const;
};

/// Reads the file behind a `key=@path` substitution; throws on failure.
/// Injectable for tests; the default opens the path with std::ifstream.
using FileReader = std::function<std::string(const std::string& path)>;

/// Parse a graph description. Throws std::logic_error with
/// `source:line:col` on syntax errors, duplicate declarations, and bare
/// references to names never declared. `read_file` serves `@path` values
/// (nullptr = the default filesystem reader).
GraphSpec parse_graph(const std::string& text, const std::string& source = "<graph>",
                      FileReader read_file = nullptr);

/// Convenience: read `path` and parse it (source = path).
GraphSpec parse_graph_file(const std::string& path, FileReader read_file = nullptr);

/// Instantiate a parsed spec into `graph` through `registry` and validate
/// the result. Construction/configuration errors are rethrown with the
/// declaration's source:line:col prepended. Returns the built elements in
/// declaration order (handles for further wiring or inspection).
std::vector<Element*> build_graph(Graph& graph, const GraphSpec& spec,
                                  const ElementRegistry& registry = ElementRegistry::builtin(),
                                  std::size_t default_capacity = Graph::kDefaultChannelCapacity);

/// Parse + build in one call (the `--graph file.ff` path).
std::vector<Element*> build_graph(Graph& graph, const std::string& text,
                                  const std::string& source = "<graph>",
                                  const ElementRegistry& registry = ElementRegistry::builtin(),
                                  std::size_t default_capacity = Graph::kDefaultChannelCapacity);

}  // namespace ff::stream
