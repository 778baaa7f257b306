#include "stream/lang.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <tuple>

#include "common/check.hpp"
#include "stream/elements.hpp"
#include "stream/io_elements.hpp"

namespace ff::stream {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

// '@' continues an identifier so the generated anonymous names (Cfo@2)
// survive a to_text -> parse round trip.
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '@';
}

std::string trim_copy(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string default_read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  FF_CHECK_MSG(in.good(), "cannot open value file '" << path << "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// Recursive-descent parser over a raw cursor; every token records the
// line/col where it starts so diagnostics point at the offending character.
class Parser {
 public:
  Parser(const std::string& text, std::string source, FileReader read_file)
      : text_(text), read_file_(std::move(read_file)) {
    spec_.source = std::move(source);
  }

  GraphSpec parse() {
    skip_space();
    while (!eof()) {
      parse_statement();
      skip_space();
    }
    check_references();
    return std::move(spec_);
  }

 private:
  // ---- cursor ---------------------------------------------------------

  bool eof() const { return pos_ >= text_.size(); }
  char peek(std::size_t ahead = 0) const {
    return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
  }

  char advance() {
    const char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  void skip_space() {
    for (;;) {
      while (!eof() && std::isspace(static_cast<unsigned char>(peek()))) advance();
      if (peek() == '#' || (peek() == '/' && peek(1) == '/')) {
        while (!eof() && peek() != '\n') advance();
        continue;
      }
      return;
    }
  }

  [[noreturn]] void fail(int line, int col, const std::string& what) const {
    FF_CHECK_MSG(false, spec_.source << ":" << line << ":" << col << ": " << what);
    std::abort();  // unreachable; FF_CHECK_MSG(false, ...) throws
  }

  [[noreturn]] void fail_here(const std::string& what) const { fail(line_, col_, what); }

  void expect(char c, const std::string& where) {
    if (peek() != c)
      fail_here(std::string("expected '") + c + "' " + where + ", got " + describe_next());
    advance();
  }

  std::string describe_next() const {
    if (eof()) return "end of input";
    const char c = peek();
    if (c == '\n') return "end of line";
    return std::string("'") + c + "'";
  }

  // ---- tokens ---------------------------------------------------------

  std::string parse_ident(const std::string& what) {
    if (!ident_start(peek()))
      fail_here("expected " + what + ", got " + describe_next());
    std::string s;
    while (!eof() && ident_char(peek())) s.push_back(advance());
    return s;
  }

  std::size_t parse_uint(const std::string& what) {
    if (!std::isdigit(static_cast<unsigned char>(peek())))
      fail_here("expected " + what + ", got " + describe_next());
    std::size_t v = 0;
    while (!eof() && std::isdigit(static_cast<unsigned char>(peek())))
      v = v * 10 + static_cast<std::size_t>(advance() - '0');
    return v;
  }

  // ---- grammar --------------------------------------------------------

  // statement := endpoint ( arrow endpoint )* ';'
  // A lone declaration is a one-endpoint chain with no arrows.
  void parse_statement() {
    const int stmt_line = line_, stmt_col = col_;
    Endpoint from = parse_endpoint(/*after_arrow=*/false);
    bool any_arrow = false;
    for (;;) {
      skip_space();
      std::size_t capacity = 0;
      if (peek() == '-' && peek(1) == '>') {
        advance();
        advance();
      } else if (peek() == '-' && peek(1) == '[') {
        advance();
        advance();
        skip_space();
        capacity = parse_uint("a channel capacity");
        if (capacity == 0) fail_here("channel capacity must be >= 1 block");
        skip_space();
        if (!(peek() == ']' && peek(1) == '-' && peek(2) == '>'))
          fail_here("expected ']->' to close the capacity arrow, got " + describe_next());
        advance();
        advance();
        advance();
      } else {
        break;
      }
      any_arrow = true;
      const int conn_line = line_, conn_col = col_;
      Endpoint to = parse_endpoint(/*after_arrow=*/true);
      Connection c;
      c.from = from.name;
      c.from_port = from.out_port;
      c.to = to.name;
      c.to_port = to.in_port;
      c.capacity = capacity;
      c.line = conn_line;
      c.col = conn_col;
      spec_.connections.push_back(std::move(c));
      from = std::move(to);
    }
    skip_space();
    if (peek() != ';')
      fail_here("expected '->' or ';' after an element, got " + describe_next());
    advance();
    if (!any_arrow && !from.declared)
      fail(stmt_line, stmt_col,
           "statement does nothing: '" + from.name +
               "' is neither declared ('name :: Class') nor connected ('a -> b')");
    if (from.out_port_line)
      fail(from.out_port_line, from.out_port_col,
           "output port selector on the last endpoint of a chain (nothing follows)");
  }

  struct Endpoint {
    std::string name;
    std::size_t in_port = 0;
    std::size_t out_port = 0;
    int out_port_line = 0;  // 0 = no explicit [n] suffix
    int out_port_col = 0;
    bool declared = false;  // this endpoint introduced a declaration
  };

  // endpoint := [ '[' port ']' ] element [ '[' port ']' ]
  // element  := IDENT '::' CLASS [config]   (inline declaration)
  //           | IDENT [config-present]      ('(' => anonymous CLASS use)
  //           | IDENT                       (reference to a declared name)
  Endpoint parse_endpoint(bool after_arrow) {
    skip_space();
    Endpoint ep;
    if (peek() == '[') {
      const int l = line_, c = col_;
      if (!after_arrow)
        fail(l, c, "input port selector before the first endpoint of a chain");
      advance();
      skip_space();
      ep.in_port = parse_uint("an input port number");
      skip_space();
      expect(']', "after the input port number");
      skip_space();
    }

    const int elem_line = line_, elem_col = col_;
    const std::string first = parse_ident("an element name or class");
    skip_space();
    if (peek() == ':' && peek(1) == ':') {
      advance();
      advance();
      skip_space();
      const std::string cls = parse_ident("a class name after '::'");
      declare(first, cls, elem_line, elem_col);
      ep.name = first;
      ep.declared = true;
    } else if (peek() == '(') {
      // Anonymous use: the parens mark `first` as a class name.
      std::string name = first + "@" + std::to_string(++anon_counter_);
      declare_at_paren(name, first, elem_line, elem_col);
      ep.name = std::move(name);
      ep.declared = true;
    } else {
      ep.name = first;
      referenced_.emplace_back(first, elem_line, elem_col);
    }

    skip_space();
    if (peek() == '[') {
      ep.out_port_line = line_;
      ep.out_port_col = col_;
      advance();
      skip_space();
      ep.out_port = parse_uint("an output port number");
      skip_space();
      expect(']', "after the output port number");
    }
    return ep;
  }

  // Common tail of a declaration: optional '(config)' then record the decl.
  void declare(const std::string& name, const std::string& cls, int line, int col) {
    skip_space();
    ElementDecl d;
    d.name = name;
    d.class_name = cls;
    d.line = line;
    d.col = col;
    if (peek() == '(') parse_config(d);
    add_decl(std::move(d));
  }

  void declare_at_paren(const std::string& name, const std::string& cls, int line,
                        int col) {
    ElementDecl d;
    d.name = name;
    d.class_name = cls;
    d.line = line;
    d.col = col;
    parse_config(d);  // caller saw the '('
    add_decl(std::move(d));
  }

  void add_decl(ElementDecl d) {
    const ElementDecl* prev = spec_.find_decl(d.name);
    if (prev)
      fail(d.line, d.col,
           "duplicate element name '" + d.name + "' (first declared at line " +
               std::to_string(prev->line) + ")");
    d.params.set_context(d.class_name + " '" + d.name + "'");
    spec_.decls.push_back(std::move(d));
  }

  // config := '(' [ key '=' value ( ',' key '=' value )* ] ')'
  // The body is captured raw (parens nest, for complex lists) and split at
  // top-level commas; '@path' values substitute the file's contents.
  void parse_config(ElementDecl& d) {
    const int cfg_line = line_, cfg_col = col_;
    expect('(', "to open the configuration");
    std::string raw;
    int depth = 1;
    while (depth > 0) {
      if (eof())
        fail(cfg_line, cfg_col, "unterminated '(' in " + d.class_name + " configuration");
      const char c = advance();
      if (c == '(') ++depth;
      if (c == ')' && --depth == 0) break;
      raw.push_back(c);
    }
    // Re-join fragments of list values: `taps=(1,0),(2,0)` splits at the
    // top-level comma after the first tap, leaving a tail fragment with no
    // '=' — glue such fragments back onto the preceding entry.
    std::vector<std::string> entries;
    for (std::string& fragment : split_list_value(d.class_name + " configuration", raw)) {
      if (!entries.empty() && fragment.find('=') == std::string::npos)
        entries.back() += "," + fragment;
      else
        entries.push_back(std::move(fragment));
    }
    for (const std::string& entry : entries) {
      if (entry.empty())
        fail(cfg_line, cfg_col, d.class_name + ": empty configuration entry");
      const auto eq = entry.find('=');
      if (eq == std::string::npos)
        fail(cfg_line, cfg_col,
             d.class_name + ": configuration entry '" + entry +
                 "' is not of the form key=value");
      const std::string key = trim_copy(entry.substr(0, eq));
      std::string value = trim_copy(entry.substr(eq + 1));
      if (key.empty() || !ident_start(key[0]))
        fail(cfg_line, cfg_col,
             d.class_name + ": bad parameter name '" + key + "' in '" + entry + "'");
      if (!value.empty() && value[0] == '@') {
        const std::string path = value.substr(1);
        if (path.empty())
          fail(cfg_line, cfg_col, d.class_name + ": '" + key + "=@' names no file");
        try {
          const FileReader& rd = read_file_ ? read_file_ : default_read_file;
          value = trim_copy(rd(path));
        } catch (const std::exception& err) {
          fail(cfg_line, cfg_col,
               d.class_name + ": " + key + "=@" + path + ": " + err.what());
        }
      }
      try {
        d.params.set(key, std::move(value));
      } catch (const std::exception& err) {
        fail(cfg_line, cfg_col, err.what());
      }
    }
  }

  // Every bare name used in a chain must be declared somewhere in the file
  // (declarations may come later than the use).
  void check_references() const {
    for (const auto& [name, line, col] : referenced_)
      if (!spec_.find_decl(name))
        fail(line, col,
             "unknown element '" + name +
                 "' (declare it with 'name :: Class(...)', or add parens for an "
                 "anonymous class use)");
  }

  const std::string& text_;
  FileReader read_file_;
  GraphSpec spec_;
  std::vector<std::tuple<std::string, int, int>> referenced_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
  int anon_counter_ = 0;
};

}  // namespace

// ---------------------------------------------------------- ElementRegistry

void ElementRegistry::add(const std::string& class_name, Factory factory) {
  FF_CHECK_MSG(!class_name.empty() && factory, "ElementRegistry::add needs a name and factory");
  FF_CHECK_MSG(factories_.emplace(class_name, std::move(factory)).second,
               "element class '" << class_name << "' registered twice");
}

bool ElementRegistry::has(const std::string& class_name) const {
  return factories_.count(class_name) != 0;
}

std::unique_ptr<Element> ElementRegistry::make(const std::string& class_name,
                                               std::string name, Params params) const {
  const auto it = factories_.find(class_name);
  if (it == factories_.end()) {
    std::string known;
    for (const auto& [cls, factory] : factories_) {
      if (!known.empty()) known += ", ";
      known += cls;
    }
    FF_CHECK_MSG(false, "unknown element class '" << class_name << "' (known: " << known
                                                  << ")");
  }
  std::unique_ptr<Element> e = it->second(std::move(name));
  FF_CHECK_MSG(e != nullptr, "factory for '" << class_name << "' returned null");
  params.set_context(std::string(e->class_name()) + " '" + e->name() + "'");
  e->configure(params);
  params.check_all_used();
  return e;
}

const ElementRegistry& ElementRegistry::builtin() {
  static const ElementRegistry registry = [] {
    ElementRegistry r;
    r.add<VectorSource>("VectorSource");
    r.add<PacketSource>("PacketSource");
    r.add<FirElement>("Fir");
    r.add<CfoElement>("Cfo");
    r.add<PipelineElement>("Pipeline");
    r.add<ChannelElement>("Channel");
    r.add<FaultElement>("Fault");
    r.add<GateElement>("Gate");
    r.add<Queue>("Queue");
    r.add<Tee>("Tee");
    r.add<Add2>("Add2");
    r.add<CancellerElement>("Canceller");
    r.add<AccumulatorSink>("AccumulatorSink");
    r.add<NullSink>("NullSink");
    r.add<SocketSource>("SocketSource");
    r.add<SocketSink>("SocketSink");
    r.add<FileTapSink>("FileTapSink");
    return r;
  }();
  return registry;
}

// ----------------------------------------------------------------- GraphSpec

const ElementDecl* GraphSpec::find_decl(const std::string& name) const {
  for (const auto& d : decls)
    if (d.name == name) return &d;
  return nullptr;
}

std::string GraphSpec::to_text() const {
  std::ostringstream os;
  for (const auto& d : decls) {
    os << d.name << " :: " << d.class_name;
    if (!d.params.empty()) {
      os << "(";
      bool first = true;
      for (const auto& [key, value] : d.params.items()) {
        if (!first) os << ", ";
        first = false;
        os << key << "=" << value;
      }
      os << ")";
    }
    os << ";\n";
  }
  for (const auto& c : connections) {
    os << c.from;
    if (c.from_port != 0) os << "[" << c.from_port << "]";
    if (c.capacity != 0)
      os << " -[" << c.capacity << "]-> ";
    else
      os << " -> ";
    if (c.to_port != 0) os << "[" << c.to_port << "]";
    os << c.to << ";\n";
  }
  return os.str();
}

// ------------------------------------------------------------------ parsing

GraphSpec parse_graph(const std::string& text, const std::string& source,
                      FileReader read_file) {
  return Parser(text, source, std::move(read_file)).parse();
}

GraphSpec parse_graph_file(const std::string& path, FileReader read_file) {
  return parse_graph(default_read_file(path), path, std::move(read_file));
}

// ----------------------------------------------------------------- building

std::vector<Element*> build_graph(Graph& graph, const GraphSpec& spec,
                                  const ElementRegistry& registry,
                                  std::size_t default_capacity) {
  std::vector<Element*> built;
  built.reserve(spec.decls.size());
  for (const auto& d : spec.decls) {
    try {
      built.push_back(graph.add(registry.make(d.class_name, d.name, d.params)));
    } catch (const std::logic_error& err) {
      FF_CHECK_MSG(false, spec.source << ":" << d.line << ":" << d.col << ": "
                                      << err.what());
    }
  }
  for (const auto& c : spec.connections) {
    Element* from = graph.find(c.from);
    Element* to = graph.find(c.to);
    // The parser guarantees both are declared; a hand-built spec may not.
    try {
      FF_CHECK_MSG(from, "unknown element '" << c.from << "'");
      FF_CHECK_MSG(to, "unknown element '" << c.to << "'");
      graph.connect(*from, c.from_port, *to, c.to_port,
                    c.capacity == 0 ? default_capacity : c.capacity);
    } catch (const std::logic_error& err) {
      FF_CHECK_MSG(false, spec.source << ":" << c.line << ":" << c.col << ": "
                                      << err.what());
    }
  }
  try {
    graph.validate();
  } catch (const std::logic_error& err) {
    FF_CHECK_MSG(false, spec.source << ": " << err.what());
  }
  return built;
}

std::vector<Element*> build_graph(Graph& graph, const std::string& text,
                                  const std::string& source,
                                  const ElementRegistry& registry,
                                  std::size_t default_capacity) {
  return build_graph(graph, parse_graph(text, source), registry, default_capacity);
}

}  // namespace ff::stream
