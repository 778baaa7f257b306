#include "serve/control.hpp"

#include <cctype>

namespace ff::serve {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Split `elem.handler` at the first '.'; false when either half is empty.
bool split_target(const std::string& target, ControlCommand& out) {
  const auto dot = target.find('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 == target.size()) return false;
  out.element = target.substr(0, dot);
  out.handler = target.substr(dot + 1);
  return true;
}

/// `<head>\n` or `<head> <text>\n`, with every '\n' and '\r' in `text`
/// turned into a space: a reply is exactly one line whatever a handler or
/// an error detail holds.
std::string reply_line(const std::string& head, const std::string& text) {
  std::string line = head;
  if (!text.empty()) line.push_back(' ');
  for (const char c : text) line.push_back(c == '\n' || c == '\r' ? ' ' : c);
  line.push_back('\n');
  return line;
}

}  // namespace

bool parse_control_line(const std::string& line, ControlCommand& out,
                        std::string& error) {
  const std::string text = trim(line);
  const auto sp = text.find(' ');
  const std::string verb = sp == std::string::npos ? text : text.substr(0, sp);
  const std::string rest = sp == std::string::npos ? "" : trim(text.substr(sp + 1));

  if (verb == "ping" || verb == "stats" || verb == "elements" ||
      verb == "snapshot" || verb == "shutdown") {
    if (!rest.empty()) {
      error = "'" + verb + "' takes no arguments";
      return false;
    }
    out.verb = verb == "ping"       ? ControlCommand::Verb::kPing
               : verb == "stats"    ? ControlCommand::Verb::kStats
               : verb == "elements" ? ControlCommand::Verb::kElements
               : verb == "snapshot" ? ControlCommand::Verb::kSnapshot
                                    : ControlCommand::Verb::kShutdown;
    return true;
  }
  if (verb == "read") {
    out.verb = ControlCommand::Verb::kRead;
    if (rest.empty() || !split_target(rest, out)) {
      error = "usage: read <elem>.<handler>";
      return false;
    }
    return true;
  }
  if (verb == "write") {
    out.verb = ControlCommand::Verb::kWrite;
    const auto vsp = rest.find(' ');
    const std::string target = vsp == std::string::npos ? rest : rest.substr(0, vsp);
    if (target.empty() || !split_target(target, out)) {
      error = "usage: write <elem>.<handler> <value>";
      return false;
    }
    out.value = vsp == std::string::npos ? "" : trim(rest.substr(vsp + 1));
    return true;
  }
  error = text.empty() ? "empty command"
                       : "unknown command '" + verb +
                             "' (ping|stats|elements|read|write|snapshot|shutdown)";
  return false;
}

std::string ok_response(const std::string& payload) {
  return reply_line("ok", payload);
}

std::string err_response(const std::string& code, const std::string& detail) {
  return reply_line("err " + code, detail);
}

bool LineBuffer::next_line(std::string& out) {
  const auto nl = buf_.find('\n');
  if (nl == std::string::npos) return false;
  out = buf_.substr(0, nl);
  if (!out.empty() && out.back() == '\r') out.pop_back();
  buf_.erase(0, nl + 1);
  return true;
}

}  // namespace ff::serve
