// Minimal JSON emitter shared by the metrics reports and the city's JSONL
// records: flat objects, arrays of objects, numbers and strings only.
// Numbers are formatted with %.6g, so a given double always serializes to
// the same bytes — the determinism checks that diff these outputs
// byte-for-byte rely on that.
#pragma once

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

namespace ff {

class JsonWriter {
 public:
  JsonWriter& key(const std::string& k) {
    comma();
    os_ << '"' << k << "\":";
    fresh_ = true;
    return *this;
  }
  JsonWriter& value(double v) {
    comma();
    os_ << format_number(v);
    return *this;
  }
  JsonWriter& value(std::uint64_t v) {
    comma();
    os_ << v;
    return *this;
  }
  JsonWriter& value(const std::string& v) {
    comma();
    os_ << '"';
    for (const char c : v)
      if (c == '"' || c == '\\')
        os_ << '\\' << c;
      else
        os_ << c;
    os_ << '"';
    return *this;
  }
  JsonWriter& begin_object() {
    comma();
    os_ << '{';
    fresh_ = true;
    return *this;
  }
  JsonWriter& end_object() {
    os_ << '}';
    fresh_ = false;
    return *this;
  }
  JsonWriter& begin_array() {
    comma();
    os_ << '[';
    fresh_ = true;
    return *this;
  }
  JsonWriter& end_array() {
    os_ << ']';
    fresh_ = false;
    return *this;
  }

  std::string str() const { return os_.str(); }

 private:
  static std::string format_number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
  }
  void comma() {
    if (!fresh_) os_ << ',';
    fresh_ = false;
  }

  std::ostringstream os_;
  bool fresh_ = true;
};

}  // namespace ff
