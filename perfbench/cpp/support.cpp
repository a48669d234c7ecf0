#include "support.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>

namespace pb {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

void JsonObject::key(const std::string& k) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += json_escape(k);
  body_ += "\":";
}

JsonObject& JsonObject::num(const std::string& k, double v) {
  key(k);
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  body_ += buf;
  return *this;
}

JsonObject& JsonObject::num(const std::string& k, std::uint64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

JsonObject& JsonObject::boolean(const std::string& k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += '"';
  body_ += json_escape(v);
  body_ += '"';
  return *this;
}

JsonObject& JsonObject::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream f(path, std::ios::app);
  if (!f) return false;
  for (const Span& s : spans_) {
    JsonObject o;
    o.str("run", run_);
    o.str("name", s.name);
    o.num("id", std::uint64_t{s.id});
    o.num("parent", std::uint64_t{s.parent});
    o.num("start_ns", s.start_ns);
    o.num("end_ns", s.end_ns);
    f << o.done() << "\n";
  }
  return static_cast<bool>(f);
}

}  // namespace pb
