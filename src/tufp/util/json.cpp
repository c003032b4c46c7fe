#include "tufp/util/json.hpp"

#include <cmath>
#include <cstdio>

namespace tufp {

std::string json_double(double value) {
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonObject::key(std::string_view name) {
  if (!first_) body_ << ',';
  first_ = false;
  body_ << '"' << json_escape(name) << "\":";
}

JsonObject& JsonObject::field(std::string_view name, std::string_view text) {
  key(name);
  body_ << '"' << json_escape(text) << '"';
  return *this;
}

JsonObject& JsonObject::field(std::string_view name, double value) {
  key(name);
  if (std::isfinite(value)) {
    body_ << json_double(value);
  } else {
    body_ << '"' << json_double(value) << '"';
  }
  return *this;
}

JsonObject& JsonObject::field(std::string_view name, std::int64_t value) {
  key(name);
  body_ << value;
  return *this;
}

JsonObject& JsonObject::field(std::string_view name, bool value) {
  key(name);
  body_ << (value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::raw(std::string_view name, std::string_view json) {
  key(name);
  body_ << json;
  return *this;
}

// Appended into one buffer: GCC 12 reports `"{" + std::string&&` as a
// -Wrestrict overlap it cannot have.
std::string JsonObject::str() const {
  const std::string body = body_.str();
  std::string out;
  out.reserve(body.size() + 2);
  out += '{';
  out += body;
  out += '}';
  return out;
}

}  // namespace tufp
