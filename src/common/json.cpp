#include "common/json.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>

namespace meshroute::json {
namespace {

[[noreturn]] void fail(std::size_t offset, const std::string& what) {
  throw std::runtime_error("json: " + what + " at offset " + std::to_string(offset));
}

/// Recursive-descent parser over a string_view with an explicit cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail(pos_, "trailing characters after document");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(pos_, std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return Value(parse_string());
    if (c == 't') {
      if (!consume_literal("true")) fail(pos_, "bad literal");
      return Value(true);
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail(pos_, "bad literal");
      return Value(false);
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail(pos_, "bad literal");
      return Value(nullptr);
    }
    return parse_number();
  }

  Value parse_object() {
    expect('{');
    Value::Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.insert_or_assign(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Value(std::move(obj));
    }
  }

  Value parse_array() {
    expect('[');
    Value::Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Value(std::move(arr));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = peek();
            ++pos_;
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail(pos_ - 1, "bad \\u escape");
          }
          // BMP code points only (no surrogate pairs) — all the emitters in
          // this repo produce plain ASCII.
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: fail(pos_ - 1, "bad escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail(start, "expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || errno == ERANGE) fail(start, "bad number");
    return Value(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

bool Value::as_bool() const {
  if (!is_bool()) throw std::runtime_error("json: not a bool");
  return std::get<bool>(v_);
}

double Value::as_number() const {
  if (!is_number()) throw std::runtime_error("json: not a number");
  return std::get<double>(v_);
}

const std::string& Value::as_string() const {
  if (!is_string()) throw std::runtime_error("json: not a string");
  return std::get<std::string>(v_);
}

const Value::Array& Value::as_array() const {
  if (!is_array()) throw std::runtime_error("json: not an array");
  return std::get<Array>(v_);
}

const Value::Object& Value::as_object() const {
  if (!is_object()) throw std::runtime_error("json: not an object");
  return std::get<Object>(v_);
}

const Value& Value::at(const std::string& key) const {
  const Object& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end()) throw std::runtime_error("json: missing key '" + key + "'");
  return it->second;
}

bool Value::has(const std::string& key) const noexcept {
  return is_object() && std::get<Object>(v_).count(key) > 0;
}

Value parse(std::string_view text) { return Parser(text).parse_document(); }

void write_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
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
  out += '"';
}

void write_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";  // JSON has no NaN/Inf; emitters never produce them
    return;
  }
  if (v == std::floor(v) && std::abs(v) < 9.0e15) {
    out += std::to_string(static_cast<long long>(v));
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

void write(std::string& out, const Value& v) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_number()) {
    write_number(out, v.as_number());
  } else if (v.is_string()) {
    write_string(out, v.as_string());
  } else if (v.is_array()) {
    out += '[';
    bool first = true;
    for (const Value& e : v.as_array()) {
      if (!first) out += ',';
      first = false;
      write(out, e);
    }
    out += ']';
  } else {
    out += '{';
    bool first = true;
    for (const auto& [key, val] : v.as_object()) {
      if (!first) out += ',';
      first = false;
      write_string(out, key);
      out += ':';
      write(out, val);
    }
    out += '}';
  }
}

std::string to_string(const Value& v) {
  std::string out;
  write(out, v);
  return out;
}

bool write_output(const std::string& path, std::string_view flag,
                  const std::function<void(std::ostream&)>& writer) {
  if (path.empty()) return false;
  if (path == "-") {
    writer(std::cout);
    return true;
  }
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    std::cerr << "error: cannot open --" << flag << " file '" << path << "'\n";
    return false;
  }
  writer(file);
  return true;
}

}  // namespace meshroute::json
