// Minimal JSON value model, parser, and writer: the one JSON module of the
// repository. The sweep tables (`--json=`), the serve STATS/HEALTH replies and
// every obs document (trace, metrics, windowed, flight) are written through
// it, and tests, bench_compare, trace_check and the bench smoke checker parse
// those files back with it. Deliberately tiny and dependency-free.
//
// write_output() is the one rule for a `--<flag>=FILE|-` output target.
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace meshroute::json {

/// A parsed JSON value. Objects keep keys sorted (std::map); the emitters in
/// this repository write keys in a fixed order, so serialization of a
/// freshly-built document is deterministic.
class Value {
 public:
  using Array = std::vector<Value>;
  using Object = std::map<std::string, Value>;

  Value() : v_(nullptr) {}
  Value(std::nullptr_t) : v_(nullptr) {}
  Value(bool b) : v_(b) {}
  Value(double d) : v_(d) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(const char* s) : v_(std::string(s)) {}
  Value(Array a) : v_(std::move(a)) {}
  Value(Object o) : v_(std::move(o)) {}

  [[nodiscard]] bool is_null() const noexcept { return std::holds_alternative<std::nullptr_t>(v_); }
  [[nodiscard]] bool is_bool() const noexcept { return std::holds_alternative<bool>(v_); }
  [[nodiscard]] bool is_number() const noexcept { return std::holds_alternative<double>(v_); }
  [[nodiscard]] bool is_string() const noexcept { return std::holds_alternative<std::string>(v_); }
  [[nodiscard]] bool is_array() const noexcept { return std::holds_alternative<Array>(v_); }
  [[nodiscard]] bool is_object() const noexcept { return std::holds_alternative<Object>(v_); }

  /// Typed accessors; throw std::runtime_error on kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object member lookup; throws if not an object or the key is absent.
  [[nodiscard]] const Value& at(const std::string& key) const;
  /// True when this is an object carrying `key`.
  [[nodiscard]] bool has(const std::string& key) const noexcept;

  friend bool operator==(const Value&, const Value&) = default;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

/// Parse a complete JSON document (trailing whitespace allowed, anything
/// else after the value is an error). Throws std::runtime_error with a
/// byte-offset message on malformed input.
[[nodiscard]] Value parse(std::string_view text);

/// Serialize compactly (no whitespace). Numbers use the shortest
/// representation that round-trips the double exactly.
void write(std::string& out, const Value& v);
[[nodiscard]] std::string to_string(const Value& v);

/// Append a JSON string literal (quoted, escaped) to `out`.
void write_string(std::string& out, std::string_view s);
/// Append a number; integral values within int64 range print without a
/// decimal point, everything else uses shortest-round-trip form.
void write_number(std::string& out, double v);

/// Append `map` as an object, in its key order: each key through
/// write_string, each value through `write_value(out, value)`.
template <class Map, class WriteValue>
void write_object(std::string& out, const Map& map, WriteValue&& write_value) {
  out += '{';
  bool first = true;
  for (const auto& [key, value] : map) {
    if (!first) out += ',';
    first = false;
    write_string(out, key);
    out += ':';
    write_value(out, value);
  }
  out += '}';
}

/// Honor a `--<flag>=FILE|-` output target: "" writes nothing and returns
/// false, "-" writes to stdout, anything else truncates and writes the named
/// file. A file that will not open prints
/// `error: cannot open --<flag> file '<path>'` to stderr once and returns
/// false. Returns true when `writer` ran.
bool write_output(const std::string& path, std::string_view flag,
                  const std::function<void(std::ostream&)>& writer);

}  // namespace meshroute::json
