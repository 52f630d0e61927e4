// One strict JSON reader for the artifacts the tools write: the campaign
// JSON, the dcdl.telemetry.v1 / timeseries.v1 / alerts.v1 lines and the
// Perfetto traces. It accepts objects, arrays, numbers, true/false and
// strings with the escapes append_quoted() emits (\" \\ \n \t \r and
// \u00XX below 0x20), and nothing else: no null, no trailing text, no
// duplicate keys, no number that is not finite as a double, and no nesting
// deeper than kMaxDepth (the recursion is as deep as the input). Every
// failure throws json::Error naming the byte offset.
//
// Numbers keep their source text, so as_int() converts an int64 exactly
// (never through a double) and text() re-renders a scalar byte for byte.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace dcdl::json {

class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Deepest nesting of arrays and objects parse() accepts.
inline constexpr int kMaxDepth = 64;

struct Member;

class Value {
 public:
  // Each accessor throws json::Error when the value is of another kind.
  bool as_bool() const { return expect(Kind::kBool).text_ == "true"; }
  /// Exact; throws on a fraction, an exponent or a value outside int64.
  std::int64_t as_int() const;
  double as_double() const { return expect(Kind::kNumber).number_; }
  const std::string& as_string() const { return expect(Kind::kString).text_; }
  /// A number's source text, a string's content, or "true"/"false".
  const std::string& text() const;
  const std::vector<Value>& items() const {
    return expect(Kind::kArray).items_;
  }
  /// Object members, in source order.
  const std::vector<Member>& members() const {
    return expect(Kind::kObject).members_;
  }

  /// The object member named `key`, or nullptr when absent.
  const Value* find(std::string_view key) const;
  /// The object member named `key`; throws json::Error when absent.
  const Value& at(std::string_view key) const;

 private:
  friend class Parser;
  enum class Kind { kBool, kNumber, kString, kArray, kObject };
  const Value& expect(Kind kind) const;

  Kind kind_ = Kind::kBool;
  std::size_t offset_ = 0;
  double number_ = 0;
  std::string text_;  ///< number literal, string content, "true"/"false"
  std::vector<Value> items_;
  std::vector<Member> members_;
};

struct Member {
  std::string key;
  Value value;
};

/// Parses one complete JSON text; throws json::Error on anything else.
Value parse(std::string_view text);

/// Appends `s` as a JSON string literal, quotes included, escaping exactly
/// what parse() reads back: \" \\ \n \t \r, and \u00XX for the other
/// bytes below 0x20. Every artifact writer quotes its strings through this.
void append_quoted(std::string& out, std::string_view s);

/// `s` as a JSON string literal (append_quoted into a fresh string).
inline std::string quoted(std::string_view s) {
  std::string out;
  append_quoted(out, s);
  return out;
}

}  // namespace dcdl::json
