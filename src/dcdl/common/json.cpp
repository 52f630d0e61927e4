#include "dcdl/common/json.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>

namespace dcdl::json {

namespace {

[[noreturn]] void fail(const std::string& what, std::size_t at) {
  throw Error("json: " + what + " at byte " + std::to_string(at));
}

constexpr const char* kKindNames[] = {"a bool", "a number", "a string",
                                     "an array", "an object"};

}  // namespace

class Parser {
 public:
  explicit Parser(std::string_view s) : s_(s) {}

  Value document() {
    Value v = value(0);
    skip_ws();
    if (p_ != s_.size()) fail("trailing text", p_);
    return v;
  }

 private:
  void skip_ws() {
    p_ = std::min(s_.find_first_not_of(" \t\n\r", p_), s_.size());
  }

  bool eat(char c) {
    if (p_ >= s_.size() || s_[p_] != c) return false;
    ++p_;
    return true;
  }

  bool consume(char c) {
    skip_ws();
    return eat(c);
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'", p_);
  }

  Value value(int depth) {
    skip_ws();
    if (p_ >= s_.size()) fail("unexpected end of input", p_);
    Value v;
    v.offset_ = p_;
    const char c = s_[p_];
    if (c == '{' || c == '[') {
      if (depth == kMaxDepth) fail("nesting too deep", p_);
      ++p_;
      const bool object = c == '{';
      const char close = object ? '}' : ']';
      v.kind_ = object ? Value::Kind::kObject : Value::Kind::kArray;
      if (consume(close)) return v;
      do {
        if (!object) {
          v.items_.push_back(value(depth + 1));
          continue;
        }
        skip_ws();
        const std::size_t at = p_;
        if (!eat('"')) fail("expected a key", p_);
        std::string key = string();
        if (v.find(key) != nullptr) fail("duplicate key \"" + key + "\"", at);
        expect(':');
        v.members_.push_back(Member{std::move(key), value(depth + 1)});
      } while (consume(','));
      expect(close);
    } else if (eat('"')) {
      v.kind_ = Value::Kind::kString;
      v.text_ = string();
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      v.kind_ = Value::Kind::kNumber;
      number(v);
    } else if (s_.substr(p_, 4) == "true" || s_.substr(p_, 5) == "false") {
      v.text_ = c == 't' ? "true" : "false";  // kind_ defaults to kBool
      p_ += v.text_.size();
    } else {
      fail("unexpected character", p_);
    }
    return v;
  }

  /// The rest of a string whose opening quote was just consumed.
  std::string string() {
    const std::size_t begin = p_ - 1;
    std::string out;
    for (;;) {
      if (p_ >= s_.size()) fail("unterminated string", begin);
      const char c = s_[p_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("control byte", p_ - 1);
      if (c != '\\') {
        out += c;
        continue;
      }
      if (p_ >= s_.size()) fail("unterminated string", begin);
      const char e = s_[p_++];
      const std::size_t simple = std::string_view("\"\\ntr").find(e);
      if (simple != std::string_view::npos) {
        out += "\"\\\n\t\r"[simple];
        continue;
      }
      // Beyond those, the emitter writes \u00XX for control characters.
      unsigned code = 0;
      const char* digits = s_.data() + p_;
      const auto [end, ec] = std::from_chars(
          digits, s_.data() + std::min(p_ + 4, s_.size()), code, 16);
      if (e != 'u' || ec != std::errc{} || end != digits + 4 || code >= 0x20) {
        fail("unsupported escape", p_ - 2);
      }
      out += static_cast<char>(code);
      p_ += 4;
    }
  }

  void number(Value& v) {
    const std::size_t begin = p_;
    const auto digits = [&] {
      const std::size_t from = p_;
      p_ = std::min(s_.find_first_not_of("0123456789", p_), s_.size());
      if (p_ == from) fail("malformed number", begin);
    };
    eat('-');
    if (!eat('0')) digits();
    if (eat('.')) digits();
    if (eat('e') || eat('E')) {
      if (!eat('+')) eat('-');
      digits();
    }
    v.text_ = s_.substr(begin, p_ - begin);
    const char* last = v.text_.data() + v.text_.size();
    const auto [end, ec] = std::from_chars(v.text_.data(), last, v.number_);
    if (ec != std::errc{} || end != last) fail("number out of range", begin);
  }

  std::string_view s_;
  std::size_t p_ = 0;
};

Value parse(std::string_view text) { return Parser(text).document(); }

void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

const Value& Value::expect(Kind kind) const {
  if (kind_ == kind) return *this;
  fail(std::string("expected ") + kKindNames[static_cast<int>(kind)], offset_);
}

std::int64_t Value::as_int() const {
  const std::string& t = expect(Kind::kNumber).text_;
  std::int64_t v = 0;
  const auto [end, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
  if (ec == std::errc{} && end == t.data() + t.size()) return v;
  fail("expected an int64", offset_);
}

const std::string& Value::text() const {
  if (kind_ != Kind::kArray && kind_ != Kind::kObject) return text_;
  fail("expected a scalar", offset_);
}

const Value* Value::find(std::string_view key) const {
  for (const Member& m : members()) {
    if (m.key == key) return &m.value;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  if (const Value* v = find(key)) return *v;
  fail("missing \"" + std::string(key) + "\"", offset_);
}

}  // namespace dcdl::json
