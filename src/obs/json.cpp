#include "obs/json.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>

namespace paws::obs::json {

const Value* Value::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::int64_t Value::asInt(std::int64_t fallback) const {
  if (kind != Kind::kNumber) return fallback;
  return isInteger ? integer : static_cast<std::int64_t>(number);
}

std::uint64_t Value::asUint(std::uint64_t fallback) const {
  const std::int64_t v = asInt(static_cast<std::int64_t>(fallback));
  return v < 0 ? fallback : static_cast<std::uint64_t>(v);
}

double Value::asDouble(double fallback) const {
  return kind == Kind::kNumber ? number : fallback;
}

bool Value::asBool(bool fallback) const {
  return kind == Kind::kBool ? boolean : fallback;
}

std::string Value::asString(std::string fallback) const {
  return kind == Kind::kString ? text : fallback;
}

namespace {

constexpr int kMaxDepth = 96;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  ParseResult run() {
    ParseResult out;
    skipWs();
    if (!parseValue(out.value, 0)) {
      out.error = error_;
      return out;
    }
    skipWs();
    if (pos_ != text_.size()) {
      fail("trailing characters after the document");
      out.error = error_;
      return out;
    }
    out.ok = true;
    return out;
  }

 private:
  bool fail(const std::string& message) {
    if (error_.empty()) {
      error_ = "offset " + std::to_string(pos_) + ": " + message;
    }
    return false;
  }

  void skipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] bool atEnd() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  bool expect(char c) {
    if (atEnd() || text_[pos_] != c) {
      return fail(std::string("expected '") + c + "'");
    }
    ++pos_;
    return true;
  }

  bool parseValue(Value& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (atEnd()) return fail("unexpected end of input");
    switch (peek()) {
      case '{':
        return parseObject(out, depth);
      case '[':
        return parseArray(out, depth);
      case '"':
        out.kind = Value::Kind::kString;
        return parseString(out.text);
      case 't':
        return parseLiteral("true", out, Value::Kind::kBool, true);
      case 'f':
        return parseLiteral("false", out, Value::Kind::kBool, false);
      case 'n':
        return parseLiteral("null", out, Value::Kind::kNull, false);
      default:
        return parseNumber(out);
    }
  }

  bool parseLiteral(std::string_view word, Value& out, Value::Kind kind,
                    bool boolean) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail("invalid literal");
    }
    pos_ += word.size();
    out.kind = kind;
    out.boolean = boolean;
    return true;
  }

  bool parseObject(Value& out, int depth) {
    out.kind = Value::Kind::kObject;
    ++pos_;  // '{'
    skipWs();
    if (!atEnd() && peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skipWs();
      if (atEnd() || peek() != '"') return fail("expected object key");
      std::string key;
      if (!parseString(key)) return false;
      skipWs();
      if (!expect(':')) return false;
      skipWs();
      Value value;
      if (!parseValue(value, depth + 1)) return false;
      out.members.emplace_back(std::move(key), std::move(value));
      skipWs();
      if (atEnd()) return fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      return expect('}');
    }
  }

  bool parseArray(Value& out, int depth) {
    out.kind = Value::Kind::kArray;
    ++pos_;  // '['
    skipWs();
    if (!atEnd() && peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skipWs();
      Value item;
      if (!parseValue(item, depth + 1)) return false;
      out.items.push_back(std::move(item));
      skipWs();
      if (atEnd()) return fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      return expect(']');
    }
  }

  bool parseHex4(std::uint32_t& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return fail("bad \\u escape digit");
      }
    }
    return true;
  }

  void appendUtf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool parseString(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (true) {
      if (atEnd()) return fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (atEnd()) return fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          std::uint32_t cp = 0;
          if (!parseHex4(cp)) return false;
          // Surrogate pair: a high surrogate must be followed by \uDC00..
          if (cp >= 0xD800 && cp <= 0xDBFF &&
              text_.substr(pos_, 2) == "\\u") {
            const std::size_t save = pos_;
            pos_ += 2;
            std::uint32_t lo = 0;
            if (!parseHex4(lo)) return false;
            if (lo >= 0xDC00 && lo <= 0xDFFF) {
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              pos_ = save;  // lone high surrogate; keep it as-is
            }
          }
          appendUtf8(out, cp);
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
  }

  bool parseNumber(Value& out) {
    const std::size_t start = pos_;
    if (!atEnd() && peek() == '-') ++pos_;
    bool sawDigit = false;
    while (!atEnd() && std::isdigit(static_cast<unsigned char>(peek()))) {
      ++pos_;
      sawDigit = true;
    }
    bool integral = true;
    if (!atEnd() && peek() == '.') {
      integral = false;
      ++pos_;
      while (!atEnd() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
        sawDigit = true;
      }
    }
    if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
      integral = false;
      ++pos_;
      if (!atEnd() && (peek() == '+' || peek() == '-')) ++pos_;
      while (!atEnd() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
      }
    }
    if (!sawDigit) return fail("invalid number");
    const std::string token(text_.substr(start, pos_ - start));
    out.kind = Value::Kind::kNumber;
    errno = 0;
    out.number = std::strtod(token.c_str(), nullptr);
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno != ERANGE && end != nullptr && *end == '\0') {
        out.integer = v;
        out.isInteger = true;
      }
    }
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

ParseResult parse(std::string_view textIn) { return Parser(textIn).run(); }

void appendString(std::string& out, std::string_view s) {
  out += '"';
  // Unescaped runs are appended whole; only the escapes go byte by byte.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char* escape = nullptr;
    switch (c) {
      case '"': escape = "\\\""; break;
      case '\\': escape = "\\\\"; break;
      case '\n': escape = "\\n"; break;
      case '\r': escape = "\\r"; break;
      case '\t': escape = "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) continue;
    }
    out.append(s.data() + run, i - run);
    run = i + 1;
    if (escape != nullptr) {
      out += escape;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    }
  }
  out.append(s.data() + run, s.size() - run);
  out += '"';
}

void writeString(std::ostream& os, std::string_view s) { os << escaped(s); }

std::string escaped(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  appendString(out, s);
  return out;
}

}  // namespace paws::obs::json
