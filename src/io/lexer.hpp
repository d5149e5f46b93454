// Lexer for the .paws problem-description format.
//
// Token kinds are deliberately few: identifiers/keywords, quoted strings,
// numbers (integer or decimal, with an optional unit suffix glued on by the
// parser), punctuation ({ } ->), and end-of-file. '#' starts a comment that
// runs to end of line. Every token carries its 1-based line and column for
// parser diagnostics.
//
// Lifetime: a token's text is a view into the source passed to lex(), not
// a copy. Strings have no escapes and never span lines, so the view is
// exactly the token's text; the tokens (and any view taken from them) are
// valid only while that source buffer is alive and unmodified.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace paws::io {

enum class TokenKind : std::uint8_t {
  kIdentifier,  // problem, task, resource, min, names, unit suffixes...
  kString,      // "quoted name"
  kNumber,      // 42, 14.9, -5
  kLBrace,
  kRBrace,
  kArrow,  // ->
  kEof,
};

struct Token {
  TokenKind kind;
  std::string_view text;  // raw text (without quotes for strings)
  int line = 1;
  int column = 1;
};

struct LexError {
  std::string message;
  int line = 1;
  int column = 1;
};

struct LexResult {
  std::vector<Token> tokens;  // always ends with kEof on success
  std::vector<LexError> errors;
  [[nodiscard]] bool ok() const { return errors.empty(); }
};

// Input limits (documented in docs/format.md). Untrusted sources hit a
// structured LexError instead of unbounded allocation: the largest real
// instance in this repo is ~4 KB, so these bounds are ~3 orders of
// magnitude of headroom, not a constraint anyone will meet honestly.
inline constexpr std::size_t kMaxSourceBytes = 8u << 20;  // 8 MiB
inline constexpr std::size_t kMaxTokenLength = 4096;      // per token text
inline constexpr std::size_t kMaxTokens = 1u << 20;       // ~1M tokens
inline constexpr std::size_t kMaxLexErrors = 64;  // then the scan stops

// Character classes, ASCII only (the same in every locale). The writer
// uses them to decide which names it may print bare.
[[nodiscard]] constexpr bool isDigit(char c) { return c >= '0' && c <= '9'; }
[[nodiscard]] constexpr bool isIdentStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
[[nodiscard]] constexpr bool isIdentBody(char c) {
  return isIdentStart(c) || isDigit(c) || c == '.';
}

LexResult lex(std::string_view source);

/// Reads an integral kNumber token (`-?digits`) as strtoll would; false
/// when the value does not fit an int64.
[[nodiscard]] bool readInteger(std::string_view text, std::int64_t* out);
/// Reads a kNumber token (`-?digits[.digits]`) as strtod would: HUGE_VAL
/// when it overflows a double, 0 when it underflows.
[[nodiscard]] double readDecimal(std::string_view text);

}  // namespace paws::io
