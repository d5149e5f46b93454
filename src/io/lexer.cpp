#include "io/lexer.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace paws::io {

LexResult lex(std::string_view source) {
  LexResult result;
  if (source.size() > kMaxSourceBytes) {
    result.errors.push_back(LexError{
        "input exceeds " + std::to_string(kMaxSourceBytes) + " bytes", 1, 1});
    result.tokens.push_back(Token{TokenKind::kEof, {}, 1, 1});
    return result;
  }
  // Real documents average about four bytes per token; a flood of
  // one-byte tokens stops at the cap, so the reservation does too.
  result.tokens.reserve(std::min(source.size() / 4 + 2, kMaxTokens + 1));

  const std::size_t size = source.size();
  int line = 1;
  std::size_t lineStart = 0;  // offset of the current line's first byte
  std::size_t i = 0;
  const auto columnAt = [&](std::size_t offset) {
    return static_cast<int>(offset - lineStart) + 1;
  };

  // Oversized tokens / token floods abort the scan with one structured
  // error; the truncated token list still ends in kEof so a parser that
  // ignores lex errors cannot run off the end.
  const auto tokenTooLong = [&](std::size_t length, int tcol) {
    if (length <= kMaxTokenLength) return false;
    result.errors.push_back(LexError{
        "token exceeds " + std::to_string(kMaxTokenLength) + " characters",
        line, tcol});
    return true;
  };

  while (i < size) {
    // A flood of garbage bytes must not become a flood of allocations:
    // past the error cap the rest of the input is not worth diagnosing.
    if (result.errors.size() >= kMaxLexErrors) {
      result.errors.push_back(LexError{"too many lexical errors; giving up",
                                       line, columnAt(i)});
      break;
    }
    const char c = source[i];
    if (c == '\n') {
      ++line;
      lineStart = ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
      continue;
    }
    if (c == '#') {  // comment to end of line
      const std::size_t eol = source.find('\n', i);
      i = eol == std::string_view::npos ? size : eol;
      continue;
    }

    const int tcol = columnAt(i);
    if (result.tokens.size() >= kMaxTokens) {
      result.errors.push_back(LexError{
          "input exceeds " + std::to_string(kMaxTokens) + " tokens", line,
          tcol});
      break;
    }
    const std::size_t begin = i;
    TokenKind kind;
    if (c == '{' || c == '}') {
      kind = c == '{' ? TokenKind::kLBrace : TokenKind::kRBrace;
      ++i;
    } else if (c == '-' && i + 1 < size && source[i + 1] == '>') {
      kind = TokenKind::kArrow;
      i += 2;
    } else if (c == '"') {
      // Strings have no escapes and do not span lines.
      const std::size_t close = source.find_first_of("\"\n", i + 1);
      if (close == std::string_view::npos || source[close] == '\n') {
        result.errors.push_back(LexError{"unterminated string", line, tcol});
        i = close == std::string_view::npos ? size : close;
        continue;
      }
      i = close + 1;
      if (tokenTooLong(close - begin - 1, tcol)) break;
      result.tokens.push_back(Token{TokenKind::kString,
                                    source.substr(begin + 1, close - begin - 1),
                                    line, tcol});
      continue;
    } else if (isDigit(c) ||
               (c == '-' && i + 1 < size && isDigit(source[i + 1]))) {
      kind = TokenKind::kNumber;
      ++i;
      bool seenDot = false;
      while (i < size &&
             (isDigit(source[i]) || (source[i] == '.' && !seenDot))) {
        seenDot = seenDot || source[i] == '.';
        ++i;
      }
    } else if (isIdentStart(c)) {
      kind = TokenKind::kIdentifier;
      while (i < size && isIdentBody(source[i])) ++i;
    } else {
      result.errors.push_back(LexError{
          std::string("unexpected character '") + c + "'", line, tcol});
      ++i;
      continue;
    }
    if (tokenTooLong(i - begin, tcol)) break;
    result.tokens.push_back(
        Token{kind, source.substr(begin, i - begin), line, tcol});
  }

  result.tokens.push_back(Token{TokenKind::kEof, {}, line, columnAt(i)});
  return result;
}

bool readInteger(std::string_view text, std::int64_t* out) {
  return std::from_chars(text.data(), text.data() + text.size(), *out).ec ==
         std::errc();
}

double readDecimal(std::string_view text) {
  double value = 0;
  if (std::from_chars(text.data(), text.data() + text.size(), value).ec ==
      std::errc::result_out_of_range) {
    // from_chars reports overflow and underflow alike, leaving the value
    // untouched; without an exponent only a zero integer part underflows.
    const std::string_view whole = text.substr(0, text.find('.'));
    return whole.find_first_not_of("-0") == std::string_view::npos
               ? 0.0
               : HUGE_VAL;
  }
  return value;
}

}  // namespace paws::io
