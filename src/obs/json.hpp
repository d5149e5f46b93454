// Minimal JSON value, parser and writer helpers for the observability
// layer: run reports (obs/report.hpp), `pawsc trace diff/summarize` over
// report files, and the bench regression gate (obs/bench_compare.hpp) all
// need to *read back* JSON the toolchain wrote, and the repo deliberately
// carries no third-party JSON dependency.
//
// Scope: full JSON syntax (objects, arrays, strings with escapes and
// \uXXXX, numbers with exponents, true/false/null) with a recursion-depth
// cap so adversarial inputs cannot blow the stack. Numbers remember
// whether they were written as integers — report fields like ts_ns and
// cost_mwt must round-trip exactly, not through a double.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace paws::obs::json {

struct Value {
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;        ///< every number, as written
  std::int64_t integer = 0; ///< exact value when isInteger (no '.', 'e')
  bool isInteger = false;
  std::string text;
  std::vector<Value> items;                          ///< arrays
  std::vector<std::pair<std::string, Value>> members; ///< objects, in order

  [[nodiscard]] bool isObject() const { return kind == Kind::kObject; }
  [[nodiscard]] bool isArray() const { return kind == Kind::kArray; }
  [[nodiscard]] bool isString() const { return kind == Kind::kString; }
  [[nodiscard]] bool isNumber() const { return kind == Kind::kNumber; }

  /// Member lookup on objects; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;

  /// Typed accessors with defaults — missing/mistyped fields read as the
  /// fallback so report parsing degrades instead of crashing.
  [[nodiscard]] std::int64_t asInt(std::int64_t fallback = 0) const;
  [[nodiscard]] std::uint64_t asUint(std::uint64_t fallback = 0) const;
  [[nodiscard]] double asDouble(double fallback = 0) const;
  [[nodiscard]] bool asBool(bool fallback = false) const;
  [[nodiscard]] std::string asString(std::string fallback = "") const;
};

struct ParseResult {
  bool ok = false;
  std::string error;  ///< "offset N: message" on failure
  Value value;
};

/// Parses one JSON document (trailing whitespace allowed, trailing junk is
/// an error). Depth-capped at 96 nested containers.
[[nodiscard]] ParseResult parse(std::string_view textIn);

/// Appends `s` as a JSON string literal (quotes included) with the
/// mandatory escapes; writeString and escaped spell the same bytes.
void appendString(std::string& out, std::string_view s);
void writeString(std::ostream& os, std::string_view s);
[[nodiscard]] std::string escaped(std::string_view s);

}  // namespace paws::obs::json
