#include "io/parser.hpp"

#include <cmath>
#include <fstream>
#include <initializer_list>
#include <sstream>

#include "base/check.hpp"
#include "io/lexer.hpp"

namespace paws::io {

std::string format(const ParseError& error) {
  std::ostringstream os;
  os << error.line << ':' << error.column << ": " << error.message;
  return os.str();
}

namespace {

/// Joins message pieces; C++20 has no string + string_view.
std::string cat(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (const std::string_view part : parts) out += part;
  return out;
}

/// Recursive-descent parser over the token stream. Errors are collected;
/// panic recovery skips to the next plausible item start. Names and
/// numbers are read as views into the source; only the names the Problem
/// keeps are copied.
class Parser {
 public:
  explicit Parser(const std::vector<Token>& tokens) : tokens_(tokens) {}

  ParseResult run() {
    ParseResult result;
    parseFile();
    result.errors = std::move(errors_);
    if (result.errors.empty()) result.problem = std::move(problem_);
    return result;
  }

 private:
  const Token& peek() const { return tokens_[pos_]; }
  const Token& next() {
    const Token& t = tokens_[pos_];
    if (tokens_[pos_].kind != TokenKind::kEof) ++pos_;
    return t;
  }
  bool at(TokenKind k) const { return peek().kind == k; }

  void error(const Token& t, std::string message) {
    if (fatal_) return;
    errors_.push_back(ParseError{std::move(message), t.line, t.column});
    if (errors_.size() >= kMaxParseErrors) {
      errors_.push_back(
          ParseError{"too many parse errors; giving up", t.line, t.column});
      fatal_ = true;
    }
  }

  /// Irrecoverable structural violation: report and stop consuming input.
  void fatal(const Token& t, std::string message) {
    error(t, std::move(message));
    fatal_ = true;
  }

  /// The next token when it is a name (identifier or string); otherwise
  /// reports it and returns nullptr.
  const Token* expectIdent(const char* what) {
    if (!at(TokenKind::kIdentifier) && !at(TokenKind::kString)) {
      error(peek(), cat({"expected ", what, ", got '", peek().text, "'"}));
      return nullptr;
    }
    return &next();
  }

  bool expectKeyword(const char* kw) {
    if (at(TokenKind::kIdentifier) && peek().text == kw) {
      next();
      return true;
    }
    error(peek(), std::string("expected '") + kw + "'");
    return false;
  }

  bool expect(TokenKind kind, const char* what) {
    if (at(kind)) {
      next();
      return true;
    }
    error(peek(), std::string("expected ") + what);
    return false;
  }

  /// NUMBER with optional W/mW suffix; defaults to watts.
  bool parsePower(Watts* out) {
    if (!at(TokenKind::kNumber)) {
      error(peek(), "expected a power value");
      return false;
    }
    const Token& num = next();
    double value = readDecimal(num.text);
    if (at(TokenKind::kIdentifier) &&
        (peek().text == "W" || peek().text == "mW")) {
      if (next().text == "mW") value /= 1000.0;
    }
    // Range-check before Watts::fromWatts: its double->int64 cast is UB
    // outside int64 range, and anything past kMaxAbsWatts would overflow
    // the milliwatt-tick energy arithmetic downstream regardless.
    if (!std::isfinite(value) || value > kMaxAbsWatts ||
        value < -kMaxAbsWatts) {
      error(num, cat({"power value '", num.text, "' is out of range"}));
      return false;
    }
    *out = Watts::fromWatts(value);
    return true;
  }

  /// NUMBER with optional 's' suffix; must be an integer tick count.
  bool parseTicks(std::int64_t* out) {
    if (!at(TokenKind::kNumber)) {
      error(peek(), "expected a time value (integer ticks)");
      return false;
    }
    const Token& num = next();
    if (num.text.find('.') != std::string_view::npos) {
      error(num,
            cat({"time values must be integral ticks, got '", num.text, "'"}));
      return false;
    }
    std::int64_t ticks = 0;
    const bool fits = readInteger(num.text, &ticks);
    if (at(TokenKind::kIdentifier) && peek().text == "s") next();
    // The explicit cap keeps every downstream Time/Duration sum far away
    // from int64 overflow.
    if (!fits || ticks > kMaxAbsTicks || ticks < -kMaxAbsTicks) {
      error(num, cat({"time value '", num.text, "' is out of range"}));
      return false;
    }
    *out = ticks;
    return true;
  }

  /// Bare integer NUMBER (no unit suffix).
  bool parseInteger(const char* what, std::int64_t* out) {
    if (!at(TokenKind::kNumber)) {
      error(peek(), std::string("expected ") + what);
      return false;
    }
    const Token& num = next();
    if (num.text.find('.') != std::string_view::npos) {
      error(num, cat({what, " must be integral, got '", num.text, "'"}));
      return false;
    }
    std::int64_t value = 0;
    if (!readInteger(num.text, &value) || value > kMaxAbsTicks ||
        value < -kMaxAbsTicks) {
      error(num, cat({"value '", num.text, "' is out of range"}));
      return false;
    }
    *out = value;
    return true;
  }

  bool lookupTask(const Token& where, TaskId* out) {
    const auto id = problem_.findTask(where.text);
    if (!id) {
      error(where, cat({"unknown task '", where.text, "'"}));
      return false;
    }
    *out = *id;
    return true;
  }

  /// name "->" name; returns both ends and the second name's token.
  bool parseTaskPair(TaskId* from, TaskId* to, const Token** second) {
    const Token* first = expectIdent("a task name");
    if (first == nullptr || !expect(TokenKind::kArrow, "'->'")) return false;
    *second = expectIdent("a task name");
    return *second != nullptr && lookupTask(*first, from) &&
           lookupTask(**second, to);
  }

  /// Problem rejects a separation from a task to itself; report it at the
  /// second endpoint instead.
  bool distinctEndpoints(std::string_view kw, TaskId from, TaskId to,
                         const Token& toToken) {
    if (from != to) return true;
    error(toToken, cat({kw, " constraint from task '", toToken.text,
                        "' to itself"}));
    return false;
  }

  /// Caps the declared constraint count (each keyword adds at most two).
  bool constraintBudgetOk(const Token& at) {
    if (problem_.constraints().size() < kMaxConstraints) return true;
    fatal(at, "too many constraints (limit " +
                  std::to_string(kMaxConstraints) + ")");
    return false;
  }

  void skipToNextItem() {
    while (!at(TokenKind::kEof) && !at(TokenKind::kRBrace)) {
      if (at(TokenKind::kIdentifier)) {
        const std::string_view t = peek().text;
        if (t == "task" || t == "resource" || t == "min" || t == "max" ||
            t == "precedes" || t == "release" || t == "deadline" ||
            t == "pin" || t == "pmax" || t == "pmin" || t == "background" ||
            t == "battery" || t == "mode") {
          return;
        }
      }
      next();
    }
  }

  void parseTask() {
    const Token* nameToken = expectIdent("a task name");
    if (nameToken == nullptr || !expect(TokenKind::kLBrace, "'{'")) return;
    const std::string_view name = nameToken->text;
    std::optional<ResourceId> resource;
    std::optional<Duration> delay;
    std::optional<Watts> power;
    const Token* powerToken = nullptr;
    std::uint8_t criticality = 0;
    while (!at(TokenKind::kRBrace) && !at(TokenKind::kEof) && !fatal_) {
      const Token* key = expectIdent("a task attribute");
      if (key == nullptr) {
        next();
        continue;
      }
      const std::string_view kw = key->text;
      if (kw == "resource") {
        const Token* rname = expectIdent("a resource name");
        if (rname == nullptr) continue;
        const auto rid = problem_.findResource(rname->text);
        if (!rid) {
          error(*key, cat({"unknown resource '", rname->text, "'"}));
          continue;
        }
        resource = *rid;
      } else if (kw == "delay") {
        std::int64_t ticks = 0;
        if (parseTicks(&ticks)) delay = Duration(ticks);
      } else if (kw == "power") {
        const Token& value = peek();
        Watts w;
        if (parsePower(&w)) {
          power = w;
          powerToken = &value;
        }
      } else if (kw == "droppable") {
        // Optional shed rank; a bare `droppable` means rank 1.
        std::int64_t rank = 1;
        if (at(TokenKind::kNumber) && !parseTicks(&rank)) continue;
        if (rank < 1 || rank > 255) {
          error(*key, "droppable rank must be in [1, 255]");
          continue;
        }
        criticality = static_cast<std::uint8_t>(rank);
      } else {
        error(*key, cat({"unknown task attribute '", kw, "'"}));
      }
    }
    expect(TokenKind::kRBrace, "'}'");
    if (!resource || !delay || !power) {
      error(peek(), cat({"task '", name,
                         "' needs resource, delay and power attributes"}));
      return;
    }
    if (delay->ticks() <= 0) {
      error(peek(), cat({"task '", name, "' needs a positive delay"}));
      return;
    }
    if (problem_.findTask(name)) {
      error(peek(), cat({"duplicate task '", name, "'"}));
      return;
    }
    if (problem_.numVertices() - 1 >= kMaxTasks) {
      fatal(peek(), "too many tasks (limit " + std::to_string(kMaxTasks) +
                        ")");
      return;
    }
    // Problem::addTask's preconditions, reported at the offending token.
    bool valid = true;
    if (name.empty()) {
      error(*nameToken, "task name must be non-empty");
      valid = false;
    }
    if (*power < Watts::zero()) {
      error(*powerToken, cat({"task '", name, "' needs a non-negative power"}));
      valid = false;
    }
    if (!valid) return;
    const TaskId id =
        problem_.addTask(std::string(name), *delay, *power, *resource);
    if (criticality > 0) problem_.setCriticality(id, criticality);
  }

  /// battery { rate POWER PERMILLE ... recoverable PERMILLE recovery POWER }
  ///
  /// Each `rate` pair declares one rate-capacity band: draws strictly above
  /// the threshold drain factor/1000 times the nominal charge. Bands must be
  /// listed with strictly increasing thresholds.
  void parseBattery(const Token& key) {
    if (!expect(TokenKind::kLBrace, "'{'")) return;
    BatteryTraits traits;
    bool bad = false;
    while (!at(TokenKind::kRBrace) && !at(TokenKind::kEof) && !fatal_) {
      const Token* attr = expectIdent("a battery attribute");
      if (attr == nullptr) {
        next();
        continue;
      }
      const std::string_view kw = attr->text;
      if (kw == "rate") {
        Watts threshold;
        if (!parsePower(&threshold)) continue;
        std::int64_t factor = 0;
        if (!parseInteger("a permille factor", &factor)) continue;
        if (threshold < Watts::zero()) {
          error(*attr, "rate band threshold must be >= 0");
          bad = true;
          continue;
        }
        if (factor < 1000 || factor > 1'000'000) {
          error(*attr, "rate factor must be in [1000, 1000000] permille");
          bad = true;
          continue;
        }
        if (traits.bands.size() >= kMaxRateBands) {
          error(*attr, "too many rate bands (limit " +
                          std::to_string(kMaxRateBands) + ")");
          bad = true;
          continue;
        }
        if (!traits.bands.empty() &&
            threshold <= traits.bands.back().threshold) {
          error(*attr, "rate band thresholds must strictly increase");
          bad = true;
          continue;
        }
        traits.bands.push_back(RateBand{threshold, factor});
      } else if (kw == "recoverable") {
        std::int64_t permille = 0;
        if (!parseInteger("a permille fraction", &permille)) continue;
        if (permille < 0 || permille > 1000) {
          error(*attr, "recoverable fraction must be in [0, 1000] permille");
          bad = true;
          continue;
        }
        traits.recoverablePermille = permille;
      } else if (kw == "recovery") {
        Watts w;
        if (!parsePower(&w)) continue;
        if (w < Watts::zero()) {
          error(*attr, "recovery rate must be >= 0");
          bad = true;
          continue;
        }
        traits.recoveryRate = w;
      } else {
        error(*attr, cat({"unknown battery attribute '", kw, "'"}));
      }
    }
    expect(TokenKind::kRBrace, "'}'");
    if (bad) return;
    if (problem_.battery().has_value()) {
      error(key, "duplicate battery declaration");
      return;
    }
    problem_.setBattery(std::move(traits));
  }

  /// mode NAME { ceiling INT pmax_scale PCT pmin_scale PCT }
  ///
  /// Modes form the escalation ladder in declaration order; ceilings must
  /// not increase down the ladder (checked by Problem::validate, reported
  /// to the caller alongside other semantic issues).
  void parseMode(const Token& key) {
    const Token* name = expectIdent("a mode name");
    if (name == nullptr || !expect(TokenKind::kLBrace, "'{'")) return;
    SystemMode mode;
    mode.name = std::string(name->text);
    bool bad = false;
    while (!at(TokenKind::kRBrace) && !at(TokenKind::kEof) && !fatal_) {
      const Token* attr = expectIdent("a mode attribute");
      if (attr == nullptr) {
        next();
        continue;
      }
      const std::string_view kw = attr->text;
      std::int64_t value = 0;
      if (kw == "ceiling") {
        if (!parseInteger("a criticality ceiling", &value)) continue;
        if (value < 0 || value > 255) {
          error(*attr, "mode ceiling must be in [0, 255]");
          bad = true;
          continue;
        }
        mode.ceiling = static_cast<std::uint8_t>(value);
      } else if (kw == "pmax_scale" || kw == "pmin_scale") {
        if (!parseInteger("a percentage", &value)) continue;
        if (value < 0 || value > 100) {
          error(*attr, "mode power scale must be in [0, 100] percent");
          bad = true;
          continue;
        }
        if (kw == "pmax_scale") {
          mode.pmaxPct = static_cast<std::uint32_t>(value);
        } else {
          mode.pminPct = static_cast<std::uint32_t>(value);
        }
      } else {
        error(*attr, cat({"unknown mode attribute '", kw, "'"}));
      }
    }
    expect(TokenKind::kRBrace, "'}'");
    if (bad) return;
    for (const SystemMode& m : problem_.modes()) {
      if (m.name == mode.name) {
        error(key, cat({"duplicate mode '", name->text, "'"}));
        return;
      }
    }
    if (problem_.modes().size() >= kMaxModes) {
      fatal(key, "too many modes (limit " + std::to_string(kMaxModes) + ")");
      return;
    }
    problem_.addMode(std::move(mode));
  }

  void parseItem() {
    const Token* keyToken = expectIdent("an item");
    if (keyToken == nullptr) {
      next();
      return;
    }
    const Token& key = *keyToken;
    const std::string_view kw = key.text;
    if (kw == "pmax") {
      Watts w;
      if (parsePower(&w)) problem_.setMaxPower(w);
    } else if (kw == "pmin") {
      Watts w;
      if (parsePower(&w)) problem_.setMinPower(w);
    } else if (kw == "background") {
      Watts w;
      if (parsePower(&w)) problem_.setBackgroundPower(w);
    } else if (kw == "resource") {
      const Token* nameToken = expectIdent("a resource name");
      if (nameToken == nullptr) return;
      const std::string_view name = nameToken->text;
      if (problem_.findResource(name)) {
        error(key, cat({"duplicate resource '", name, "'"}));
        return;
      }
      if (problem_.numResources() >= kMaxResources) {
        fatal(key, "too many resources (limit " +
                       std::to_string(kMaxResources) + ")");
        return;
      }
      if (name.empty()) {  // Problem::addResource's precondition
        error(*nameToken, "resource name must be non-empty");
        return;
      }
      problem_.addResource(std::string(name));
    } else if (kw == "task") {
      parseTask();
    } else if (kw == "battery") {
      parseBattery(key);
    } else if (kw == "mode") {
      parseMode(key);
    } else if (kw == "min" || kw == "max") {
      if (!constraintBudgetOk(key)) return;
      TaskId from, to;
      const Token* toToken = nullptr;
      if (!parseTaskPair(&from, &to, &toToken)) {
        skipToNextItem();
        return;
      }
      std::int64_t ticks = 0;
      if (!parseTicks(&ticks)) return;
      if (!distinctEndpoints(kw, from, to, *toToken)) return;
      if (kw == "min") {
        problem_.minSeparation(from, to, Duration(ticks));
      } else {
        problem_.maxSeparation(from, to, Duration(ticks));
      }
    } else if (kw == "precedes") {
      if (!constraintBudgetOk(key)) return;
      TaskId from, to;
      const Token* toToken = nullptr;
      if (!parseTaskPair(&from, &to, &toToken)) {
        skipToNextItem();
        return;
      }
      std::int64_t lag = 0;
      if (at(TokenKind::kNumber)) {
        if (!parseTicks(&lag)) return;
      }
      if (!distinctEndpoints(kw, from, to, *toToken)) return;
      problem_.precedes(from, to, Duration(lag));
    } else if (kw == "release" || kw == "deadline" || kw == "pin") {
      if (!constraintBudgetOk(key)) return;
      const Token* name = expectIdent("a task name");
      if (name == nullptr) return;
      TaskId v;
      if (!lookupTask(*name, &v)) {
        skipToNextItem();
        return;
      }
      std::int64_t ticks = 0;
      if (!parseTicks(&ticks)) return;
      if (kw == "release") {
        problem_.release(v, Time(ticks));
      } else if (kw == "deadline") {
        problem_.deadline(v, Time(ticks));
      } else {
        problem_.pin(v, Time(ticks));
      }
    } else {
      error(key, cat({"unknown item '", kw, "'"}));
      skipToNextItem();
    }
  }

  void parseFile() {
    if (!expectKeyword("problem")) return;
    const Token* name = expectIdent("a problem name");
    if (name == nullptr) return;
    problem_.setName(std::string(name->text));
    if (!expect(TokenKind::kLBrace, "'{'")) return;
    while (!at(TokenKind::kRBrace) && !at(TokenKind::kEof) && !fatal_) {
      parseItem();
    }
    if (fatal_) return;
    expect(TokenKind::kRBrace, "'}'");
    if (!at(TokenKind::kEof)) {
      error(peek(), "trailing content after problem body");
    }
  }

  const std::vector<Token>& tokens_;
  std::size_t pos_ = 0;
  Problem problem_;
  std::vector<ParseError> errors_;
  bool fatal_ = false;
};

}  // namespace

ParseResult parseProblem(std::string_view source) {
  const LexResult lexed = lex(source);
  if (!lexed.ok()) {
    ParseResult result;
    for (const LexError& e : lexed.errors) {
      result.errors.push_back(ParseError{e.message, e.line, e.column});
    }
    return result;
  }
  // Last line of defense: a Problem precondition the item-level validation
  // missed must surface as a structured error, never as an escaping
  // exception — parse errors on untrusted bytes are data, not bugs.
  try {
    return Parser(lexed.tokens).run();
  } catch (const CheckError& e) {
    ParseResult result;
    result.errors.push_back(
        ParseError{std::string("invalid problem: ") + e.what(), 1, 1});
    return result;
  }
}

ParseResult parseProblemFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ParseResult result;
    result.errors.push_back(ParseError{"cannot open file: " + path, 1, 1});
    return result;
  }
  // Reject oversized files by size before slurping them into memory.
  in.seekg(0, std::ios::end);
  const auto size = in.tellg();
  if (size >= 0 && static_cast<std::uint64_t>(size) > kMaxSourceBytes) {
    ParseResult result;
    result.errors.push_back(ParseError{
        "file exceeds " + std::to_string(kMaxSourceBytes) + " bytes: " + path,
        1, 1});
    return result;
  }
  in.seekg(0, std::ios::beg);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parseProblem(buffer.str());
}

}  // namespace paws::io
