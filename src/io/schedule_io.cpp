#include "io/schedule_io.hpp"

#include <charconv>
#include <ostream>

#include "io/lexer.hpp"
#include "io/parser.hpp"
#include "io/writer.hpp"

namespace paws::io {

ScheduleParseResult parseSchedule(std::string_view source,
                                  const Problem& problem) {
  ScheduleParseResult result;
  const LexResult lexed = lex(source);
  for (const LexError& e : lexed.errors) {
    result.errors.push_back(ParseError{e.message, e.line, e.column});
  }
  if (!lexed.ok()) return result;

  const std::vector<Token>& ts = lexed.tokens;
  std::size_t pos = 0;
  const auto peek = [&]() -> const Token& { return ts[pos]; };
  const auto next = [&]() -> const Token& {
    const Token& t = ts[pos];
    if (t.kind != TokenKind::kEof) ++pos;
    return t;
  };
  const auto fail = [&](const Token& t, std::string message) {
    result.errors.push_back(ParseError{std::move(message), t.line, t.column});
  };

  const auto expectName = [&](const char* what, std::string_view* out) {
    if (peek().kind != TokenKind::kIdentifier &&
        peek().kind != TokenKind::kString) {
      fail(peek(), std::string("expected ") + what);
      return false;
    }
    *out = next().text;
    return true;
  };

  std::string_view kw;
  if (!expectName("'schedule'", &kw) || kw != "schedule") {
    if (kw != "schedule") fail(ts[0], "document must start with 'schedule'");
    return result;
  }
  std::string_view name;
  if (!expectName("a schedule label", &name)) return result;
  result.label = name;
  if (!expectName("'of'", &kw) || kw != "of") {
    fail(peek(), "expected 'of <problem name>'");
    return result;
  }
  if (!expectName("a problem name", &name)) return result;
  result.problemName = name;
  if (result.problemName != problem.name()) {
    fail(peek(), "schedule is for problem '" + result.problemName +
                     "', not '" + problem.name() + "'");
    return result;
  }
  if (peek().kind != TokenKind::kLBrace) {
    fail(peek(), "expected '{'");
    return result;
  }
  next();

  std::vector<Time> starts(problem.numVertices(), Time::zero());
  std::vector<bool> assigned(problem.numVertices(), false);
  assigned[kAnchorTask.index()] = true;

  while (peek().kind != TokenKind::kRBrace &&
         peek().kind != TokenKind::kEof) {
    const Token& at = peek();
    std::string_view item;
    if (!expectName("'at'", &item)) {
      next();
      continue;
    }
    if (item != "at") {
      fail(at, "expected 'at <task> <time>'");
      continue;
    }
    const Token& nameTok = peek();
    std::string_view taskName;
    if (!expectName("a task name", &taskName)) continue;
    const auto id = problem.findTask(taskName);
    if (!id) {
      fail(nameTok, "unknown task '" + std::string(taskName) + "'");
      continue;
    }
    if (peek().kind != TokenKind::kNumber) {
      fail(peek(), "expected a start time");
      continue;
    }
    const Token& num = next();
    if (num.text.find('.') != std::string_view::npos) {
      fail(num, "start times are integral ticks");
      continue;
    }
    if (peek().kind == TokenKind::kIdentifier && peek().text == "s") next();
    if (assigned[id->index()]) {
      fail(nameTok, "task '" + std::string(taskName) + "' assigned twice");
      continue;
    }
    std::int64_t ticks = 0;
    // Same range discipline as parseTicks in parser.cpp: an untrusted
    // start time must not push profile/longest-path sums near overflow.
    if (!readInteger(num.text, &ticks) || ticks > kMaxAbsTicks ||
        ticks < -kMaxAbsTicks) {
      fail(num, "start time '" + std::string(num.text) + "' is out of range");
      continue;
    }
    assigned[id->index()] = true;
    starts[id->index()] = Time(ticks);
  }
  if (peek().kind == TokenKind::kRBrace) next();

  for (TaskId v : problem.taskIds()) {
    if (!assigned[v.index()]) {
      fail(ts.back(), "task '" + problem.task(v).name + "' has no start");
    }
  }
  if (!result.errors.empty()) return result;
  result.schedule = Schedule(&problem, std::move(starts));
  return result;
}

void writeSchedule(std::ostream& os, const Schedule& schedule,
                   std::string_view label) {
  os << scheduleToText(schedule, label);
}

std::string scheduleToText(const Schedule& schedule, std::string_view label) {
  // Every reply renders this text, so it is built with plain appends.
  const Problem& p = schedule.problem();
  std::string out;
  out.reserve(32 + label.size() + p.name().size() + 24 * p.numTasks());
  out += "schedule \"";
  out += label;
  out += "\" of \"";
  out += p.name();
  out += "\" {\n";
  char digits[24];
  for (std::size_t i = 1; i < p.numVertices(); ++i) {
    const TaskId v(static_cast<std::uint32_t>(i));
    out += "  at ";
    appendNameToken(out, p.task(v).name);
    out += ' ';
    const auto end =
        std::to_chars(digits, digits + sizeof digits, schedule.start(v).ticks())
            .ptr;
    out.append(digits, end);
    out += '\n';
  }
  out += "}\n";
  return out;
}

}  // namespace paws::io
