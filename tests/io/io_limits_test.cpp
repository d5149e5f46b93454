// Regression tests for the untrusted-input limits in io/lexer.cpp and
// io/parser.cpp (grown out of the PR-5 fuzzing pass): every hostile shape
// must come back as a structured error, never an abort, uncaught throw, or
// unbounded allocation.
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "io/lexer.hpp"
#include "io/parser.hpp"
#include "io/schedule_io.hpp"

namespace paws::io {
namespace {

bool anyErrorContains(const std::vector<ParseError>& errors,
                      const std::string& needle) {
  for (const ParseError& e : errors) {
    if (e.message.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(LexerLimitsTest, OversizedSourceIsRejectedUpFront) {
  const std::string huge(kMaxSourceBytes + 1, 'x');
  const LexResult r = lex(huge);
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(r.errors.size(), 1u);
  EXPECT_NE(r.errors[0].message.find("bytes"), std::string::npos);
  ASSERT_FALSE(r.tokens.empty());
  EXPECT_EQ(r.tokens.back().kind, TokenKind::kEof);
}

TEST(LexerLimitsTest, OversizedTokenStopsTheScan) {
  const std::string source =
      "problem p { " + std::string(kMaxTokenLength + 1, 'a') + " }";
  const LexResult r = lex(source);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("token exceeds"), std::string::npos);
  EXPECT_EQ(r.tokens.back().kind, TokenKind::kEof);
}

TEST(LexerLimitsTest, OversizedStringAndNumberAreAlsoCapped) {
  const std::string longString =
      "\"" + std::string(kMaxTokenLength + 1, 's') + "\"";
  EXPECT_FALSE(lex(longString).ok());
  const std::string longNumber(kMaxTokenLength + 1, '7');
  EXPECT_FALSE(lex(longNumber).ok());
}

TEST(LexerLimitsTest, TokenFloodStopsAtTheBudget) {
  // 1M+ one-byte tokens in well under kMaxSourceBytes.
  std::string source;
  source.reserve((kMaxTokens + 2) * 2);
  for (std::size_t i = 0; i < kMaxTokens + 2; ++i) source += "a ";
  const LexResult r = lex(source);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("tokens"), std::string::npos);
  EXPECT_LE(r.tokens.size(), kMaxTokens + 1);  // + the closing kEof
  EXPECT_EQ(r.tokens.back().kind, TokenKind::kEof);
}

TEST(LexerLimitsTest, GarbageFloodStopsAtTheErrorCap) {
  const std::string garbage(100000, '@');
  const LexResult r = lex(garbage);
  EXPECT_FALSE(r.ok());
  EXPECT_LE(r.errors.size(), kMaxLexErrors + 1);
  EXPECT_NE(r.errors.back().message.find("giving up"), std::string::npos);
}

TEST(ParserLimitsTest, OutOfRangeTicksAreStructuredErrors) {
  const ParseResult r = parseProblem(
      "problem p { resource r "
      "task a { resource r delay 99999999999999999999999 power 1W } }");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(anyErrorContains(r.errors, "out of range"));
}

TEST(ParserLimitsTest, LargeButBoundedTicksJustOverTheCapAreRejected) {
  const ParseResult r = parseProblem(
      "problem p { resource r "
      "task a { resource r delay 1000000000000001 power 1W } }");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(anyErrorContains(r.errors, "out of range"));
}

TEST(ParserLimitsTest, OutOfRangeWattsAreStructuredErrors) {
  const ParseResult r = parseProblem(
      "problem p { pmax 99999999999999999999999999999999999999999W }");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(anyErrorContains(r.errors, "out of range"));
}

TEST(ParserLimitsTest, DecimalsOutsideADoubleReadAsStrtodReadThem) {
  // 400 digits overflow a double: out of range, as strtod's HUGE_VAL was.
  std::string source = "problem p { pmax ";
  source.append(400, '9').append("W }");
  const ParseResult huge = parseProblem(source);
  EXPECT_FALSE(huge.ok());
  EXPECT_TRUE(anyErrorContains(huge.errors, "out of range"));
  // A value below the smallest double underflows to 0, as in strtod.
  source = "problem p { background 0.";
  source.append(400, '0').append("1W }");
  const ParseResult tiny = parseProblem(source);
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(tiny.problem->backgroundPower(), Watts::zero());
}

TEST(ParserLimitsTest, SelfLoopSeparationIsAStructuredError) {
  // Used to escape as a CheckError from the constraint graph layer.
  const ParseResult r = parseProblem(
      "problem p { resource r task a { resource r delay 1 power 1W } "
      "min a -> a 5 }");
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.errors.empty());
}

// Problem's own preconditions (model/problem.cpp) are checked by the
// parser first: each is an item error at the offending token, and the
// parse goes on, so later mistakes in the same file are reported too.

/// No error may come from the catch-all that turns an escaped CheckError
/// into "invalid problem: PAWS_CHECK failed ... at <source path>".
void expectNoCheckText(const ParseResult& r) {
  for (const ParseError& e : r.errors) {
    EXPECT_EQ(e.message.find("PAWS_CHECK"), std::string::npos) << format(e);
    EXPECT_EQ(e.message.find("invalid problem"), std::string::npos)
        << format(e);
  }
}

TEST(ParserLimitsTest, NegativeTaskPowerIsPositionedAtItsValue) {
  const ParseResult r = parseProblem(
      "problem p {\n"
      "  resource r\n"
      "  task a { resource r delay 1 power -2.5W }\n"
      "  deadline nosuch 5\n"
      "}\n");
  ASSERT_EQ(r.errors.size(), 2u);
  EXPECT_EQ(format(r.errors[0]), "3:37: task 'a' needs a non-negative power");
  EXPECT_EQ(format(r.errors[1]), "4:12: unknown task 'nosuch'");
  expectNoCheckText(r);
}

TEST(ParserLimitsTest, EmptyResourceNameIsPositionedAtTheName) {
  const ParseResult r = parseProblem(
      "problem p {\n"
      "  resource \"\"\n"
      "  resource r\n"
      "  task a { resource r delay 0 power 1W }\n"
      "}\n");
  ASSERT_EQ(r.errors.size(), 2u);
  EXPECT_EQ(format(r.errors[0]), "2:12: resource name must be non-empty");
  EXPECT_EQ(format(r.errors[1]), "5:1: task 'a' needs a positive delay");
  expectNoCheckText(r);
}

TEST(ParserLimitsTest, EmptyTaskNameIsPositionedAtTheName) {
  const ParseResult r = parseProblem(
      "problem p {\n"
      "  resource r\n"
      "  task \"\" { resource r delay 1 power 1W }\n"
      "  task b { resource r delay 1 power 1W }\n"
      "  min \"\" -> b 1\n"
      "}\n");
  ASSERT_EQ(r.errors.size(), 2u);
  EXPECT_EQ(format(r.errors[0]), "3:8: task name must be non-empty");
  EXPECT_EQ(format(r.errors[1]), "5:7: unknown task ''");
  expectNoCheckText(r);
}

TEST(ParserLimitsTest, SelfSeparationsArePositionedAtTheSecondName) {
  const ParseResult r = parseProblem(
      "problem p {\n"
      "  resource r\n"
      "  task a { resource r delay 1 power 1W }\n"
      "  min a -> a 5\n"
      "  max a -> a 9\n"
      "  precedes a -> a\n"
      "  precedes a -> a 2\n"
      "  bogus\n"
      "}\n");
  ASSERT_EQ(r.errors.size(), 5u);
  EXPECT_EQ(format(r.errors[0]),
            "4:12: min constraint from task 'a' to itself");
  EXPECT_EQ(format(r.errors[1]),
            "5:12: max constraint from task 'a' to itself");
  EXPECT_EQ(format(r.errors[2]),
            "6:17: precedes constraint from task 'a' to itself");
  EXPECT_EQ(format(r.errors[3]),
            "7:17: precedes constraint from task 'a' to itself");
  EXPECT_EQ(format(r.errors[4]), "8:3: unknown item 'bogus'");
  expectNoCheckText(r);
}

TEST(ParserLimitsTest, OneRunReportsEveryPreconditionAndParseError) {
  // The three mistakes of one file: a negative power, an unknown
  // resource and a bogus item — three errors, not one.
  const ParseResult r = parseProblem(
      "problem p {\n"
      "  resource r\n"
      "  task a { resource r delay 1 power -1W }\n"
      "  task b { resource nosuch delay 1 power 1W }\n"
      "  frobnicate 3\n"
      "}\n");
  ASSERT_EQ(r.errors.size(), 4u);
  EXPECT_EQ(format(r.errors[0]), "3:37: task 'a' needs a non-negative power");
  EXPECT_EQ(format(r.errors[1]), "4:12: unknown resource 'nosuch'");
  EXPECT_EQ(format(r.errors[2]),
            "5:3: task 'b' needs resource, delay and power attributes");
  EXPECT_EQ(format(r.errors[3]), "5:3: unknown item 'frobnicate'");
  expectNoCheckText(r);
}

TEST(ParserLimitsTest, TaskCountIsCapped) {
  std::string source = "problem p { resource r\n";
  for (std::size_t i = 0; i <= kMaxTasks; ++i) {
    source += "task t" + std::to_string(i) +
              " { resource r delay 1 power 1W }\n";
  }
  source += "}";
  const ParseResult r = parseProblem(source);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(anyErrorContains(r.errors, "tasks"));
}

TEST(ParserLimitsTest, ConstraintCountIsCapped) {
  std::string source =
      "problem p { resource r "
      "task a { resource r delay 1 power 1W } "
      "task b { resource r delay 1 power 1W }\n";
  for (std::size_t i = 0; i <= kMaxConstraints; ++i) {
    source += "min a -> b 1\n";
  }
  source += "}";
  const ParseResult r = parseProblem(source);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(anyErrorContains(r.errors, "constraints"));
}

TEST(ParserLimitsTest, ErrorFloodStopsAtTheCap) {
  // Each line re-syncs at the `deadline` keyword and fails on the unknown
  // task, so every line is one error (a bare garbage token would be
  // swallowed by a single skip-to-next-item recovery).
  std::string source = "problem p {\n";
  for (int i = 0; i < 500; ++i) source += "deadline zzz 1\n";
  source += "}";
  const ParseResult r = parseProblem(source);
  EXPECT_FALSE(r.ok());
  EXPECT_LE(r.errors.size(), kMaxParseErrors + 1);
  EXPECT_TRUE(anyErrorContains(r.errors, "giving up"));
}

TEST(ParserLimitsTest, OversizedFileIsRejectedBeforeSlurping) {
  const std::string path = testing::TempDir() + "paws_oversized.paws";
  {
    std::ofstream out(path, std::ios::binary);
    const std::string chunk(1 << 20, '#');  // comments: cheap to generate
    for (std::size_t written = 0; written <= kMaxSourceBytes;
         written += chunk.size()) {
      out << chunk;
    }
  }
  const ParseResult r = parseProblemFile(path);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(anyErrorContains(r.errors, "bytes"));
  std::remove(path.c_str());
}

TEST(ScheduleIoLimitsTest, OutOfRangeStartTimesAreStructuredErrors) {
  const ParseResult problem = parseProblem(
      "problem p { resource r task a { resource r delay 1 power 1W } }");
  ASSERT_TRUE(problem.ok());
  const ScheduleParseResult r = parseSchedule(
      "schedule s of p { at a 99999999999999999999999 }", *problem.problem);
  EXPECT_FALSE(r.ok());
  bool found = false;
  for (const ParseError& e : r.errors) {
    found = found || e.message.find("out of range") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace paws::io
