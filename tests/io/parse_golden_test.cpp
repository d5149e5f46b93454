// Parse goldens: the problem and schedule parsers must answer every input
// exactly as the string-copying lexer and parser of commit 798ae98 did.
//
// The inputs are every document in fuzz/corpus/{parser,schedule_io} and
// examples/data, plus 2000 seeded byte mutations of them. For each input
// tests/io/golden/parse_answers.txt pins a digest of the whole answer:
// whether the parse succeeded, every error's (message, line, column) and,
// on success, problemToText or the schedule's label and starts. Inputs
// whose recorded answer was the catch-all "invalid problem: PAWS_CHECK
// failed ..." (a Problem precondition escaping the item checks; its text
// carried a build path) are marked `check` and not compared: they must
// now answer with positioned item errors instead.
//
// The golden file is written, not compared, when PAWS_RECORD_GOLDEN names
// an output path; regenerate it only for an intended change of answers,
// or after adding a corpus or example file (then the diff may only add
// lines).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/hash.hpp"
#include "io/parser.hpp"
#include "io/schedule_io.hpp"
#include "io/writer.hpp"

namespace paws::io {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kProblemMutations = 1700;
constexpr std::size_t kScheduleMutations = 300;

/// The fixture problem the schedule corpus is written against (the same
/// one fuzz/fuzz_schedule_io.cpp uses).
const Problem& probeProblem() {
  static const Problem problem = [] {
    const ParseResult r = parseProblem(
        "problem probe {\n"
        "  pmax 10W\n"
        "  pmin 1W\n"
        "  resource cpu\n"
        "  resource radio\n"
        "  task warmup  { resource cpu   delay 5 power 2W }\n"
        "  task sample  { resource cpu   delay 7 power 4W }\n"
        "  task downlink{ resource radio delay 4 power 6W }\n"
        "  precedes warmup -> sample\n"
        "  precedes sample -> downlink 2\n"
        "  deadline downlink 40\n"
        "}\n");
    EXPECT_TRUE(r.ok());
    return *r.problem;
  }();
  return problem;
}

struct Document {
  std::string name;
  std::string text;
};

std::vector<Document> readDir(const fs::path& dir) {
  std::vector<Document> docs;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    docs.push_back({dir.filename().string() + "/" +
                        entry.path().filename().string(),
                    text.str()});
  }
  std::sort(docs.begin(), docs.end(), [](const Document& a, const Document& b) {
    return a.name < b.name;
  });
  return docs;
}

/// splitmix64: a fixed, platform-independent stream per seed.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return n == 0 ? 0 : next() % n; }
};

/// Offset of a random occurrence of `needle` in `text`, or npos.
std::size_t pick(const std::string& text, std::string_view needle, Rng& rng) {
  std::vector<std::size_t> at;
  for (std::size_t p = text.find(needle); p != std::string::npos;
       p = text.find(needle, p + 1)) {
    at.push_back(p);
  }
  return at.empty() ? std::string::npos : at[rng.below(at.size())];
}

/// One to four edits: byte flips, deletions, insertions of raw bytes or of
/// grammar fragments, duplicated chunks, a negated power, and a separation
/// turned onto its own source task.
std::string mutate(std::string text, std::uint64_t seed) {
  static const char* const kFragments[] = {
      " ",        "\n",         "\"",        "\"\"",     "{",
      "}",        "->",         "-",         "#",        ".",
      "0",        "-7",         "99999999999999999999",  "1e5",
      "W",        "mW",         "s",         "task",     "resource",
      "min",      "max",        "precedes",  "release",  "deadline",
      "pin",      "power -1W",  "power -0.0004W",        "battery",
      "mode",     "droppable",  "\t",        "\r",       "@",
      "\xff",     "resource \"\"",           "task \"\" { }"};
  Rng rng{seed};
  const std::size_t edits = 1 + rng.below(4);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t pos = rng.below(text.size() + 1);
    // The two targeted edits are rare: most answers stay comparable.
    const std::size_t op = rng.below(32);
    switch (op < 30 ? op % 5 : op - 25) {
      case 0:
        if (pos < text.size()) text[pos] = static_cast<char>(rng.below(256));
        break;
      case 1:
        text.erase(std::min(pos, text.size()), 1 + rng.below(8));
        break;
      case 2:
        text.insert(pos, 1, static_cast<char>(rng.below(256)));
        break;
      case 3:
        text.insert(pos, kFragments[rng.below(std::size(kFragments))]);
        break;
      case 4: {
        const std::size_t from = rng.below(text.size() + 1);
        const std::string chunk = text.substr(from, 1 + rng.below(32));
        text.insert(pos, chunk);
        break;
      }
      case 5:
        if (const std::size_t at = pick(text, "power ", rng);
            at != std::string::npos) {
          text.insert(at + 6, "-");
        }
        break;
      default:
        if (const std::size_t at = pick(text, " -> ", rng);
            at != std::string::npos) {
          const std::size_t fromBegin = text.rfind(' ', at - 1) + 1;
          const std::size_t toEnd = text.find_first_of(" \n", at + 4);
          const std::string from = text.substr(fromBegin, at - fromBegin);
          text.replace(at + 4, toEnd - (at + 4), from);
        }
        break;
    }
  }
  return text;
}

struct Input {
  std::string name;
  bool schedule = false;
  std::string text;
};

std::vector<Input> goldenInputs() {
  const fs::path root = PAWS_SOURCE_DIR;
  std::vector<Document> problems = readDir(root / "fuzz/corpus/parser");
  for (Document& d : readDir(root / "examples/data")) {
    problems.push_back(std::move(d));
  }
  const std::vector<Document> schedules =
      readDir(root / "fuzz/corpus/schedule_io");

  std::vector<Input> inputs;
  for (const Document& d : problems) inputs.push_back({d.name, false, d.text});
  for (const Document& d : schedules) inputs.push_back({d.name, true, d.text});
  for (std::size_t i = 0; i < kProblemMutations; ++i) {
    const Document& d = problems[i % problems.size()];
    inputs.push_back({d.name + "#" + std::to_string(i), false,
                      mutate(d.text, 0x70617273ull + i)});
  }
  for (std::size_t i = 0; i < kScheduleMutations; ++i) {
    const Document& d = schedules[i % schedules.size()];
    inputs.push_back({d.name + "#" + std::to_string(i), true,
                      mutate(d.text, 0x73636865ull + i)});
  }
  return inputs;
}

void appendErrors(std::string& record, const std::vector<ParseError>& errors) {
  for (const ParseError& e : errors) record += format(e) + "\n";
}

/// The whole answer to one input, as bytes.
struct Answer {
  std::string record;
  std::vector<ParseError> errors;
};

Answer answer(const Input& input) {
  Answer a;
  if (input.schedule) {
    const ScheduleParseResult r = parseSchedule(input.text, probeProblem());
    a.record = r.ok() ? "ok\n" : "fail\n";
    appendErrors(a.record, r.errors);
    if (r.ok()) {
      a.record += r.label + "\n" + r.problemName + "\n";
      for (TaskId v : probeProblem().taskIds()) {
        a.record += std::to_string(r.schedule->start(v).ticks()) + "\n";
      }
    }
    a.errors = r.errors;
    return a;
  }
  const ParseResult r = parseProblem(input.text);
  a.record = r.ok() ? "ok\n" : "fail\n";
  appendErrors(a.record, r.errors);
  if (r.ok()) a.record += problemToText(*r.problem);
  a.errors = r.errors;
  return a;
}

bool tookCheckPath(const std::vector<ParseError>& errors) {
  return errors.size() == 1 &&
         errors[0].message.rfind("invalid problem: ", 0) == 0 &&
         errors[0].message.find("PAWS_CHECK") != std::string::npos;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

const char* const kGolden = PAWS_TEST_DATA_DIR "/io/golden/parse_answers.txt";

TEST(ParseGoldenTest, AnswersMatchTheCopyingParser) {
  const std::vector<Input> inputs = goldenInputs();
  ASSERT_GT(inputs.size(), kProblemMutations + kScheduleMutations);

  if (const char* out = std::getenv("PAWS_RECORD_GOLDEN")) {
    std::ofstream golden(out);
    for (const Input& input : inputs) {
      const Answer a = answer(input);
      golden << input.name << ' '
             << (tookCheckPath(a.errors) ? std::string("check")
                                         : hex(fnv1a64(a.record)))
             << '\n';
    }
    GTEST_SKIP() << "recorded " << inputs.size() << " answers to " << out;
  }

  std::map<std::string, std::string> expected;
  std::ifstream golden(kGolden);
  ASSERT_TRUE(golden) << kGolden;
  std::string name, digest;
  while (golden >> name >> digest) expected[name] = digest;
  ASSERT_EQ(expected.size(), inputs.size());

  std::size_t compared = 0, positioned = 0;
  for (const Input& input : inputs) {
    const auto it = expected.find(input.name);
    ASSERT_NE(it, expected.end()) << input.name;
    const Answer a = answer(input);
    if (it->second != "check") {
      EXPECT_EQ(hex(fnv1a64(a.record)), it->second)
          << input.name << " now answers:\n" << a.record;
      ++compared;
      continue;
    }
    // The recorded answer was the unpositioned catch-all: the input must
    // now fail with item errors, none of them from a PAWS_CHECK, and one
    // of them the positioned form of the precondition.
    bool precondition = false;
    for (const ParseError& e : a.errors) {
      EXPECT_EQ(e.message.find("PAWS_CHECK"), std::string::npos)
          << input.name << ": " << format(e);
      for (const char* fixed :
           {"must be non-empty", "non-negative power", "to itself"}) {
        precondition =
            precondition || e.message.find(fixed) != std::string::npos;
      }
    }
    EXPECT_TRUE(precondition) << input.name << " now answers:\n" << a.record;
    ++positioned;
  }
  EXPECT_GT(compared, inputs.size() * 4 / 5);
  EXPECT_GT(positioned, 0u) << "the mutations should reach the fixed paths";
}

}  // namespace
}  // namespace paws::io
