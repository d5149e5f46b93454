#include "cache/canonical.hpp"

#include <gtest/gtest.h>

#include "base/hash.hpp"
#include "base/units.hpp"
#include "io/parser.hpp"
#include "io/writer.hpp"
#include "model/paper_example.hpp"
#include "model/problem.hpp"

namespace paws::cache {
namespace {

using namespace paws::literals;

/// Two spellings of the same three-task problem: declarations permuted
/// (resources, tasks and constraints each in a different order).
Problem spellingA() {
  Problem p("perm");
  const ResourceId cpu = p.addResource("cpu");
  const ResourceId radio = p.addResource("radio");
  const TaskId a = p.addTask("a", 3_s, 2_W, cpu);
  const TaskId b = p.addTask("b", 4_s, 3_W, radio);
  const TaskId c = p.addTask("c", 2_s, 1_W, cpu);
  p.minSeparation(a, b, 2_s);
  p.maxSeparation(a, c, 9_s);
  p.setMaxPower(6_W);
  p.setMinPower(2_W);
  return p;
}

Problem spellingB() {
  Problem p("perm");
  const ResourceId radio = p.addResource("radio");
  const ResourceId cpu = p.addResource("cpu");
  const TaskId c = p.addTask("c", 2_s, 1_W, cpu);
  const TaskId b = p.addTask("b", 4_s, 3_W, radio);
  const TaskId a = p.addTask("a", 3_s, 2_W, cpu);
  p.setMinPower(2_W);
  p.setMaxPower(6_W);
  p.maxSeparation(a, c, 9_s);
  p.minSeparation(a, b, 2_s);
  return p;
}

TEST(CanonicalTest, DeclarationOrderInvariant) {
  const CanonicalForm fa = canonicalize(spellingA());
  const CanonicalForm fb = canonicalize(spellingB());
  EXPECT_EQ(fa.text, fb.text);
  EXPECT_EQ(fa.hash, fb.hash);
  EXPECT_EQ(fa.structuralHash, fb.structuralHash);
}

TEST(CanonicalTest, CommentAndWhitespaceInvariant) {
  const char* terse =
      "problem \"w\" { pmax 5W pmin 1W resource r "
      "task a { resource r delay 2 power 1W } "
      "task b { resource r delay 3 power 2W } min a -> b 1 }";
  const char* ornate =
      "# a comment\n"
      "problem \"w\" {\n"
      "  pmin 1W   # attribute order flipped\n"
      "  pmax 5W\n"
      "  resource r\n\n"
      "  task b { power 2W delay 3 resource r }  # fields reordered\n"
      "  task a { delay 2 resource r power 1W }\n"
      "  min a -> b 1\n"
      "}\n";
  io::ParseResult pa = io::parseProblem(terse);
  io::ParseResult pb = io::parseProblem(ornate);
  ASSERT_TRUE(pa.ok());
  ASSERT_TRUE(pb.ok());
  EXPECT_EQ(canonicalize(*pa.problem).hash, canonicalize(*pb.problem).hash);
}

TEST(CanonicalTest, SemanticEditsChangeTheHash) {
  const CanonicalForm base = canonicalize(spellingA());
  {
    Problem p = spellingA();
    p.setMaxPower(7_W);  // limits change: full hash moves ...
    const CanonicalForm f = canonicalize(p);
    EXPECT_NE(f.hash, base.hash);
    // ... but the structural skeleton is the same (the near-miss case).
    EXPECT_EQ(f.structuralHash, base.structuralHash);
  }
  {
    Problem p = spellingA();
    p.setTaskPower(*p.findTask("a"), 5_W);  // task attribute change
    const CanonicalForm f = canonicalize(p);
    EXPECT_NE(f.hash, base.hash);
    EXPECT_EQ(f.structuralHash, base.structuralHash);
  }
  {
    Problem p = spellingA();
    p.minSeparation(*p.findTask("b"), *p.findTask("c"), 1_s);
    const CanonicalForm f = canonicalize(p);
    EXPECT_NE(f.hash, base.hash);  // constraint set is structural
    EXPECT_NE(f.structuralHash, base.structuralHash);
  }
  {
    Problem p("other");  // name differs; schedules cannot rebind across it
    EXPECT_NE(canonicalize(p).hash, canonicalize(Problem("perm")).hash);
  }
}

TEST(CanonicalTest, TaskRenameChangesTheHash) {
  Problem a("n");
  const ResourceId r = a.addResource("r");
  a.addTask("x", 2_s, 1_W, r);
  Problem b("n");
  const ResourceId r2 = b.addResource("r");
  b.addTask("y", 2_s, 1_W, r2);
  EXPECT_NE(canonicalize(a).hash, canonicalize(b).hash);
}

TEST(CanonicalTest, PaperExampleRoundTripsThroughText) {
  // problemToText -> parse must land on the same canonical form: the
  // cache key survives a save/load cycle of the problem itself.
  const Problem p = makePaperExampleProblem();
  io::ParseResult reparsed = io::parseProblem(io::problemToText(p));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(canonicalize(p).hash, canonicalize(*reparsed.problem).hash);
}

TEST(CanonicalTest, KeyOnlyMatchesFullKeyHalf) {
  // The hit path computes only the key: it hashes the rendering as it
  // goes, so its hash must be bit-identical to the hash of the full
  // form's text, with no text built and the structural hash left at its
  // 0 sentinel.
  const Problem p = makePaperExampleProblem();
  const CanonicalForm full = canonicalize(p, CanonicalParts::kFull);
  const CanonicalForm keyOnly = canonicalize(p, CanonicalParts::kKeyOnly);
  EXPECT_EQ(full.hash, fnv1a64(full.text));
  EXPECT_EQ(keyOnly.hash, full.hash);
  EXPECT_TRUE(keyOnly.text.empty());
  EXPECT_NE(full.structuralHash, 0u);
  EXPECT_EQ(keyOnly.structuralHash, 0u);
}

TEST(CanonicalTest, OptionsFingerprintSeparatesSchedulers) {
  EXPECT_NE(optionsFingerprint("pipeline", 4), optionsFingerprint("optimal", 4));
  EXPECT_NE(optionsFingerprint("pipeline", 4),
            optionsFingerprint("pipeline", 8));
  // The exhaustive search ignores trials: one entry serves any trials.
  EXPECT_EQ(optionsFingerprint("optimal", 4), optionsFingerprint("optimal", 8));
}

}  // namespace
}  // namespace paws::cache
