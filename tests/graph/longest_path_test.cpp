#include "graph/longest_path.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/constraint_graph.hpp"

namespace paws {
namespace {

TEST(LongestPathTest, SingleVertex) {
  ConstraintGraph g(1);
  LongestPathEngine engine(g);
  const LongestPathResult& r = engine.compute(TaskId(0));
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.dist[0], Time(0));
}

TEST(LongestPathTest, ChainDistances) {
  ConstraintGraph g(4);
  g.addEdge(TaskId(0), TaskId(1), Duration(5), EdgeKind::kUserMin);
  g.addEdge(TaskId(1), TaskId(2), Duration(7), EdgeKind::kUserMin);
  g.addEdge(TaskId(2), TaskId(3), Duration(2), EdgeKind::kUserMin);
  LongestPathEngine engine(g);
  const LongestPathResult& r = engine.compute(TaskId(0));
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.dist[1], Time(5));
  EXPECT_EQ(r.dist[2], Time(12));
  EXPECT_EQ(r.dist[3], Time(14));
}

TEST(LongestPathTest, TakesLongestOfParallelPaths) {
  ConstraintGraph g(4);
  g.addEdge(TaskId(0), TaskId(1), Duration(3), EdgeKind::kUserMin);
  g.addEdge(TaskId(0), TaskId(2), Duration(10), EdgeKind::kUserMin);
  g.addEdge(TaskId(1), TaskId(3), Duration(1), EdgeKind::kUserMin);
  g.addEdge(TaskId(2), TaskId(3), Duration(1), EdgeKind::kUserMin);
  LongestPathEngine engine(g);
  const LongestPathResult& r = engine.compute(TaskId(0));
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.dist[3], Time(11));
}

TEST(LongestPathTest, NegativeBackEdgeWithinWindowIsFeasible) {
  // 1 at least 5 after 0, at most 12 after 0: both satisfiable.
  ConstraintGraph g(2);
  g.addEdge(TaskId(0), TaskId(1), Duration(5), EdgeKind::kUserMin);
  g.addEdge(TaskId(1), TaskId(0), Duration(-12), EdgeKind::kUserMax);
  LongestPathEngine engine(g);
  const LongestPathResult& r = engine.compute(TaskId(0));
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.dist[1], Time(5));
}

TEST(LongestPathTest, ContradictoryWindowIsPositiveCycle) {
  // 1 at least 10 after 0 but at most 4 after 0: cycle weight 10-4 > 0.
  ConstraintGraph g(2);
  g.addEdge(TaskId(0), TaskId(1), Duration(10), EdgeKind::kUserMin);
  g.addEdge(TaskId(1), TaskId(0), Duration(-4), EdgeKind::kUserMax);
  LongestPathEngine engine(g);
  const LongestPathResult& r = engine.compute(TaskId(0));
  ASSERT_FALSE(r.feasible);
  ASSERT_FALSE(r.cycle.empty());
  // The witness must include both vertices of the contradictory window.
  EXPECT_NE(std::find(r.cycle.begin(), r.cycle.end(), TaskId(0)),
            r.cycle.end());
  EXPECT_NE(std::find(r.cycle.begin(), r.cycle.end(), TaskId(1)),
            r.cycle.end());
}

TEST(LongestPathTest, CycleEdgesFormAClosedPositiveWalk) {
  ConstraintGraph g(3);
  g.addEdge(TaskId(0), TaskId(1), Duration(4), EdgeKind::kUserMin);
  g.addEdge(TaskId(1), TaskId(2), Duration(4), EdgeKind::kUserMin);
  g.addEdge(TaskId(2), TaskId(0), Duration(-6), EdgeKind::kUserMax);
  LongestPathEngine engine(g);
  const LongestPathResult& r = engine.compute(TaskId(0));
  ASSERT_FALSE(r.feasible);
  ASSERT_FALSE(r.cycleEdges.empty());
  Duration total;
  for (EdgeId e : r.cycleEdges) total += g.edge(e).weight;
  EXPECT_GT(total, Duration::zero());
}

TEST(LongestPathTest, UnreachableVertexIsMinusInfinity) {
  ConstraintGraph g(3);
  g.addEdge(TaskId(0), TaskId(1), Duration(2), EdgeKind::kUserMin);
  LongestPathEngine engine(g);
  const LongestPathResult& r = engine.compute(TaskId(0));
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.dist[2], Time::minusInfinity());
}

TEST(LongestPathTest, IncrementalAfterEdgeAddMatchesFull) {
  ConstraintGraph g(5);
  g.addEdge(TaskId(0), TaskId(1), Duration(3), EdgeKind::kUserMin);
  g.addEdge(TaskId(0), TaskId(2), Duration(1), EdgeKind::kUserMin);
  g.addEdge(TaskId(1), TaskId(3), Duration(4), EdgeKind::kUserMin);
  LongestPathEngine engine(g);
  ASSERT_TRUE(engine.compute(TaskId(0)).feasible);

  // Add edges and recompute incrementally.
  g.addEdge(TaskId(2), TaskId(3), Duration(20), EdgeKind::kDelay);
  g.addEdge(TaskId(3), TaskId(4), Duration(2), EdgeKind::kUserMin);
  const LongestPathResult& inc = engine.compute(TaskId(0));
  ASSERT_TRUE(inc.feasible);
  const std::vector<Time> incDist = inc.dist;

  LongestPathEngine fresh(g);
  const LongestPathResult& full = fresh.computeFull(TaskId(0));
  ASSERT_TRUE(full.feasible);
  EXPECT_EQ(incDist, full.dist);
  EXPECT_EQ(incDist[3], Time(21));
  EXPECT_EQ(incDist[4], Time(23));
}

TEST(LongestPathTest, RecomputeAfterRollbackDropsStaleDistances) {
  ConstraintGraph g(3);
  g.addEdge(TaskId(0), TaskId(1), Duration(3), EdgeKind::kUserMin);
  LongestPathEngine engine(g);
  ASSERT_TRUE(engine.compute(TaskId(0)).feasible);

  const auto cp = g.checkpoint();
  g.addEdge(TaskId(0), TaskId(1), Duration(50), EdgeKind::kDelay);
  ASSERT_TRUE(engine.compute(TaskId(0)).feasible);
  EXPECT_EQ(engine.result().dist[1], Time(50));

  g.rollbackTo(cp);
  const LongestPathResult& r = engine.compute(TaskId(0));
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.dist[1], Time(3)) << "distance must shrink after rollback";
}

TEST(LongestPathTest, IncrementalDetectsNewPositiveCycle) {
  ConstraintGraph g(3);
  g.addEdge(TaskId(0), TaskId(1), Duration(5), EdgeKind::kUserMin);
  g.addEdge(TaskId(1), TaskId(2), Duration(5), EdgeKind::kUserMin);
  LongestPathEngine engine(g);
  ASSERT_TRUE(engine.compute(TaskId(0)).feasible);

  g.addEdge(TaskId(2), TaskId(1), Duration(-7), EdgeKind::kUserMax);
  ASSERT_TRUE(engine.compute(TaskId(0)).feasible) << "window of 5..7 is fine";

  g.addEdge(TaskId(2), TaskId(1), Duration(1), EdgeKind::kSerialization);
  EXPECT_FALSE(engine.compute(TaskId(0)).feasible)
      << "2 before 1 and 1 before 2 with positive weights must cycle";
}

TEST(LongestPathTest, ZeroWeightCycleIsFeasible) {
  // sigma(1) == sigma(2) expressed as two zero-weight edges.
  ConstraintGraph g(3);
  g.addEdge(TaskId(0), TaskId(1), Duration(4), EdgeKind::kUserMin);
  g.addEdge(TaskId(1), TaskId(2), Duration(0), EdgeKind::kUserMin);
  g.addEdge(TaskId(2), TaskId(1), Duration(0), EdgeKind::kUserMin);
  LongestPathEngine engine(g);
  const LongestPathResult& r = engine.compute(TaskId(0));
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.dist[1], r.dist[2]);
}

TEST(LongestPathTest, ManyImprovingInEdgesAreNotACycle) {
  // The max-power stage's final graph for a 5-task problem with repeated
  // and parallel constraints. It is feasible, but the work-list improves
  // vertex 5 more than |V|+1 times on the way to its fixpoint; that count
  // alone once read as a positive cycle (with no witness).
  ConstraintGraph g(6);
  const struct {
    std::uint32_t from, to;
    std::int64_t weight;
    EdgeKind kind;
  } edges[] = {
      {0, 1, 0, EdgeKind::kRelease},   {0, 2, 0, EdgeKind::kRelease},
      {0, 3, 0, EdgeKind::kRelease},   {0, 4, 0, EdgeKind::kRelease},
      {0, 5, 0, EdgeKind::kRelease},   {1, 5, 1, EdgeKind::kUserMin},
      {4, 2, 7, EdgeKind::kUserMin},   {5, 2, 2, EdgeKind::kUserMin},
      {1, 5, 1, EdgeKind::kUserMin},   {2, 3, 1, EdgeKind::kUserMin},
      {4, 1, 4, EdgeKind::kUserMin},   {2, 3, 3, EdgeKind::kUserMin},
      {3, 5, -9, EdgeKind::kUserMax},  {3, 5, -21, EdgeKind::kUserMax},
      {3, 5, -22, EdgeKind::kUserMax}, {1, 2, 2, EdgeKind::kSerialization},
      {1, 3, 2, EdgeKind::kSerialization},
      {2, 3, 4, EdgeKind::kSerialization},
  };
  for (const auto& e : edges) {
    g.addEdge(TaskId(e.from), TaskId(e.to), Duration(e.weight), e.kind);
  }
  LongestPathEngine engine(g);
  const LongestPathResult& r = engine.compute(TaskId(0));
  ASSERT_TRUE(r.feasible);
  const std::vector<Time> expected = {Time(0), Time(4), Time(7),
                                      Time(11), Time(0), Time(5)};
  EXPECT_EQ(r.dist, expected);

  // A genuine cycle is still reported, with its witness.
  g.addEdge(TaskId(3), TaskId(1), Duration(0), EdgeKind::kSerialization);
  const LongestPathResult& cyclic = engine.compute(TaskId(0));
  EXPECT_FALSE(cyclic.feasible);
  EXPECT_FALSE(cyclic.cycle.empty());
}

TEST(LongestPathTest, LargeChainStressAndIncrementalConsistency) {
  constexpr std::size_t kN = 2000;
  ConstraintGraph g(kN);
  for (std::size_t i = 0; i + 1 < kN; ++i) {
    g.addEdge(TaskId(static_cast<std::uint32_t>(i)),
              TaskId(static_cast<std::uint32_t>(i + 1)), Duration(1),
              EdgeKind::kUserMin);
  }
  LongestPathEngine engine(g);
  const LongestPathResult& r = engine.compute(TaskId(0));
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.dist[kN - 1], Time(kN - 1));

  g.addEdge(TaskId(0), TaskId(1000), Duration(5000), EdgeKind::kDelay);
  const LongestPathResult& r2 = engine.compute(TaskId(0));
  ASSERT_TRUE(r2.feasible);
  EXPECT_EQ(r2.dist[kN - 1], Time(5000 + (kN - 1 - 1000)));
}

}  // namespace
}  // namespace paws
