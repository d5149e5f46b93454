// The schedulers' one incremental profile path (power::ProfileEngine, in
// the max-power and min-power schedulers and in the exhaustive search),
// pinned to goldens recorded while each scheduler still
// had a second, rebuild-based profile path and both paths agreed on every
// field: on the paper's example and a sweep of seeded random instances, the
// same start times and the same search decisions.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "gen/random_problem.hpp"
#include "model/paper_example.hpp"
#include "sched/exhaustive_scheduler.hpp"
#include "sched/max_power_scheduler.hpp"
#include "sched/min_power_scheduler.hpp"

namespace paws {
namespace {

/// One instance's max-power and min-power results. The min-power pipeline
/// runs max power first, so both share the delay/lock/recursion counts.
struct PowerGolden {
  std::uint32_t seed;  // 0 = the paper's example
  std::uint64_t delays;
  std::uint64_t locks;
  std::uint64_t recursions;
  std::vector<std::int64_t> maxPowerStarts;  // anchor first
  std::vector<std::int64_t> minPowerStarts;
  std::uint64_t improvements;
};

const std::vector<PowerGolden>& powerGoldens() {
  static const std::vector<PowerGolden> goldens = {
      {0, 2, 0, 1,
       {0, 0, 5, 10, 5, 20, 15, 5, 20, 20},
       {0, 0, 5, 10, 5, 20, 15, 10, 20, 20}, 1},
      {1, 0, 0, 1,
       {0, 0, 0, 0, 6, 14, 9, 10, 9, 24, 28, 13, 22, 6, 15},
       {0, 0, 0, 0, 6, 14, 9, 10, 9, 24, 28, 13, 22, 6, 15}, 0},
      {2, 8, 7, 8,
       {0, 20, 11, 44, 0, 38, 29, 2, 0, 9, 30, 38, 36, 58, 35},
       {0, 20, 11, 44, 0, 38, 29, 2, 0, 9, 30, 38, 36, 58, 35}, 0},
      {3, 3, 2, 2,
       {0, 7, 0, 14, 15, 8, 32, 44, 19, 4, 20, 17, 25, 29, 25},
       {0, 7, 0, 14, 15, 8, 32, 44, 19, 4, 20, 17, 25, 29, 25}, 0},
      {4, 1, 0, 1,
       {0, 4, 0, 8, 6, 13, 21, 29, 33, 12, 30, 18, 0, 42, 38},
       {0, 4, 0, 8, 6, 15, 21, 29, 33, 12, 30, 18, 0, 42, 38}, 1},
      {5, 0, 0, 1,
       {0, 2, 4, 0, 4, 9, 11, 20, 29, 12, 39, 0, 51, 5, 13},
       {0, 2, 4, 0, 4, 9, 11, 20, 29, 12, 39, 0, 51, 5, 13}, 0},
      {6, 7, 14, 8,
       {0, 5, 6, 0, 8, 21, 0, 9, 3, 5, 20, 17, 8, 12, 28},
       {0, 5, 6, 0, 8, 21, 0, 9, 3, 5, 20, 17, 8, 12, 28}, 0},
      {7, 0, 0, 1,
       {0, 0, 1, 6, 14, 0, 20, 8, 16, 9, 18, 12, 21, 26, 33},
       {0, 0, 1, 6, 14, 0, 20, 8, 16, 9, 18, 14, 21, 26, 33}, 1},
      {8, 0, 0, 1,
       {0, 0, 0, 0, 7, 9, 11, 9, 24, 38, 22, 13, 27, 16, 10},
       {0, 0, 0, 0, 7, 9, 11, 9, 24, 38, 22, 13, 27, 16, 10}, 0},
      {9, 0, 0, 1,
       {0, 6, 0, 0, 8, 12, 0, 10, 7, 14, 9, 17, 8, 21, 29},
       {0, 6, 0, 0, 8, 12, 0, 10, 7, 14, 9, 17, 8, 21, 29}, 0},
      {10, 0, 0, 1,
       {0, 0, 0, 0, 15, 21, 8, 11, 23, 46, 8, 56, 13, 14, 18},
       {0, 0, 0, 0, 15, 21, 8, 11, 23, 46, 8, 56, 13, 14, 18}, 0},
      {11, 0, 0, 1,
       {0, 0, 2, 0, 13, 21, 27, 33, 2, 5, 0, 42, 8, 56, 14},
       {0, 0, 2, 0, 13, 21, 27, 33, 2, 5, 0, 42, 8, 56, 14}, 0},
      {12, 0, 0, 1,
       {0, 0, 0, 4, 8, 0, 18, 9, 20, 39, 18, 20, 6, 30, 3},
       {0, 0, 0, 4, 8, 0, 18, 9, 20, 39, 18, 30, 6, 30, 3}, 1},
      {13, 0, 0, 1,
       {0, 0, 0, 4, 16, 30, 14, 30, 26, 7, 9, 38, 46, 13, 21},
       {0, 0, 0, 4, 16, 30, 14, 30, 26, 7, 9, 38, 46, 13, 21}, 0},
      {14, 2, 2, 2,
       {0, 4, 15, 7, 0, 0, 3, 10, 5, 12, 24, 33, 18, 38, 12},
       {0, 4, 15, 7, 0, 0, 3, 10, 5, 12, 24, 33, 18, 38, 12}, 0},
      {15, 0, 0, 1,
       {0, 0, 3, 0, 5, 15, 0, 25, 30, 50, 6, 40, 14, 54, 58},
       {0, 0, 10, 0, 5, 15, 0, 25, 30, 50, 6, 40, 14, 54, 58}, 2},
      {16, 0, 0, 1,
       {0, 0, 7, 8, 0, 0, 19, 7, 16, 16, 21, 29, 2, 32, 25},
       {0, 0, 7, 8, 0, 0, 19, 7, 16, 16, 21, 29, 2, 32, 25}, 0},
      {17, 0, 0, 1,
       {0, 0, 0, 0, 3, 9, 10, 12, 20, 9, 30, 12, 44, 14, 23},
       {0, 0, 0, 0, 3, 9, 10, 12, 20, 9, 30, 12, 44, 14, 23}, 0},
      {18, 0, 0, 1,
       {0, 2, 0, 7, 0, 0, 14, 3, 6, 20, 16, 18, 9, 20, 14},
       {0, 2, 0, 7, 0, 0, 14, 3, 6, 20, 16, 18, 9, 20, 14}, 0},
      {19, 0, 0, 1,
       {0, 0, 6, 16, 9, 0, 7, 19, 9, 15, 0, 6, 20, 19, 29},
       {0, 0, 6, 16, 9, 0, 7, 19, 9, 15, 0, 6, 20, 19, 29}, 0},
      {20, 0, 0, 1,
       {0, 0, 0, 2, 5, 6, 3, 6, 5, 7, 11, 13, 23, 15, 29},
       {0, 0, 0, 2, 5, 6, 3, 6, 5, 7, 11, 13, 23, 15, 29}, 0},
      {21, 3, 4, 3,
       {0, 8, 1, 12, 16, 26, 0, 34, 18, 23, 27, 40, 14, 36, 50},
       {0, 8, 1, 12, 16, 26, 0, 34, 18, 23, 27, 40, 14, 36, 50}, 0},
      {22, 0, 0, 1,
       {0, 0, 0, 6, 10, 0, 12, 4, 20, 5, 14, 27, 23, 13, 38},
       {0, 0, 0, 6, 10, 0, 12, 4, 20, 5, 14, 27, 23, 13, 38}, 0},
  };
  return goldens;
}

void expectGolden(const ScheduleResult& r,
                  const std::vector<std::int64_t>& starts,
                  const PowerGolden& g, const char* what) {
  ASSERT_EQ(r.status, SchedStatus::kOk) << what << " seed " << g.seed;
  ASSERT_TRUE(r.schedule.has_value()) << what << " seed " << g.seed;
  std::vector<Time> want;
  for (const std::int64_t t : starts) want.push_back(Time(t));
  EXPECT_EQ(r.schedule->starts(), want) << what << " seed " << g.seed;
  // The searches must have taken the exact same decisions, not merely
  // reached the same answer.
  EXPECT_EQ(r.stats.delays, g.delays) << what << " seed " << g.seed;
  EXPECT_EQ(r.stats.locks, g.locks) << what << " seed " << g.seed;
  EXPECT_EQ(r.stats.recursions, g.recursions) << what << " seed " << g.seed;
}

void checkMaxAndMinPower(const Problem& problem, const PowerGolden& g) {
  const ScheduleResult maxPower = MaxPowerScheduler(problem).schedule();
  expectGolden(maxPower, g.maxPowerStarts, g, "max-power");
  EXPECT_EQ(maxPower.stats.improvements, 0u) << "seed " << g.seed;
  const ScheduleResult minPower = MinPowerScheduler(problem).schedule();
  expectGolden(minPower, g.minPowerStarts, g, "min-power");
  EXPECT_EQ(minPower.stats.improvements, g.improvements)
      << "seed " << g.seed;
}

TEST(IncrementalEquivalenceTest, PaperExampleMaxAndMinPower) {
  ASSERT_EQ(powerGoldens().front().seed, 0u);
  checkMaxAndMinPower(makePaperExampleProblem(), powerGoldens().front());
}

TEST(IncrementalEquivalenceTest, RandomInstancesMaxAndMinPower) {
  ASSERT_EQ(powerGoldens().size(), 23u);
  for (std::uint32_t seed = 1; seed <= 22; ++seed) {
    const PowerGolden& g = powerGoldens()[seed];
    ASSERT_EQ(g.seed, seed);
    GeneratorConfig cfg;
    cfg.seed = seed;
    cfg.numTasks = 14;
    cfg.numResources = 3;
    // Tight budgets so the spike-elimination and gap-filling loops really
    // run (headroom 0 keeps Pmax at the witness peak; half the instances
    // get a nonzero background so the utilization arithmetic is exercised
    // off the zero fast path).
    cfg.pmaxHeadroomMw = (seed % 2 == 0) ? 0 : 800;
    cfg.pminFraction = 0.7;
    if (seed % 2 == 0) cfg.backgroundPower = Watts::fromMilliwatts(250);
    const GeneratedProblem gp = generateRandomProblem(cfg);
    checkMaxAndMinPower(gp.problem, g);
  }
}

TEST(IncrementalEquivalenceTest, ExhaustiveSearchBitIdentical) {
  // Goldens recorded with the two former prefix-profile paths (the
  // ProfileEngine add/remove per node and the per-node rebuild), which
  // agreed on every field: the winner's starts, the node and bound-cut
  // counts and the verdict. Equal counts mean the same tree was explored.
  struct Golden {
    std::uint32_t seed;
    std::vector<std::int64_t> starts;  // anchor first
    std::uint64_t nodes;
    std::uint64_t prunedBound;
  };
  const std::vector<Golden> goldens = {
      {1, {0, 3, 0, 7, 10}, 710, 380}, {2, {0, 0, 4, 5, 1}, 59, 47},
      {3, {0, 1, 0, 3, 7}, 88, 49},    {4, {0, 0, 2, 5, 8}, 823, 490},
      {5, {0, 1, 0, 4, 6}, 73, 53},    {6, {0, 0, 6, 3, 9}, 397, 295},
  };
  for (const Golden& g : goldens) {
    GeneratorConfig cfg;
    cfg.seed = g.seed;
    cfg.numTasks = 4;
    cfg.numResources = 2;
    cfg.maxDelay = 3;
    cfg.pmaxHeadroomMw = 400;
    const GeneratedProblem gp = generateRandomProblem(cfg);
    std::vector<Time> want;
    for (const std::int64_t t : g.starts) want.push_back(Time(t));

    for (const std::size_t jobs : {1u, 2u, 8u}) {
      ExhaustiveOptions options;
      options.jobs = jobs;
      ExhaustiveScheduler scheduler(gp.problem, options);
      const ScheduleResult r = scheduler.schedule();
      ASSERT_EQ(r.status, SchedStatus::kOk) << "seed " << g.seed;
      ASSERT_TRUE(r.schedule.has_value()) << "seed " << g.seed;
      EXPECT_EQ(r.schedule->starts(), want)
          << "seed " << g.seed << " jobs " << jobs;
      // Node counts are deterministic only for the serial search.
      if (jobs != 1) continue;
      EXPECT_EQ(scheduler.outcome().nodesExplored, g.nodes)
          << "seed " << g.seed;
      EXPECT_EQ(scheduler.outcome().prunedBound, g.prunedBound)
          << "seed " << g.seed;
      EXPECT_TRUE(scheduler.outcome().provenOptimal) << "seed " << g.seed;
    }
  }
}

}  // namespace
}  // namespace paws
