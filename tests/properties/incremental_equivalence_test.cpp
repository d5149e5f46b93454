// Byte-identical equivalence of the incremental ProfileEngine paths against
// the legacy full-rebuild paths in the max-power and min-power schedulers,
// on the paper's example and a sweep of seeded random instances: flipping
// `incrementalProfile` must change effort counters only, never a single
// start time, status, or stats field the search semantics feed. The
// exhaustive search has one prefix-profile path (power::PrefixProfile);
// it is pinned to the tree the two former paths both explored.
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

void expectSameResult(const ScheduleResult& a, const ScheduleResult& b,
                      const char* what, std::uint32_t seed) {
  ASSERT_EQ(a.status, b.status) << what << " seed " << seed;
  ASSERT_EQ(a.schedule.has_value(), b.schedule.has_value())
      << what << " seed " << seed;
  if (a.schedule.has_value()) {
    ASSERT_EQ(a.schedule->starts(), b.schedule->starts())
        << what << " seed " << seed;
  }
  // The searches must have taken the exact same decisions, not merely
  // reached the same answer.
  EXPECT_EQ(a.stats.delays, b.stats.delays) << what << " seed " << seed;
  EXPECT_EQ(a.stats.locks, b.stats.locks) << what << " seed " << seed;
  EXPECT_EQ(a.stats.recursions, b.stats.recursions)
      << what << " seed " << seed;
  EXPECT_EQ(a.stats.improvements, b.stats.improvements)
      << what << " seed " << seed;
}

void checkMaxAndMinPower(const Problem& problem, std::uint32_t seed) {
  {
    MaxPowerOptions on;
    on.incrementalProfile = true;
    MaxPowerOptions off = on;
    off.incrementalProfile = false;
    const ScheduleResult a = MaxPowerScheduler(problem, on).schedule();
    const ScheduleResult b = MaxPowerScheduler(problem, off).schedule();
    expectSameResult(a, b, "max-power", seed);
  }
  {
    MinPowerOptions on;
    on.incrementalProfile = true;
    MinPowerOptions off = on;
    off.incrementalProfile = false;
    // Cross the flags in the nested max-power stage too.
    off.maxPower.incrementalProfile = false;
    const ScheduleResult a = MinPowerScheduler(problem, on).schedule();
    const ScheduleResult b = MinPowerScheduler(problem, off).schedule();
    expectSameResult(a, b, "min-power", seed);
  }
}

TEST(IncrementalEquivalenceTest, PaperExampleMaxAndMinPower) {
  checkMaxAndMinPower(makePaperExampleProblem(), 0);
}

TEST(IncrementalEquivalenceTest, RandomInstancesMaxAndMinPower) {
  for (std::uint32_t seed = 1; seed <= 22; ++seed) {
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
    checkMaxAndMinPower(gp.problem, seed);
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
