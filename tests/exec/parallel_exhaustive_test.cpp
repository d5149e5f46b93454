// Determinism contract of the parallel branch-and-bound: for any thread
// count the ExhaustiveScheduler must return byte-identical schedules,
// costs and outcome flags — the parallel search only partitions the
// top-level start-time axis and prunes with achieved-cost bounds, so the
// ordered chunk reduction reproduces the serial DFS winner exactly.
//
// The rover model is deliberately absent here: its exhaustive search trips
// any practical node budget (Section 5.3's exponential-complexity point),
// and which nodes get visited before a shared budget trips is the one
// documented source of parallel nondeterminism (docs/performance.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "gen/random_problem.hpp"
#include "sched/exhaustive_scheduler.hpp"

namespace paws {
namespace {

GeneratorConfig smallConfig(std::uint32_t seed, std::size_t numTasks) {
  GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.numTasks = numTasks;
  cfg.numResources = 2;
  cfg.maxDelay = 4;
  cfg.witnessJitter = 2;
  cfg.pmaxHeadroomMw = 500;
  return cfg;
}

struct Outcome {
  SchedStatus status;
  bool provenOptimal = false;
  std::vector<Time> starts;
  std::int64_t costMwt = 0;
  std::int64_t finishTicks = 0;

  bool operator==(const Outcome&) const = default;
};

Outcome runWithJobs(const Problem& problem, std::size_t jobs) {
  ExhaustiveOptions options;
  options.jobs = jobs;
  ExhaustiveScheduler scheduler(problem, options);
  const ScheduleResult r = scheduler.schedule();
  Outcome o;
  o.status = r.status;
  o.provenOptimal = scheduler.outcome().provenOptimal;
  if (r.schedule) {
    o.starts = r.schedule->starts();
    o.costMwt = r.schedule->energyCost(problem.minPower()).milliwattTicks();
    o.finishTicks = r.schedule->finish().ticks();
  }
  return o;
}

TEST(ParallelExhaustiveTest, JobsCountNeverChangesTheAnswer) {
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    const GeneratedProblem gp =
        generateRandomProblem(smallConfig(seed, /*numTasks=*/5));
    const Outcome serial = runWithJobs(gp.problem, 1);
    ASSERT_TRUE(serial.provenOptimal) << "seed " << seed;
    for (const std::size_t jobs : {2u, 8u}) {
      const Outcome parallel = runWithJobs(gp.problem, jobs);
      EXPECT_EQ(parallel, serial) << "seed " << seed << " jobs " << jobs;
    }
  }
}

TEST(ParallelExhaustiveTest, LargerInstancesStayDeterministic) {
  for (std::uint32_t seed = 3; seed <= 5; ++seed) {
    const GeneratedProblem gp =
        generateRandomProblem(smallConfig(seed, /*numTasks=*/7));
    const Outcome serial = runWithJobs(gp.problem, 1);
    if (!serial.provenOptimal) continue;  // budget trip: not comparable
    for (const std::size_t jobs : {2u, 8u}) {
      const Outcome parallel = runWithJobs(gp.problem, jobs);
      EXPECT_EQ(parallel, serial) << "seed " << seed << " jobs " << jobs;
    }
  }
}

TEST(ParallelExhaustiveTest, IncrementalPrefixProfileIsDeterministic) {
  // The per-depth prefix-profile frames must not disturb the parallel
  // determinism contract. Goldens recorded with the former ProfileEngine
  // prefix path: the serial winner, node and bound-cut counts, and the
  // same winner at jobs 2 and 8.
  struct Golden {
    std::uint32_t seed;
    std::vector<std::int64_t> starts;  // anchor first
    std::uint64_t nodes;
    std::uint64_t prunedBound;
  };
  const std::vector<Golden> goldens = {
      {1, {0, 0, 2, 3, 7, 8}, 2877, 2345},
      {2, {0, 0, 4, 1, 9, 5}, 6070, 4660},
      {3, {0, 0, 3, 7, 8, 12}, 8623, 5847},
      {4, {0, 8, 0, 2, 6, 12}, 25192, 21241},
      {5, {0, 0, 4, 6, 7, 8}, 12090, 5239},
      {6, {0, 0, 7, 3, 8, 11}, 21792, 12188},
      {7, {0, 0, 4, 7, 11, 2}, 1479, 1146},
      {8, {0, 0, 4, 6, 7, 11}, 4804, 3389},
  };
  for (const Golden& g : goldens) {
    const GeneratedProblem gp =
        generateRandomProblem(smallConfig(g.seed, /*numTasks=*/5));
    std::vector<Time> want;
    for (const std::int64_t t : g.starts) want.push_back(Time(t));

    ExhaustiveOptions options;
    ExhaustiveScheduler serial(gp.problem, options);
    const ScheduleResult r = serial.schedule();
    ASSERT_EQ(r.status, SchedStatus::kOk) << "seed " << g.seed;
    ASSERT_TRUE(r.schedule.has_value()) << "seed " << g.seed;
    EXPECT_EQ(r.schedule->starts(), want) << "seed " << g.seed;
    EXPECT_EQ(serial.outcome().nodesExplored, g.nodes) << "seed " << g.seed;
    EXPECT_EQ(serial.outcome().prunedBound, g.prunedBound)
        << "seed " << g.seed;
    ASSERT_TRUE(serial.outcome().provenOptimal) << "seed " << g.seed;

    const Outcome reference = runWithJobs(gp.problem, 1);
    for (const std::size_t jobs : {2u, 8u}) {
      const Outcome parallel = runWithJobs(gp.problem, jobs);
      EXPECT_EQ(parallel.starts, want) << "seed " << g.seed << " jobs " << jobs;
      EXPECT_EQ(parallel, reference) << "seed " << g.seed << " jobs " << jobs;
    }
  }
}

TEST(ParallelExhaustiveTest, AutoJobsSentinelResolvesAndStaysCorrect) {
  const GeneratedProblem gp =
      generateRandomProblem(smallConfig(1, /*numTasks=*/5));
  const Outcome serial = runWithJobs(gp.problem, 1);
  const Outcome autoJobs = runWithJobs(gp.problem, 0);  // PAWS_JOBS / cores
  EXPECT_EQ(autoJobs, serial);
}

TEST(ParallelExhaustiveTest, InfeasibleInstancesAgreeAcrossJobCounts) {
  // A horizon too short for any schedule: every job count must report the
  // same kPowerInfeasible verdict with a completed (proven) search.
  const GeneratedProblem gp =
      generateRandomProblem(smallConfig(2, /*numTasks=*/5));
  ExhaustiveOptions options;
  options.horizon = Time(1);
  for (const std::size_t jobs : {1u, 2u, 8u}) {
    options.jobs = jobs;
    ExhaustiveScheduler scheduler(gp.problem, options);
    const ScheduleResult r = scheduler.schedule();
    EXPECT_EQ(r.status, SchedStatus::kPowerInfeasible) << "jobs " << jobs;
    EXPECT_TRUE(scheduler.outcome().provenOptimal) << "jobs " << jobs;
  }
}

}  // namespace
}  // namespace paws
