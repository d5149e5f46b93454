#include "sched/min_power_scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "gen/random_problem.hpp"
#include "model/paper_example.hpp"
#include "sched/power_aware_scheduler.hpp"
#include "validate/validator.hpp"

namespace paws {
namespace {

using namespace paws::literals;

TEST(MinPowerSchedulerTest, PaperExampleImprovesUtilization) {
  // Fig. 5 -> Fig. 7: g moves into the gap at t=10; Ec drops from 15J to
  // 10J at the same finish time.
  const Problem p = makePaperExampleProblem();

  MaxPowerScheduler maxPower(p);
  const ScheduleResult before = maxPower.schedule();
  ASSERT_TRUE(before.ok());
  const Energy ecBefore = before.schedule->energyCost(p.minPower());
  const double rhoBefore = before.schedule->utilization(p.minPower());

  MinPowerScheduler pipeline(p);
  const ScheduleResult after = pipeline.schedule();
  ASSERT_TRUE(after.ok()) << after.message;
  const Energy ecAfter = after.schedule->energyCost(p.minPower());

  EXPECT_EQ(ecBefore, 15_J);
  EXPECT_EQ(ecAfter, 10_J);
  EXPECT_GT(after.schedule->utilization(p.minPower()), rhoBefore);
  EXPECT_EQ(after.schedule->finish(), before.schedule->finish())
      << "same performance with a reduced energy cost";
  EXPECT_EQ(after.schedule->start(*p.findTask("g")), Time(10));
}

TEST(MinPowerSchedulerTest, ResultRemainsFullyValid) {
  const Problem p = makePaperExampleProblem();
  MinPowerScheduler pipeline(p);
  const ScheduleResult r = pipeline.schedule();
  ASSERT_TRUE(r.ok());
  const ScheduleValidator validator(p);
  EXPECT_TRUE(validator.validate(*r.schedule).valid());
}

TEST(MinPowerSchedulerTest, NeverDecreasesUtilization) {
  const Problem p = makePaperExampleProblem();
  for (const ScanOrder scan :
       {ScanOrder::kForward, ScanOrder::kBackward, ScanOrder::kRandom}) {
    for (const SlotHeuristic slot :
         {SlotHeuristic::kStartAtGap, SlotHeuristic::kFinishAtGapEnd,
          SlotHeuristic::kRandom}) {
      MinPowerOptions opt;
      opt.scanOrder = scan;
      opt.slotHeuristic = slot;
      opt.rotateHeuristics = false;
      opt.randomSeed = 7;
      MaxPowerScheduler maxPower(p, opt.maxPower);
      const ScheduleResult base = maxPower.schedule();
      ASSERT_TRUE(base.ok());
      MinPowerScheduler pipeline(p, opt);
      const ScheduleResult r = pipeline.schedule();
      ASSERT_TRUE(r.ok());
      EXPECT_GE(r.schedule->utilization(p.minPower()) + 1e-12,
                base.schedule->utilization(p.minPower()))
          << "scan " << static_cast<int>(scan) << " slot "
          << static_cast<int>(slot);
    }
  }
}

TEST(MinPowerSchedulerTest, FullUtilizationShortCircuits) {
  // A single task drawing exactly Pmin: utilization 1 from the start.
  Problem p("full");
  const ResourceId r1 = p.addResource("r1");
  p.addTask("only", 10_s, 5_W, r1);
  p.setMaxPower(8_W);
  p.setMinPower(5_W);
  MinPowerScheduler pipeline(p);
  const ScheduleResult r = pipeline.schedule();
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.schedule->utilization(p.minPower()), 1.0);
  EXPECT_EQ(r.stats.improvements, 0u);
}

TEST(MinPowerSchedulerTest, ZeroPminIsConventionalSpecialCase) {
  Problem p("nopmin");
  const ResourceId r1 = p.addResource("r1");
  p.addTask("t1", 5_s, 4_W, r1);
  p.addTask("t2", 5_s, 4_W, r1);
  p.setMaxPower(10_W);
  // Pmin defaults to 0: utilization is 1 by definition; nothing to do.
  MinPowerScheduler pipeline(p);
  const ScheduleResult r = pipeline.schedule();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.stats.improvements, 0u);
}

TEST(MinPowerSchedulerTest, GapFillingRespectsPmax) {
  // Filling the gap by moving 'heavy' under 'late' would spike: the move
  // must be rejected even though it would raise utilization.
  Problem p("guard");
  const ResourceId r1 = p.addResource("r1");
  const ResourceId r2 = p.addResource("r2");
  const TaskId heavy = p.addTask("heavy", 5_s, 7_W, r1);
  const TaskId late = p.addTask("late", 5_s, 7_W, r2);
  p.release(late, Time(5));
  p.pin(late, Time(5));
  p.setMaxPower(12_W);
  p.setMinPower(10_W);
  MinPowerScheduler pipeline(p);
  const ScheduleResult r = pipeline.schedule();
  ASSERT_TRUE(r.ok()) << r.message;
  const ScheduleValidator validator(p);
  EXPECT_TRUE(validator.validate(*r.schedule).powerValid());
  EXPECT_EQ(r.schedule->start(heavy), Time(0))
      << "moving heavy under late would exceed Pmax";
}

TEST(MinPowerSchedulerTest, ImproveRequiresPowerValidInput) {
  const Problem p = makePaperExampleProblem();
  // Hand the improver a spiking schedule: all tasks at ASAP including the
  // spike at [10,15).
  ConstraintGraph g = p.buildGraph();
  std::vector<Time> starts(p.numVertices(), Time::zero());
  const char* names[] = {"a", "b", "c", "d", "e", "f", "g", "h", "i"};
  const Time asap[] = {Time(0),  Time(5),  Time(10), Time(5), Time(20),
                       Time(10), Time(5),  Time(10), Time(20)};
  for (std::size_t i = 0; i < 9; ++i) {
    starts[p.findTask(names[i])->index()] = asap[i];
  }
  const Schedule spiky(&p, starts);
  MinPowerScheduler pipeline(p);
  EXPECT_THROW((void)pipeline.improve(g, spiky), CheckError);
}

TEST(PowerAwareSchedulerTest, MultiTrialMatchesOrBeatsSingleRun) {
  const Problem p = makePaperExampleProblem();
  MinPowerScheduler single(p);
  const ScheduleResult one = single.schedule();
  ASSERT_TRUE(one.ok());

  PowerAwareOptions opt;
  opt.trials = 4;
  PowerAwareScheduler multi(p, opt);
  const ScheduleResult best = multi.schedule();
  ASSERT_TRUE(best.ok());
  EXPECT_LE(best.schedule->energyCost(p.minPower()),
            one.schedule->energyCost(p.minPower()));
}

TEST(PowerAwareSchedulerTest, FailurePropagatesDiagnostics) {
  Problem p("doomed");
  const ResourceId r1 = p.addResource("r1");
  p.addTask("x", 5_s, 20_W, r1);
  p.setMaxPower(10_W);
  PowerAwareScheduler scheduler(p);
  const ScheduleResult r = scheduler.schedule();
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.message.empty());
}

/// Near-miss deltas of `base`, as the cache's rung 2 meets them: three new
/// Pmin values and three Pmax raises of up to 10%. None can invalidate a
/// schedule that was valid for `base`.
std::vector<Problem> limitVariants(const Problem& base) {
  std::vector<Problem> variants;
  const std::int64_t pmax = base.maxPower().milliwatts();
  for (const std::int64_t permille : {300, 400, 700}) {
    variants.push_back(base);
    variants.back().setMinPower(Watts::fromMilliwatts(pmax * permille / 1000));
  }
  for (const std::int64_t permille : {1020, 1050, 1100}) {
    variants.push_back(base);
    variants.back().setMaxPower(Watts::fromMilliwatts(pmax * permille / 1000));
  }
  return variants;
}

TEST(WarmStartPolishTest, KeepsResourceOrderAndNeverRaisesTheCost) {
  // A warm-started polish moves tasks within their slack on a graph that
  // serializes each resource in the given start order: every result is
  // validator-clean (no resource overlap) and no costlier than its input.
  std::size_t polishes = 0;
  for (std::uint32_t seed = 1; seed <= 64; ++seed) {
    GeneratorConfig config;
    config.seed = seed;
    config.numTasks = 8 + seed % 9;
    config.numResources = 2 + seed % 3;
    const Problem base = generateRandomProblem(config).problem;
    const ScheduleResult cold = PowerAwareScheduler(base).schedule();
    if (!cold.ok()) continue;
    for (const Problem& variant : limitVariants(base)) {
      const Schedule input(&variant, cold.schedule->starts());
      ASSERT_TRUE(ScheduleValidator(variant).validate(input).valid());
      MinPowerOptions options;
      options.initialStarts = input.starts();
      const ScheduleResult r = MinPowerScheduler(variant, options).schedule();
      ASSERT_TRUE(r.ok()) << "seed " << seed << ": " << r.message;
      const ValidationReport report =
          ScheduleValidator(variant).validate(*r.schedule);
      EXPECT_TRUE(report.valid()) << "seed " << seed << ": "
                                  << report.summary();
      EXPECT_LE(r.schedule->energyCost(variant.minPower()),
                input.energyCost(variant.minPower()))
          << "seed " << seed;
      ++polishes;
    }
  }
  EXPECT_GE(polishes, 300u) << "the pipeline must solve most seeds";
}

TEST(WarmStartPolishTest, ResourceOverlapFallsBackToTheColdPipeline) {
  // Timing- and power-valid, but a and b share r1 during [1, 2): the pin
  // probe sees the serialization edge a -> b and the cold pipeline runs.
  Problem p("overlap");
  const ResourceId r1 = p.addResource("r1");
  p.addTask("a", 2_s, 2_W, r1);
  const TaskId b = p.addTask("b", 2_s, 2_W, r1);
  p.setMaxPower(10_W);
  p.setMinPower(3_W);
  std::vector<Time> starts(p.numVertices(), Time::zero());
  starts[b.index()] = Time(1);
  const ScheduleResult cold = MinPowerScheduler(p).schedule();
  ASSERT_TRUE(cold.ok());
  MinPowerOptions options;
  options.initialStarts = starts;
  const ScheduleResult r = MinPowerScheduler(p, options).schedule();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.schedule->starts(), cold.schedule->starts());
  EXPECT_TRUE(ScheduleValidator(p).validate(*r.schedule).valid());
}

}  // namespace
}  // namespace paws
