// Edge cases and option plumbing across the scheduler stack that the
// mainline tests don't reach.
#include <gtest/gtest.h>

#include "model/paper_example.hpp"
#include "sched/exhaustive_scheduler.hpp"
#include "sched/min_power_scheduler.hpp"
#include "sched/power_aware_scheduler.hpp"
#include "sched/timing_scheduler.hpp"
#include "graph/longest_path.hpp"
#include "validate/validator.hpp"

namespace paws {
namespace {

using namespace paws::literals;

TEST(SchedulerEdgeCases, UserPinIsHonoredThroughTheWholePipeline) {
  Problem p("pinned");
  const ResourceId r1 = p.addResource("r1");
  const ResourceId r2 = p.addResource("r2");
  const TaskId a = p.addTask("a", 5_s, 4_W, r1);
  const TaskId b = p.addTask("b", 5_s, 4_W, r2);
  p.pin(b, Time(7));
  p.setMaxPower(6_W);  // a and b cannot overlap
  MinPowerScheduler pipeline(p);
  const ScheduleResult r = pipeline.schedule();
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_EQ(r.schedule->start(b), Time(7));
  EXPECT_FALSE(r.schedule->interval(a).overlaps(r.schedule->interval(b)));
}

TEST(SchedulerEdgeCases, EmptyProblemSchedulesTrivially) {
  Problem p("void");
  MinPowerScheduler pipeline(p);
  const ScheduleResult r = pipeline.schedule();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.schedule->finish(), Time(0));
}

TEST(SchedulerEdgeCases, SingleTaskTightBudget) {
  Problem p("solo");
  const ResourceId r1 = p.addResource("r1");
  p.addTask("only", 7_s, 5_W, r1);
  p.setMaxPower(5_W);  // exactly fits
  MinPowerScheduler pipeline(p);
  const ScheduleResult r = pipeline.schedule();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.schedule->start(TaskId(1)), Time(0));
}

TEST(SchedulerEdgeCases, MinPowerZeroPassesIsMaxPowerOnly) {
  const Problem p = makePaperExampleProblem();
  MinPowerOptions opt;
  opt.maxPasses = 0;
  MaxPowerScheduler maxOnly(p, opt.maxPower);
  const ScheduleResult base = maxOnly.schedule();
  MinPowerScheduler pipeline(p, opt);
  const ScheduleResult r = pipeline.schedule();
  ASSERT_TRUE(base.ok() && r.ok());
  EXPECT_EQ(r.schedule->starts(), base.schedule->starts());
  EXPECT_EQ(r.stats.improvements, 0u);
}

TEST(SchedulerEdgeCases, RandomCandidateOrderIsSeedDeterministic) {
  const Problem p = makePaperExampleProblem();
  TimingOptions opt;
  opt.candidateOrder = CandidateOrder::kRandom;
  opt.randomSeed = 99;
  std::vector<Time> first;
  for (int run = 0; run < 2; ++run) {
    ConstraintGraph g = p.buildGraph();
    LongestPathEngine engine(g);
    TimingScheduler ts(p, opt);
    SchedulerStats stats;
    const auto out = ts.run(g, engine, stats);
    ASSERT_TRUE(out.ok);
    if (run == 0) {
      first = out.starts;
    } else {
      EXPECT_EQ(out.starts, first);
    }
  }
}

TEST(SchedulerEdgeCases, BackgroundOnlyBudgetViolationFailsFast) {
  Problem p("bg");
  const ResourceId r1 = p.addResource("r1");
  p.addTask("t", 2_s, 1_W, r1);
  p.setBackgroundPower(12_W);
  p.setMaxPower(10_W);
  MaxPowerScheduler scheduler(p);
  const ScheduleResult r = scheduler.schedule();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status, SchedStatus::kPowerInfeasible);
}

TEST(SchedulerEdgeCases, ExhaustiveHonorsExplicitHorizon) {
  Problem p("hz");
  const ResourceId r1 = p.addResource("r1");
  const ResourceId r2 = p.addResource("r2");
  p.addTask("a", 4_s, 5_W, r1);
  p.addTask("b", 4_s, 5_W, r2);
  p.setMaxPower(8_W);  // must serialize: needs 8 ticks
  ExhaustiveOptions opt;
  opt.horizon = Time(6);  // too short for any serialization
  ExhaustiveScheduler scheduler(p, opt);
  const ScheduleResult r = scheduler.schedule();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(scheduler.outcome().provenOptimal);

  opt.horizon = Time(8);
  ExhaustiveScheduler fits(p, opt);
  const ScheduleResult ok = fits.schedule();
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.schedule->finish(), Time(8));
}

TEST(SchedulerEdgeCases, PowerAwareSingleTrialWorks) {
  const Problem p = makePaperExampleProblem();
  PowerAwareOptions opt;
  opt.trials = 1;
  PowerAwareScheduler scheduler(p, opt);
  const ScheduleResult r = scheduler.schedule();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(ScheduleValidator(p).validate(*r.schedule).valid());
}

TEST(SchedulerEdgeCases, ManyResourcesNoConstraintsAllStartAtZero) {
  Problem p("par");
  for (int i = 0; i < 12; ++i) {
    const ResourceId r =
        p.addResource("r" + std::to_string(i));
    p.addTask("t" + std::to_string(i), 3_s, 1_W, r);
  }
  MinPowerScheduler pipeline(p);
  const ScheduleResult r = pipeline.schedule();
  ASSERT_TRUE(r.ok());
  for (TaskId v : p.taskIds()) {
    EXPECT_EQ(r.schedule->start(v), Time(0));
  }
  EXPECT_EQ(r.schedule->finish(), Time(3));
}

TEST(SchedulerEdgeCases, ZeroSeparationConstraintsForceSimultaneity) {
  Problem p("sync");
  const ResourceId r1 = p.addResource("r1");
  const ResourceId r2 = p.addResource("r2");
  const TaskId a = p.addTask("a", 5_s, 1_W, r1);
  const TaskId b = p.addTask("b", 5_s, 1_W, r2);
  p.minSeparation(a, b, Duration(0));
  p.maxSeparation(a, b, Duration(0));
  MinPowerScheduler pipeline(p);
  const ScheduleResult r = pipeline.schedule();
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_EQ(r.schedule->start(a), r.schedule->start(b));
}

TEST(SchedulerEdgeCases, RepeatedAndParallelConstraintsDoNotAbortThePipeline) {
  // Repeated min separations and three parallel max windows on one pair:
  // the max-power stage's graph is feasible, but the longest-path engine
  // once read the many improvements of t4 as a positive cycle and the
  // min-power stage's PAWS_CHECK aborted the request.
  Problem p("random_seed10169190");
  p.setMaxPower(5668_mW);
  p.setMinPower(2834_mW);
  const ResourceId r0 = p.addResource("r0");
  p.addResource("r1");
  const ResourceId r2 = p.addResource("r2");
  const ResourceId r3 = p.addResource("r3");
  const TaskId t0 = p.addTask("t0", 2_s, 1291_mW, r0);
  const TaskId t1 = p.addTask("t1", 4_s, 628_mW, r0);
  const TaskId t2 = p.addTask("t2", 7_s, 2463_mW, r0);
  const TaskId t3 = p.addTask("t3", 3_s, 5668_mW, r3);
  const TaskId t4 = p.addTask("t4", 5_s, 3169_mW, r2);
  p.minSeparation(t0, t4, Duration(1));
  p.minSeparation(t3, t1, Duration(7));
  p.minSeparation(t4, t1, Duration(2));
  p.minSeparation(t0, t4, Duration(1));
  p.minSeparation(t1, t2, Duration(1));
  p.minSeparation(t3, t0, Duration(4));
  p.minSeparation(t1, t2, Duration(3));
  p.maxSeparation(t4, t2, Duration(9));
  p.maxSeparation(t4, t2, Duration(21));
  p.maxSeparation(t4, t2, Duration(22));

  ScheduleResult r;
  ASSERT_NO_THROW(r = PowerAwareScheduler(p).schedule());
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_TRUE(ScheduleValidator(p).validate(*r.schedule).valid());
}

}  // namespace
}  // namespace paws
