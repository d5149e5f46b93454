#include "sched/exhaustive_scheduler.hpp"

#include <gtest/gtest.h>

#include "gen/random_problem.hpp"
#include "sched/power_aware_scheduler.hpp"
#include "validate/validator.hpp"

namespace paws {
namespace {

using namespace paws::literals;

TEST(ExhaustiveSchedulerTest, TrivialSingleTask) {
  Problem p("one");
  const ResourceId r1 = p.addResource("r1");
  p.addTask("a", 3_s, 2_W, r1);
  p.setMaxPower(5_W);
  ExhaustiveScheduler scheduler(p);
  const ScheduleResult r = scheduler.schedule();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.schedule->start(TaskId(1)), Time(0));
  EXPECT_TRUE(scheduler.outcome().provenOptimal);
}

TEST(ExhaustiveSchedulerTest, FindsTheCheapSlot) {
  // Two tasks, budget forbids overlap; Pmin makes overlap-with-nothing
  // wasteful: optimal is back-to-back (any idle below Pmin wastes free
  // energy AND cannot reduce Ec, but a longer span can't reduce Ec either;
  // Ec ties, so finish time breaks the tie -> compact schedule).
  Problem p("two");
  const ResourceId r1 = p.addResource("r1");
  const ResourceId r2 = p.addResource("r2");
  p.addTask("a", 4_s, 5_W, r1);
  p.addTask("b", 4_s, 5_W, r2);
  p.setMaxPower(8_W);
  p.setMinPower(5_W);
  ExhaustiveScheduler scheduler(p);
  const ScheduleResult r = scheduler.schedule();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.schedule->finish(), Time(8));
  EXPECT_EQ(r.schedule->energyCost(5_W), Energy::zero());
}

TEST(ExhaustiveSchedulerTest, PrefersCheaperOverFaster) {
  // Overlap is allowed (16W budget) but costs battery energy above
  // Pmin=5W; serial execution is slower yet free. The lexicographic
  // (Ec, tau) objective must pick serial.
  Problem p("tradeoff");
  const ResourceId r1 = p.addResource("r1");
  const ResourceId r2 = p.addResource("r2");
  p.addTask("a", 4_s, 5_W, r1);
  p.addTask("b", 4_s, 5_W, r2);
  p.setMaxPower(16_W);
  p.setMinPower(5_W);
  ExhaustiveScheduler scheduler(p);
  const ScheduleResult r = scheduler.schedule();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.schedule->energyCost(5_W), Energy::zero());
  EXPECT_EQ(r.schedule->finish(), Time(8)) << "serial, not overlapped";
}

TEST(ExhaustiveSchedulerTest, RespectsWindows) {
  Problem p("win");
  const ResourceId r1 = p.addResource("r1");
  const ResourceId r2 = p.addResource("r2");
  const TaskId a = p.addTask("a", 3_s, 2_W, r1);
  const TaskId b = p.addTask("b", 3_s, 2_W, r2);
  p.minSeparation(a, b, 5_s);
  p.maxSeparation(a, b, 7_s);
  p.setMaxPower(10_W);
  ExhaustiveScheduler scheduler(p);
  const ScheduleResult r = scheduler.schedule();
  ASSERT_TRUE(r.ok());
  const Duration gap = r.schedule->start(b) - r.schedule->start(a);
  EXPECT_GE(gap, Duration(5));
  EXPECT_LE(gap, Duration(7));
  EXPECT_TRUE(ScheduleValidator(p).validate(*r.schedule).valid());
}

TEST(ExhaustiveSchedulerTest, DetectsInfeasibility) {
  Problem p("bad");
  const ResourceId r1 = p.addResource("r1");
  p.addTask("a", 3_s, 9_W, r1);
  p.setMaxPower(5_W);
  ExhaustiveScheduler scheduler(p);
  const ScheduleResult r = scheduler.schedule();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status, SchedStatus::kPowerInfeasible);
  EXPECT_TRUE(scheduler.outcome().provenOptimal) << "exhausted, not aborted";
}

TEST(ExhaustiveSchedulerTest, NodeBudgetTrips) {
  GeneratorConfig cfg;
  cfg.seed = 2;
  cfg.numTasks = 8;
  cfg.numResources = 3;
  const GeneratedProblem gp = generateRandomProblem(cfg);
  ExhaustiveOptions opt;
  opt.maxNodes = 50;
  ExhaustiveScheduler scheduler(gp.problem, opt);
  (void)scheduler.schedule();
  EXPECT_FALSE(scheduler.outcome().provenOptimal);
}

TEST(ExhaustiveSchedulerTest, NodeBudgetCutsAtTheSameNodeOnOneWorker) {
  // Workers add their node counts to the shared total in batches, but the
  // budget test reads the total plus the unflushed count: one worker stops
  // on exactly the node the per-node counter stopped on, also around a
  // batch boundary, and keeps the incumbent found by then. The costs were
  // recorded with the per-node counter.
  GeneratorConfig cfg;
  cfg.seed = 2;
  cfg.numTasks = 6;
  cfg.numResources = 3;
  const GeneratedProblem gp = generateRandomProblem(cfg);
  struct Cut {
    std::uint64_t maxNodes;
    std::int64_t costMwt;
  };
  for (const Cut& cut : {Cut{50, 45745}, Cut{1023, 40643}, Cut{1024, 40643},
                         Cut{1025, 40643}, Cut{40000, 40643}}) {
    ExhaustiveOptions opt;
    opt.maxNodes = cut.maxNodes;
    opt.jobs = 1;
    ExhaustiveScheduler scheduler(gp.problem, opt);
    const ScheduleResult r = scheduler.schedule();
    EXPECT_EQ(scheduler.outcome().nodesExplored, cut.maxNodes + 1);
    EXPECT_FALSE(scheduler.outcome().provenOptimal);
    ASSERT_TRUE(r.schedule.has_value()) << cut.maxNodes;
    EXPECT_EQ(r.schedule->energyCost(gp.problem.minPower()).milliwattTicks(),
              cut.costMwt)
        << cut.maxNodes;
    EXPECT_EQ(r.schedule->finish().ticks(), 18) << cut.maxNodes;
  }
}

class ExhaustiveVsHeuristic : public ::testing::TestWithParam<std::uint32_t> {
};

TEST_P(ExhaustiveVsHeuristic, HeuristicNeverBeatsTheOracle) {
  GeneratorConfig cfg;
  cfg.seed = GetParam();
  cfg.numTasks = 5;
  cfg.numResources = 2;
  cfg.maxDelay = 4;
  cfg.witnessJitter = 2;
  cfg.pmaxHeadroomMw = 500;
  const GeneratedProblem gp = generateRandomProblem(cfg);

  ExhaustiveScheduler oracle(gp.problem);
  const ScheduleResult opt = oracle.schedule();
  ASSERT_TRUE(opt.ok()) << "witness guarantees a valid schedule exists";
  ASSERT_TRUE(oracle.outcome().provenOptimal);
  EXPECT_TRUE(ScheduleValidator(gp.problem).validate(*opt.schedule).valid());

  PowerAwareScheduler heuristic(gp.problem);
  const ScheduleResult h = heuristic.schedule();
  if (!h.ok()) return;  // heuristic may fail; oracle quantifies that too
  const Watts pmin = gp.problem.minPower();
  // Lexicographic (Ec, tau): the oracle is optimal.
  const Energy ecOracle = opt.schedule->energyCost(pmin);
  const Energy ecHeur = h.schedule->energyCost(pmin);
  EXPECT_LE(ecOracle, ecHeur) << "seed " << GetParam();
  if (ecOracle == ecHeur) {
    EXPECT_LE(opt.schedule->finish(), h.schedule->finish())
        << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(SmallSeeds, ExhaustiveVsHeuristic,
                         ::testing::Range(1u, 13u));

}  // namespace
}  // namespace paws
