// PowerAwareScheduler runs the timing and max-power stages once and polishes
// their schedule once per trial, unless a random candidate or victim order
// makes the stages read the trial's seed. Either way its result must equal
// the plain multi-trial pipeline, in which every trial runs all three
// stages through MinPowerScheduler::schedule(): same status, message,
// schedule text and all seven stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "gen/random_problem.hpp"
#include "guard/budget.hpp"
#include "io/parser.hpp"
#include "io/schedule_io.hpp"
#include "model/paper_example.hpp"
#include "obs/metrics.hpp"
#include "sched/min_power_scheduler.hpp"
#include "sched/power_aware_scheduler.hpp"

namespace paws {
namespace {

bool betterThan(const Schedule& a, const Schedule& b, Watts pmin) {
  const Energy ecA = a.energyCost(pmin);
  const Energy ecB = b.energyCost(pmin);
  if (ecA != ecB) return ecA < ecB;
  if (a.finish() != b.finish()) return a.finish() < b.finish();
  return a.utilization(pmin) > b.utilization(pmin);
}

/// The multi-trial pipeline with every stage re-run per trial: trial k
/// reseeds with base+k, flips the first scan direction on odd trials and
/// fills gaps from their end from trial 2 on; the best clean result wins
/// (energy cost, then finish, then utilization), every trial's stats are
/// summed.
ScheduleResult referencePipeline(const Problem& problem,
                                 const PowerAwareOptions& options) {
  const Watts pmin = problem.minPower();
  ScheduleResult best;
  bool haveBest = false;
  SchedulerStats total;
  const std::uint32_t trials = std::max<std::uint32_t>(options.trials, 1);
  for (std::uint32_t k = 0; k < trials; ++k) {
    MinPowerOptions opts = options.minPower;
    opts.randomSeed += k;
    opts.maxPower.randomSeed += k;
    opts.maxPower.timing.randomSeed += k;
    if (k % 2 == 1) {
      opts.scanOrder = opts.scanOrder == ScanOrder::kForward
                           ? ScanOrder::kBackward
                           : ScanOrder::kForward;
    }
    if (k >= 2) opts.slotHeuristic = SlotHeuristic::kFinishAtGapEnd;
    ScheduleResult r = MinPowerScheduler(problem, opts).schedule();
    total += r.stats;
    if (!r.ok()) {
      if (!haveBest) {
        const bool anytime = r.status == SchedStatus::kDeadlineExceeded &&
                             r.schedule.has_value();
        const bool bestAnytime = best.schedule.has_value();
        if (anytime) {
          if (!bestAnytime || betterThan(*r.schedule, *best.schedule, pmin)) {
            best = std::move(r);
          }
        } else if (!bestAnytime) {
          best = std::move(r);
        }
      }
      continue;
    }
    if (!haveBest || !best.ok() ||
        betterThan(*r.schedule, *best.schedule, pmin)) {
      best = std::move(r);
      haveBest = true;
    }
  }
  best.stats = total;
  return best;
}

std::string scheduleText(const ScheduleResult& r) {
  if (!r.schedule.has_value()) return "<none>";
  std::ostringstream os;
  io::writeSchedule(os, *r.schedule, "pipeline");
  return os.str();
}

/// Compares one problem's result against the reference; returns the
/// reference's status so callers can check which outcomes were covered.
SchedStatus expectMatchesReference(const Problem& problem,
                                   const PowerAwareOptions& options,
                                   const std::string& what) {
  const ScheduleResult want = referencePipeline(problem, options);
  const ScheduleResult got = PowerAwareScheduler(problem, options).schedule();
  EXPECT_EQ(got.status, want.status) << what;
  EXPECT_EQ(got.message, want.message) << what;
  EXPECT_EQ(scheduleText(got), scheduleText(want)) << what;
  EXPECT_EQ(got.stats.longestPathRuns, want.stats.longestPathRuns) << what;
  EXPECT_EQ(got.stats.backtracks, want.stats.backtracks) << what;
  EXPECT_EQ(got.stats.delays, want.stats.delays) << what;
  EXPECT_EQ(got.stats.locks, want.stats.locks) << what;
  EXPECT_EQ(got.stats.recursions, want.stats.recursions) << what;
  EXPECT_EQ(got.stats.scans, want.stats.scans) << what;
  EXPECT_EQ(got.stats.improvements, want.stats.improvements) << what;
  return want.status;
}

/// One generated problem of the sweep, with the pipeline options it runs
/// under: a backtrack budget of 5000 (a few problems exhaust it), and four
/// in ten bent toward a failure: a contradictory timing window, Pmax cut to
/// 60% or to the largest single draw (under budgets of 500 backtracks and
/// 200 delays, which such problems often exhaust), or a max-power delay
/// budget of 3.
struct Case {
  Problem problem;
  PowerAwareOptions options;
};

Case generatedCase(std::uint32_t i) {
  GeneratorConfig cfg;
  cfg.seed = 5000 + i;
  cfg.numTasks = 4 + i % 21;
  cfg.numResources = 1 + i % 4;
  cfg.pmaxHeadroomMw = static_cast<std::int64_t>(i % 3) * 400;
  cfg.pminFraction = 0.3 + 0.2 * static_cast<double>(i % 4);
  if (i % 5 == 0) cfg.backgroundPower = Watts::fromMilliwatts(250);
  cfg.injectContradiction = i % 10 == 6;
  Case c{generateRandomProblem(cfg).problem, {}};
  c.options.minPower.maxPower.timing.maxBacktracks = 5000;
  if (i % 10 == 7) {
    c.problem.setMaxPower(Watts::fromMilliwatts(
        c.problem.maxPower().milliwatts() * 3 / 5));
  } else if (i % 10 == 8) {
    Watts top = Watts::zero();
    for (TaskId v : c.problem.taskIds()) {
      top = std::max(top, c.problem.task(v).power);
    }
    c.problem.setMaxPower(top + c.problem.backgroundPower());
  } else if (i % 10 == 9) {
    c.options.minPower.maxPower.maxDelays = 3;
  }
  if (i % 10 == 7 || i % 10 == 8) {
    c.options.minPower.maxPower.timing.maxBacktracks = 500;
    c.options.minPower.maxPower.maxDelays = 200;
  }
  return c;
}

constexpr std::uint32_t kGenerated = 600;

TEST(PowerAwareSchedulerTest, SharedStagesMatchPerTrialPipelineOnGenerated) {
  std::map<SchedStatus, int> seen;
  for (std::uint32_t i = 0; i < kGenerated; ++i) {
    const Case c = generatedCase(i);
    ++seen[expectMatchesReference(c.problem, c.options,
                                  "generated " + std::to_string(i))];
  }
  // The sweep covers clean runs and every way the shared stages can fail.
  EXPECT_GE(seen[SchedStatus::kOk], 400);
  EXPECT_GE(seen[SchedStatus::kPowerInfeasible], 1);
  EXPECT_GE(seen[SchedStatus::kTimingInfeasible], 1);
  EXPECT_GE(seen[SchedStatus::kBudgetExhausted], 1);
}

TEST(PowerAwareSchedulerTest, SharedStagesMatchPerTrialPipelineOnExamples) {
  expectMatchesReference(makePaperExampleProblem(), {}, "paper example");
  PowerAwareOptions oneTrial;
  oneTrial.trials = 1;
  expectMatchesReference(makePaperExampleProblem(), oneTrial,
                         "paper example, 1 trial");
  PowerAwareOptions sevenTrials;
  sevenTrials.trials = 7;
  expectMatchesReference(makePaperExampleProblem(), sevenTrials,
                         "paper example, 7 trials");

  std::filesystem::path dir;
  for (const char* prefix :
       {"../../examples/data", "examples/data", "../examples/data"}) {
    if (std::filesystem::is_directory(prefix)) {
      dir = prefix;
      break;
    }
  }
  ASSERT_FALSE(dir.empty()) << "cannot locate examples/data";
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".paws") continue;
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    const io::ParseResult parsed = io::parseProblem(text.str());
    ASSERT_TRUE(parsed.ok()) << entry.path();
    EXPECT_EQ(expectMatchesReference(*parsed.problem, {},
                                     entry.path().filename().string()),
              SchedStatus::kOk);
    ++files;
  }
  EXPECT_GE(files, 3);
}

TEST(PowerAwareSchedulerTest, RandomVictimOrderRerunsStagesPerTrial) {
  std::map<SchedStatus, int> seen;
  for (std::uint32_t i = 0; i < kGenerated; i += 2) {
    Case c = generatedCase(i);
    c.options.minPower.maxPower.victimOrder = VictimOrder::kRandom;
    ++seen[expectMatchesReference(c.problem, c.options,
                                  "random victim " + std::to_string(i))];
  }
  EXPECT_GE(seen[SchedStatus::kOk], 150);
}

TEST(PowerAwareSchedulerTest, RandomCandidateOrderRerunsStagesPerTrial) {
  std::map<SchedStatus, int> seen;
  for (std::uint32_t i = 1; i < kGenerated; i += 2) {
    Case c = generatedCase(i);
    c.options.minPower.maxPower.timing.candidateOrder = CandidateOrder::kRandom;
    // A random order can backtrack far longer than the default one; a
    // small budget keeps the sweep fast and adds budget-exhausted trials.
    c.options.minPower.maxPower.timing.maxBacktracks = 500;
    ++seen[expectMatchesReference(c.problem, c.options,
                                  "random candidate " + std::to_string(i))];
  }
  EXPECT_GE(seen[SchedStatus::kOk], 100);
}

std::uint64_t phaseCount(const obs::MetricsRegistry& m, const char* phase) {
  return m.histogram(std::string("phase.") + phase + ".wall_us").count;
}

TEST(PowerAwareSchedulerTest, StagesRunOnceUnlessAnOrderIsRandom) {
  const Problem p = makePaperExampleProblem();
  {
    obs::MetricsRegistry metrics;
    PowerAwareOptions options;
    options.obs.metrics = &metrics;
    ASSERT_TRUE(PowerAwareScheduler(p, options).schedule().ok());
    EXPECT_EQ(phaseCount(metrics, "max-power"), 1u);
    EXPECT_EQ(phaseCount(metrics, "trial"), 4u);
    EXPECT_EQ(phaseCount(metrics, "min-power"), 4u);
    EXPECT_EQ(metrics.counter("pipeline.trials"), 4u);
  }
  {
    obs::MetricsRegistry metrics;
    PowerAwareOptions options;
    options.obs.metrics = &metrics;
    options.minPower.maxPower.victimOrder = VictimOrder::kRandom;
    ASSERT_TRUE(PowerAwareScheduler(p, options).schedule().ok());
    EXPECT_EQ(phaseCount(metrics, "max-power"), 4u);
    EXPECT_EQ(phaseCount(metrics, "trial"), 4u);
  }
  {
    obs::MetricsRegistry metrics;
    PowerAwareOptions options;
    options.obs.metrics = &metrics;
    options.minPower.maxPower.timing.candidateOrder = CandidateOrder::kRandom;
    PowerAwareScheduler(p, options).schedule();
    EXPECT_EQ(phaseCount(metrics, "max-power"), 4u);
  }
}

TEST(PowerAwareSchedulerTest, TrialsCounterCountsStartedTrials) {
  const Problem p = makePaperExampleProblem();
  guard::CancelSource source;
  source.cancel();
  obs::MetricsRegistry metrics;
  PowerAwareOptions options;
  options.budget.cancel = source.token();
  options.obs.metrics = &metrics;
  const ScheduleResult r = PowerAwareScheduler(p, options).schedule();
  EXPECT_EQ(r.status, SchedStatus::kDeadlineExceeded);
  // Trial 0 always starts; the guard stops the loop before trial 1.
  EXPECT_EQ(metrics.counter("pipeline.trials"), 1u);
  EXPECT_EQ(metrics.counter("pipeline.trials_ok"), 0u);
}

}  // namespace
}  // namespace paws
