// Reference test for polishSchedule: the move-local polish must return
// exactly what the original polish returned — the same starts and the same
// PolishStats — on random problems and on the paper example. The original
// is kept below verbatim as the oracle: every candidate pays a full
// feasibility check and a full profile build.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "gen/random_problem.hpp"
#include "model/paper_example.hpp"
#include "sched/polish.hpp"
#include "sched/power_aware_scheduler.hpp"
#include "validate/validator.hpp"

namespace paws {
namespace reference {

namespace {

/// Feasibility of a full start vector: pairwise timing constraints,
/// per-resource exclusivity, and the Pmax ceiling — the same admissibility
/// the exhaustive search and the validator enforce. O(n^2 + profile).
bool feasible(const Problem& problem, const std::vector<Time>& starts) {
  for (const TimingConstraint& c : problem.constraints()) {
    const Duration gap = starts[c.to.index()] - starts[c.from.index()];
    if (c.kind == TimingConstraint::Kind::kMinSeparation ? gap < c.separation
                                                         : gap > c.separation) {
      return false;
    }
  }
  const std::vector<TaskId> tasks = problem.taskIds();
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const Task& a = problem.task(tasks[i]);
    const Interval ia(starts[tasks[i].index()],
                      starts[tasks[i].index()] + a.delay);
    for (std::size_t j = i + 1; j < tasks.size(); ++j) {
      const Task& b = problem.task(tasks[j]);
      if (a.resource != b.resource) continue;
      const Interval ib(starts[tasks[j].index()],
                        starts[tasks[j].index()] + b.delay);
      if (ia.overlaps(ib)) return false;
    }
  }
  return !profileOf(problem, starts).firstSpike(problem.maxPower());
}

struct LexValue {
  Energy cost;
  Time finish;
};

LexValue valueOf(const Problem& problem, const std::vector<Time>& starts) {
  return {profileOf(problem, starts).energyAbove(problem.minPower()),
          finishOf(problem, starts)};
}

bool lexBetter(const LexValue& a, const LexValue& b) {
  return a.cost < b.cost || (a.cost == b.cost && a.finish < b.finish);
}

/// One candidate slot assignment: task `v` moved to start `at`.
struct Slot {
  TaskId task;
  Time at;
};

/// Every (task, start) pair within the horizon, in deterministic scan
/// order. A task whose delay no longer fits keeps only its current slot.
std::vector<Slot> candidateSlots(const Problem& problem,
                                 const std::vector<Time>& starts,
                                 Time horizon) {
  std::vector<Slot> slots;
  for (TaskId v : problem.taskIds()) {
    const Duration delay = problem.task(v).delay;
    if (Time::zero() + delay > horizon) {
      slots.push_back({v, starts[v.index()]});
      continue;
    }
    for (Time at = Time::zero(); at + delay <= horizon; at += Duration(1)) {
      slots.push_back({v, at});
    }
  }
  return slots;
}

}  // namespace

Schedule polishSchedule(const Problem& problem, const Schedule& start,
                        const PolishOptions& options, PolishStats* stats) {
  std::vector<Time> best = start.starts();
  LexValue bestValue = valueOf(problem, best);
  PolishStats local;
  std::vector<Time> scratch;

  // Returns true when a strictly lex-improving assignment was applied.
  const auto tryApply = [&](const std::vector<Time>& cand) {
    if (!feasible(problem, cand)) return false;
    const LexValue v = valueOf(problem, cand);
    if (!lexBetter(v, bestValue)) return false;
    best = cand;
    bestValue = v;
    return true;
  };

  bool improved = true;
  while (improved && local.singleMoves + local.pairMoves < options.maxMoves) {
    improved = false;
    const std::vector<Slot> slots = candidateSlots(problem, best, options.horizon);

    // Tier 1: first-improvement single moves.
    for (const Slot& s : slots) {
      if (s.at == best[s.task.index()]) continue;
      scratch = best;
      scratch[s.task.index()] = s.at;
      if (tryApply(scratch)) {
        ++local.singleMoves;
        improved = true;
        break;
      }
    }
    if (improved) continue;

    // Tier 2: first-improvement pair moves — the coordinated step single
    // moves cannot take (each half is typically cost-neutral alone).
    if (slots.size() > options.maxPairCandidates) break;
    for (std::size_t i = 0; i < slots.size() && !improved; ++i) {
      const Slot& a = slots[i];
      if (a.at == best[a.task.index()]) continue;
      for (std::size_t j = i + 1; j < slots.size(); ++j) {
        const Slot& b = slots[j];
        if (b.task == a.task) continue;
        if (b.at == best[b.task.index()]) continue;
        scratch = best;
        scratch[a.task.index()] = a.at;
        scratch[b.task.index()] = b.at;
        if (tryApply(scratch)) {
          ++local.pairMoves;
          improved = true;
          break;
        }
      }
    }
  }

  if (stats != nullptr) *stats = local;
  return Schedule(&problem, std::move(best));
}

}  // namespace reference

namespace {

using namespace paws::literals;

/// The exhaustive search's default horizon: serial span plus the largest
/// declared separation.
Time defaultHorizon(const Problem& problem) {
  Duration total = Duration::zero();
  for (TaskId v : problem.taskIds()) total += problem.task(v).delay;
  Duration maxSep = Duration::zero();
  for (const TimingConstraint& c : problem.constraints()) {
    maxSep = std::max(maxSep, c.separation);
  }
  return Time::zero() + total + maxSep;
}

/// The pipeline's schedule when the validator accepts it and it finishes
/// within `horizon`.
std::optional<Schedule> cleanPipelineSchedule(const Problem& problem,
                                              Time horizon) {
  ScheduleResult r = PowerAwareScheduler(problem).schedule();
  if (!r.ok() || r.schedule->finish() > horizon ||
      !ScheduleValidator(problem).validate(*r.schedule).valid()) {
    return std::nullopt;
  }
  return std::move(r.schedule);
}

/// Polishes `input` with both implementations; true when it moved.
bool expectSamePolish(const Problem& problem, const Schedule& input,
                      Time horizon, const std::string& what) {
  PolishOptions options;
  options.horizon = horizon;
  PolishStats want;
  PolishStats got;
  const Schedule expected =
      reference::polishSchedule(problem, input, options, &want);
  const Schedule actual = polishSchedule(problem, input, options, &got);
  EXPECT_EQ(actual.starts(), expected.starts()) << what;
  EXPECT_EQ(got.singleMoves, want.singleMoves) << what;
  EXPECT_EQ(got.pairMoves, want.pairMoves) << what;
  return actual.starts() != input.starts();
}

TEST(PolishReferenceTest, RandomProblemsMatchTheReference) {
  constexpr std::size_t kPolished = 2000;
  std::size_t polished = 0;
  std::size_t moved = 0;
  std::size_t pairMoved = 0;
  for (std::uint32_t seed = 1; polished < kPolished; ++seed) {
    ASSERT_LT(seed, 20u * kPolished) << "too few clean pipeline schedules";
    GeneratorConfig cfg;
    cfg.seed = seed;
    cfg.numTasks = 4 + seed % 5;
    cfg.numResources = 1 + (seed / 5) % 4;
    cfg.maxDelay = 4;
    cfg.maxSepHeadroom = 6;
    cfg.witnessJitter = 2;
    cfg.pmaxHeadroomMw = 400 * ((seed / 3) % 3);
    cfg.backgroundPower = Watts::fromMilliwatts(300 * ((seed / 20) % 3));
    const GeneratedProblem gp = generateRandomProblem(cfg);
    const Time horizon = defaultHorizon(gp.problem);
    const std::optional<Schedule> input =
        cleanPipelineSchedule(gp.problem, horizon);
    if (!input.has_value()) continue;
    ++polished;
    PolishOptions options;
    options.horizon = horizon;
    PolishStats stats;
    polishSchedule(gp.problem, *input, options, &stats);
    pairMoved += stats.pairMoves > 0;
    moved += expectSamePolish(gp.problem, *input, horizon,
                              "seed " + std::to_string(seed));
    if (HasFailure()) return;
  }
  // The sample really exercises both tiers.
  EXPECT_GT(moved, kPolished / 2);
  EXPECT_GT(pairMoved, kPolished / 4);
}

TEST(PolishReferenceTest, PaperExampleMatchesTheReference) {
  const Problem problem = makePaperExampleProblem();
  const Time horizon(30);
  const std::optional<Schedule> input = cleanPipelineSchedule(problem, horizon);
  ASSERT_TRUE(input.has_value());
  EXPECT_TRUE(expectSamePolish(problem, *input, horizon, "paper example"));
}

TEST(PolishReferenceTest, SwapNeedsThePartnerItsFirstMoveHits) {
  // a and b share a resource; c is pinned at 0. Swapping a and b takes the
  // cost from 4 J to 0, but either half alone overlaps the other task, so
  // the winning pair's first move conflicts with its partner.
  Problem problem;
  const ResourceId r1 = problem.addResource("r1");
  const ResourceId r2 = problem.addResource("r2");
  const TaskId a = problem.addTask("a", Duration(2), 3_W, r1);
  const TaskId b = problem.addTask("b", Duration(2), 1_W, r1);
  const TaskId c = problem.addTask("c", Duration(2), 2_W, r2);
  problem.minSeparation(kAnchorTask, c, Duration(0));
  problem.maxSeparation(kAnchorTask, c, Duration(0));
  problem.setMaxPower(10_W);
  problem.setMinPower(3_W);
  const Schedule input(&problem, {Time(0), Time(0), Time(2), Time(0)});
  ASSERT_TRUE(ScheduleValidator(problem).validate(input).valid());

  EXPECT_TRUE(expectSamePolish(problem, input, Time(4), "swap"));
  PolishOptions options;
  options.horizon = Time(4);
  PolishStats stats;
  const Schedule out = polishSchedule(problem, input, options, &stats);
  EXPECT_EQ(out.start(a), Time(2));
  EXPECT_EQ(out.start(b), Time(0));
  EXPECT_EQ(stats.singleMoves, 0u);
  EXPECT_EQ(stats.pairMoves, 1u);
}

TEST(PolishReferenceTest, ResourceOverlapComesBackUnchanged) {
  // Two tasks on one resource, overlapping: outside the polish's contract,
  // so it must not try to mend (or worsen) the schedule.
  Problem problem;
  const ResourceId r = problem.addResource("bus");
  problem.addTask("a", Duration(3), Watts::fromMilliwatts(1000), r);
  problem.addTask("b", Duration(3), Watts::fromMilliwatts(1000), r);
  problem.setMaxPower(Watts::fromMilliwatts(5000));
  const Schedule input(&problem, {Time(0), Time(0), Time(1)});
  PolishOptions options;
  options.horizon = Time(10);
  PolishStats stats;
  stats.singleMoves = 7;
  const Schedule out = polishSchedule(problem, input, options, &stats);
  EXPECT_EQ(out.starts(), input.starts());
  EXPECT_EQ(stats.singleMoves, 0u);
  EXPECT_EQ(stats.pairMoves, 0u);
}

}  // namespace
}  // namespace paws
