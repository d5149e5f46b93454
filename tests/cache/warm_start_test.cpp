// Warm-start and cached-solve properties.
//
// The load-bearing claim: seeding the branch-and-bound search with a valid
// schedule's (cost, finish) is *invisible* in the result. The shared bound
// holds the cost (strictly-greater pruning never cuts a cost-tying leaf)
// and each worker's local incumbent starts as the phantom (cost, finish+1),
// which the lex-first optimum always strictly improves — so no node on the
// path to the optimum is ever cut, while the node count can only shrink.
// The tests pin byte-identity (starts, cost, finish) and demand a strict
// node reduction on the paper example and on at least 8 random instances.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "base/units.hpp"
#include "cache/cached_solve.hpp"
#include "cache/canonical.hpp"
#include "cache/schedule_cache.hpp"
#include "gen/random_problem.hpp"
#include "io/schedule_io.hpp"
#include "model/paper_example.hpp"
#include "obs/metrics.hpp"
#include "sched/exhaustive_scheduler.hpp"
#include "sched/polish.hpp"
#include "sched/power_aware_scheduler.hpp"
#include "sched/serial_scheduler.hpp"
#include "validate/validator.hpp"

namespace paws::cache {
namespace {

using namespace paws::literals;

struct SearchRun {
  std::vector<Time> starts;
  std::int64_t costMwt = 0;
  std::int64_t finishTicks = 0;
  bool provenOptimal = false;
  std::uint64_t nodes = 0;
};

struct Seed {
  Energy cost;
  Time finish;
};

SearchRun runExhaustive(const Problem& problem, std::optional<Seed> seed,
                        std::optional<Time> horizon = std::nullopt) {
  ExhaustiveOptions options;
  options.jobs = 1;  // deterministic node counts
  options.horizon = horizon;
  if (seed.has_value()) {
    options.initialIncumbent = seed->cost;
    options.initialIncumbentFinish = seed->finish;
  }
  ExhaustiveScheduler scheduler(problem, options);
  const ScheduleResult r = scheduler.schedule();
  SearchRun run;
  run.provenOptimal = scheduler.outcome().provenOptimal;
  run.nodes = scheduler.outcome().nodesExplored;
  if (r.ok()) {
    run.starts = r.schedule->starts();
    run.costMwt = r.schedule->energyCost(problem.minPower()).milliwattTicks();
    run.finishTicks = r.schedule->finish().ticks();
  }
  return run;
}

/// The exhaustive scheduler's default horizon, for instances that do not
/// pass one explicitly (mirrors ExhaustiveScheduler::schedule()).
Time defaultHorizon(const Problem& problem) {
  Duration total = Duration::zero();
  for (TaskId v : problem.taskIds()) total += problem.task(v).delay;
  Duration maxSep = Duration::zero();
  for (const TimingConstraint& c : problem.constraints()) {
    maxSep = std::max(maxSep, c.separation);
  }
  return Time::zero() + total + maxSep;
}

/// The warm-start seed solveThroughCache builds: the lex-best valid
/// in-horizon schedule of {pipeline, serial}, polished.
std::optional<Seed> warmSeed(const Problem& problem, Time horizon) {
  ScheduleValidator validator(problem);
  std::optional<Schedule> best;
  const auto offer = [&](ScheduleResult r) {
    if (!r.ok() || r.schedule->finish() > horizon) return;
    if (!validator.validate(*r.schedule).valid()) return;
    const Energy cost = r.schedule->energyCost(problem.minPower());
    if (!best.has_value() || cost < best->energyCost(problem.minPower()) ||
        (cost == best->energyCost(problem.minPower()) &&
         r.schedule->finish() < best->finish())) {
      best = *r.schedule;
    }
  };
  offer(PowerAwareScheduler(problem).schedule());
  offer(SerialScheduler(problem).schedule());
  if (!best.has_value()) return std::nullopt;
  PolishOptions options;
  options.horizon = horizon;
  Schedule polished = polishSchedule(problem, *best, options);
  EXPECT_TRUE(validator.validate(polished).valid());
  EXPECT_LE(polished.finish(), horizon);
  return Seed{polished.energyCost(problem.minPower()), polished.finish()};
}

GeneratorConfig smallConfig(std::uint32_t seed) {
  GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.numTasks = 5;
  cfg.numResources = 2;
  cfg.maxDelay = 3;
  cfg.witnessJitter = 2;
  cfg.pmaxHeadroomMw = 400;
  return cfg;
}

TEST(WarmStartTest, PaperExampleByteIdenticalAndStrictlyFewerNodes) {
  // Horizon 30 keeps the 9-task search tractable while containing the
  // optimum (same setting as the pruning-equivalence suite).
  const Problem problem = makePaperExampleProblem();
  const std::optional<Seed> seed = warmSeed(problem, Time(30));
  ASSERT_TRUE(seed.has_value());
  ASSERT_LE(seed->finish, Time(30));  // the seed must fit the horizon
  const SearchRun cold = runExhaustive(problem, std::nullopt, Time(30));
  const SearchRun warm = runExhaustive(problem, seed, Time(30));
  ASSERT_TRUE(cold.provenOptimal);
  ASSERT_TRUE(warm.provenOptimal);
  EXPECT_EQ(warm.starts, cold.starts);
  EXPECT_EQ(warm.costMwt, cold.costMwt);
  EXPECT_EQ(warm.finishTicks, cold.finishTicks);
  EXPECT_LT(warm.nodes, cold.nodes);
}

TEST(WarmStartTest, RandomInstancesByteIdenticalAndStrictlyFewerNodes) {
  int strictlyFewer = 0;
  for (std::uint32_t seed = 1; seed <= 12; ++seed) {
    const GeneratedProblem gp = generateRandomProblem(smallConfig(seed));
    const std::optional<Seed> incumbent =
        warmSeed(gp.problem, defaultHorizon(gp.problem));
    ASSERT_TRUE(incumbent.has_value()) << "seed " << seed;
    const SearchRun cold = runExhaustive(gp.problem, std::nullopt);
    const SearchRun warm = runExhaustive(gp.problem, incumbent);
    EXPECT_EQ(warm.starts, cold.starts) << "seed " << seed;
    EXPECT_EQ(warm.costMwt, cold.costMwt) << "seed " << seed;
    EXPECT_EQ(warm.finishTicks, cold.finishTicks) << "seed " << seed;
    EXPECT_LE(warm.nodes, cold.nodes) << "seed " << seed;
    if (warm.nodes < cold.nodes) ++strictlyFewer;
  }
  EXPECT_GE(strictlyFewer, 8)
      << "the warm start must actually prune on most instances";
}

TEST(CachedSolveTest, SecondSolveIsAnExactHitWithIdenticalBytes) {
  ScheduleCache cache;
  const GeneratedProblem gp = generateRandomProblem(smallConfig(3));
  SolveSpec spec;  // pipeline
  SolveInfo first, second;
  const ScheduleResult a =
      solveThroughCache(&cache, gp.problem, spec, &first);
  const ScheduleResult b =
      solveThroughCache(&cache, gp.problem, spec, &second);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(first.cacheHit);
  EXPECT_TRUE(second.cacheHit);
  EXPECT_EQ(io::scheduleToText(*a.schedule, "x"),
            io::scheduleToText(*b.schedule, "x"));
  // A hit reprints the producing solve's effort numbers.
  EXPECT_EQ(b.stats.longestPathRuns, a.stats.longestPathRuns);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(CachedSolveTest, CacheOnAndOffAreByteIdenticalAcrossJobs) {
  const GeneratedProblem gp = generateRandomProblem(smallConfig(5));
  for (const char* scheduler : {"pipeline", "optimal"}) {
    for (const std::size_t jobs :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      SolveSpec spec;
      spec.scheduler = scheduler;
      spec.jobs = jobs;
      const ScheduleResult off =
          solveThroughCache(nullptr, gp.problem, spec);
      ScheduleCache cache;  // fresh: first solve may warm-start, never hit
      const ScheduleResult on =
          solveThroughCache(&cache, gp.problem, spec);
      ASSERT_TRUE(off.ok());
      ASSERT_TRUE(on.ok());
      EXPECT_EQ(io::scheduleToText(*on.schedule, "x"),
                io::scheduleToText(*off.schedule, "x"))
          << scheduler << " jobs=" << jobs;
    }
  }
}

TEST(CachedSolveTest, OptimalSolveWarmStartsThenHits) {
  ScheduleCache cache;
  const GeneratedProblem gp = generateRandomProblem(smallConfig(7));
  SolveSpec spec;
  spec.scheduler = "optimal";
  SolveInfo first, second;
  const ScheduleResult a =
      solveThroughCache(&cache, gp.problem, spec, &first);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(first.warmStarted);
  EXPECT_TRUE(first.provenOptimal);
  EXPECT_EQ(cache.stats().warmStarts, 1u);
  const ScheduleResult b =
      solveThroughCache(&cache, gp.problem, spec, &second);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(second.cacheHit);
  EXPECT_TRUE(second.provenOptimal);
  EXPECT_EQ(io::scheduleToText(*b.schedule, "x"),
            io::scheduleToText(*a.schedule, "x"));
}

TEST(CachedSolveTest, OptimalMissRecordsOneWarmSeedSpan) {
  ScheduleCache cache;
  const GeneratedProblem gp = generateRandomProblem(smallConfig(7));
  obs::MetricsRegistry missMetrics;
  SolveSpec spec;
  spec.scheduler = "optimal";
  spec.obs.metrics = &missMetrics;
  SolveInfo miss;
  ASSERT_TRUE(solveThroughCache(&cache, gp.problem, spec, &miss).ok());
  ASSERT_TRUE(miss.warmStarted);
  EXPECT_EQ(missMetrics.histogram("phase.warm-seed.wall_us").count, 1u);

  obs::MetricsRegistry hitMetrics;
  spec.obs.metrics = &hitMetrics;
  SolveInfo hit;
  ASSERT_TRUE(solveThroughCache(&cache, gp.problem, spec, &hit).ok());
  ASSERT_TRUE(hit.cacheHit);
  EXPECT_EQ(hitMetrics.histogram("phase.warm-seed.wall_us").count, 0u);
}

TEST(CachedSolveTest, NearMissRevalidatesOnALimitsDelta) {
  ScheduleCache cache;
  const GeneratedProblem gp = generateRandomProblem(smallConfig(9));
  SolveSpec spec;  // pipeline
  ASSERT_TRUE(solveThroughCache(&cache, gp.problem, spec).ok());

  // Same skeleton, different Pmin: full canonical hash moves, structural
  // hash does not — the near-miss path must serve via revalidation.
  Problem delta = gp.problem;
  delta.setMinPower(delta.minPower() + Watts::fromWatts(0.5));
  ASSERT_NE(canonicalize(delta).hash, canonicalize(gp.problem).hash);
  ASSERT_EQ(canonicalize(delta).structuralHash,
            canonicalize(gp.problem).structuralHash);
  SolveInfo info;
  const ScheduleResult r = solveThroughCache(&cache, delta, spec, &info);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(info.revalidated);
  EXPECT_TRUE(ScheduleValidator(delta).validate(*r.schedule).valid());
  EXPECT_EQ(cache.stats().revalidations, 1u);

  // The revalidated result is inserted under its own key: the same delta
  // problem now hits exactly.
  SolveInfo again;
  ASSERT_TRUE(solveThroughCache(&cache, delta, spec, &again).ok());
  EXPECT_TRUE(again.cacheHit);
}

TEST(CachedSolveTest, NearMissRepairsWhenTheCachedPlanTurnedInvalid) {
  ScheduleCache cache;
  // Two tasks on one resource, serial by construction.
  Problem base("nm");
  const ResourceId r1 = base.addResource("r1");
  const TaskId a = base.addTask("a", 2_s, 2_W, r1);
  const TaskId b = base.addTask("b", 2_s, 2_W, r1);
  base.minSeparation(a, b, 2_s);
  base.setMaxPower(5_W);
  SolveSpec spec;
  ASSERT_TRUE(solveThroughCache(&cache, base, spec).ok());

  // Rebuild with a longer "a": delay is NOT structural, so this is a near
  // miss, but the cached starts now overlap on r1 — the resolver must fall
  // through to repairSchedule and still serve a valid plan.
  Problem longer("nm");
  const ResourceId r2 = longer.addResource("r1");
  const TaskId a2 = longer.addTask("a", 4_s, 2_W, r2);
  const TaskId b2 = longer.addTask("b", 2_s, 2_W, r2);
  longer.minSeparation(a2, b2, 2_s);
  longer.setMaxPower(5_W);
  ASSERT_EQ(canonicalize(longer).structuralHash,
            canonicalize(base).structuralHash);
  SolveInfo info;
  const ScheduleResult r = solveThroughCache(&cache, longer, spec, &info);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(info.revalidated);
  EXPECT_TRUE(ScheduleValidator(longer).validate(*r.schedule).valid());
}

/// Near-miss deltas of `base`: three new Pmin values and three Pmax
/// raises of up to 10% (the sched suite's WarmStartPolishTest uses the
/// same ones).
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

TEST(CachedSolveTest, NearMissRevalidatesEveryStillValidVariant) {
  // A variant the cached pipeline schedule still satisfies must be served
  // by rung 2: the warm-started polish keeps each resource's task order,
  // so it never hands the validator an overlap that forces a cold solve.
  std::uint64_t stillValid = 0;
  std::uint64_t revalidations = 0;
  for (std::uint32_t seed = 1; seed <= 64; ++seed) {
    GeneratorConfig config;
    config.seed = seed;
    config.numTasks = 8 + seed % 9;
    config.numResources = 2 + seed % 3;
    const Problem base = generateRandomProblem(config).problem;
    SolveSpec spec;  // pipeline
    ScheduleCache warm;
    const ScheduleResult cached = solveThroughCache(&warm, base, spec);
    if (!cached.ok()) continue;
    const CacheKey baseKey = exactKey(base, spec);
    const CacheEntry entry = *warm.peek(baseKey);
    for (const Problem& variant : limitVariants(base)) {
      if (!ScheduleValidator(variant).validate(*cached.schedule).valid()) {
        continue;
      }
      ++stillValid;
      ScheduleCache cache;  // holds exactly the base's entry
      cache.insert(baseKey, entry);
      SolveInfo info;
      const ScheduleResult r = solveThroughCache(&cache, variant, spec, &info);
      ASSERT_TRUE(r.ok()) << "seed " << seed;
      EXPECT_TRUE(info.revalidated) << "seed " << seed;
      revalidations += cache.stats().revalidations;
    }
  }
  EXPECT_GE(stillValid, 300u) << "the pipeline must solve most seeds";
  EXPECT_EQ(revalidations, stillValid);
}

TEST(CachedSolveTest, ListAnswerFailingValidationIsNeverInserted) {
  // paws::gen seed 3 (7 tasks, 2 resources): the list baseline ignores
  // max separations and answers kOk with a schedule that breaks one. The
  // miss's validator run keeps it out of the cache, so a repeat is a plain
  // miss, not a hit that fails rebind and is re-solved and re-inserted.
  GeneratorConfig config;
  config.seed = 3;
  config.numTasks = 7;
  config.numResources = 2;
  const Problem problem = generateRandomProblem(config).problem;
  SolveSpec spec;
  spec.scheduler = "list";
  ScheduleCache cache;
  for (int request = 0; request < 2; ++request) {
    SolveInfo info;
    const ScheduleResult r = solveThroughCache(&cache, problem, spec, &info);
    ASSERT_TRUE(r.ok());  // the baseline's own verdict
    EXPECT_FALSE(ScheduleValidator(problem).validate(*r.schedule).valid());
    EXPECT_TRUE(info.validationFailed);
    EXPECT_FALSE(info.cacheHit);
  }
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(CachedSolveTest, HashCollisionServesAMissNotAWrongAnswer) {
  // Force the pathological case by inserting an entry whose schedule text
  // cannot rebind to the querying problem under the right key: the resolver
  // must fall through to a cold solve, never serve garbage.
  ScheduleCache cache;
  const GeneratedProblem gp = generateRandomProblem(smallConfig(11));
  SolveSpec spec;
  const CanonicalForm form = canonicalize(gp.problem);
  CacheEntry poisoned;
  poisoned.scheduleText = "schedule \"x\" of \"some_other_problem\" {\n}\n";
  poisoned.structuralHash = form.structuralHash;
  cache.insert(CacheKey{form.hash, optionsFingerprint("pipeline", 4)},
               poisoned);
  SolveInfo info;
  const ScheduleResult r = solveThroughCache(&cache, gp.problem, spec, &info);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(info.cacheHit);
  EXPECT_TRUE(ScheduleValidator(gp.problem).validate(*r.schedule).valid());
}

TEST(CachedSolveTest, SplitRungsMatchTheComposedLadder) {
  // exactKey + tryServeExact + solveMiss is how pawsd takes the ladder
  // apart (rung 1 on the connection thread, rungs 2-4 on a worker). Over
  // seeded traffic (first sight, repeat, and a Pmin near miss, under every
  // scheduler) it must serve the same bytes and count the same traffic as
  // solveThroughCache. A small cache makes evictions part of the story.
  ScheduleCache composed(16, 2);
  ScheduleCache split(16, 2);
  std::size_t hits = 0;
  for (std::uint32_t seed = 1; seed <= 12; ++seed) {
    Problem base = generateRandomProblem(smallConfig(seed)).problem;
    Problem variant = base;
    variant.setMinPower(variant.minPower() + Watts::fromWatts(0.25));
    for (const char* scheduler : {"pipeline", "list", "serial", "optimal"}) {
      SolveSpec spec;
      spec.scheduler = scheduler;
      for (const Problem* p : {&base, &base, &variant, &variant}) {
        SolveInfo a;
        SolveInfo b;
        const ScheduleResult viaLadder =
            solveThroughCache(&composed, *p, spec, &a);
        const CacheKey key = exactKey(*p, spec);
        EXPECT_EQ(key.problemHash, canonicalize(*p).hash);
        std::optional<ScheduleResult> viaSplit =
            tryServeExact(split, *p, key, &b);
        if (!viaSplit.has_value()) {
          viaSplit = solveMiss(split, *p, spec, key, &b);
        }
        ASSERT_EQ(viaLadder.status, viaSplit->status) << scheduler << seed;
        ASSERT_EQ(viaLadder.schedule.has_value(),
                  viaSplit->schedule.has_value());
        if (viaLadder.schedule.has_value()) {
          EXPECT_EQ(io::scheduleToText(*viaLadder.schedule, scheduler),
                    io::scheduleToText(*viaSplit->schedule, scheduler))
              << scheduler << " seed " << seed;
        }
        EXPECT_EQ(a.cacheHit, b.cacheHit);
        EXPECT_EQ(a.revalidated, b.revalidated);
        EXPECT_EQ(a.warmStarted, b.warmStarted);
        EXPECT_EQ(a.provenOptimal, b.provenOptimal);
        EXPECT_EQ(a.nodesExplored, b.nodesExplored);
        EXPECT_EQ(a.validationFailed, b.validationFailed);
        if (b.cacheHit) ++hits;
      }
    }
  }
  const CacheStats want = composed.stats();
  const CacheStats got = split.stats();
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.insertions, want.insertions);
  EXPECT_EQ(got.evictions, want.evictions);
  EXPECT_EQ(got.revalidations, want.revalidations);
  EXPECT_EQ(got.warmStarts, want.warmStarts);
  EXPECT_EQ(got.hits, hits);
  // The traffic really exercises every counted rung.
  EXPECT_GT(got.hits, 0u);
  EXPECT_GT(got.revalidations, 0u);
  EXPECT_GT(got.warmStarts, 0u);
  EXPECT_GT(got.evictions, 0u);
}

}  // namespace
}  // namespace paws::cache
