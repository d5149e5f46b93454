// Property sweep: cache keys and exact hits on generated problems that
// carry anchor constraints.
//
// paws::gen never emits release, deadline or pin constraints, and every
// seed, bench workload and golden depends on its output staying as it is.
// So this sweep adds them itself, each where the generator's witness
// schedule satisfies it, and checks over 300 seeds (4-24 tasks) that
//   * the witness still passes ScheduleValidator;
//   * the key-only hash is the FNV-1a-64 of the full canonical text;
//   * the key ignores the order resources, tasks and constraints are
//     declared in;
//   * changing one anchor bound changes the key;
//   * a repeat solve through the cache is an exact hit with the cold
//     solve's bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "base/hash.hpp"
#include "cache/cached_solve.hpp"
#include "cache/canonical.hpp"
#include "cache/schedule_cache.hpp"
#include "gen/random_problem.hpp"
#include "io/schedule_io.hpp"
#include "validate/validator.hpp"

namespace paws::cache {
namespace {

struct AnchorBounds {
  TaskId released;
  Time releaseAt;
  TaskId due;
  Time dueBy;
  TaskId pinned;
  Time pinAt;
};

/// Release, deadline and pin bounds the witness meets, each on a task and
/// with a slack picked from the seed.
AnchorBounds witnessBounds(const GeneratedProblem& g, std::uint32_t seed) {
  const Problem& p = g.problem;
  const std::size_t n = p.numTasks();
  const auto task = [n](std::uint32_t k) {
    return TaskId(static_cast<std::uint32_t>(1 + k % n));
  };
  AnchorBounds b;
  b.released = task(seed);
  const Time start = g.witnessStarts[b.released.index()];
  b.releaseAt = Time(start.ticks() - std::min<std::int64_t>(start.ticks(),
                                                            seed % 3));
  b.due = task(seed * 7 + 3);
  b.dueBy = g.witnessStarts[b.due.index()] + p.task(b.due).delay +
            Duration(static_cast<std::int64_t>(seed % 4));
  b.pinned = task(seed * 13 + 5);
  b.pinAt = g.witnessStarts[b.pinned.index()];
  return b;
}

Problem withAnchors(Problem p, const AnchorBounds& b) {
  p.release(b.released, b.releaseAt);
  p.deadline(b.due, b.dueBy);
  p.pin(b.pinned, b.pinAt);
  return p;
}

/// The same problem with resources, tasks and constraints each declared
/// in reverse order.
Problem reversed(const Problem& p) {
  Problem q(p.name());
  std::vector<ResourceId> resources = p.resourceIds();
  std::reverse(resources.begin(), resources.end());
  std::vector<ResourceId> newResource(p.numResources());
  for (ResourceId r : resources) {
    newResource[r.index()] = q.addResource(p.resource(r).name);
  }
  std::vector<TaskId> tasks = p.taskIds();
  std::reverse(tasks.begin(), tasks.end());
  std::vector<TaskId> newTask(p.numVertices(), kAnchorTask);
  for (TaskId v : tasks) {
    const Task& t = p.task(v);
    newTask[v.index()] =
        q.addTask(t.name, t.delay, t.power, newResource[t.resource.index()]);
    if (t.criticality > 0) q.setCriticality(newTask[v.index()], t.criticality);
  }
  const std::vector<TimingConstraint>& constraints = p.constraints();
  for (auto c = constraints.rbegin(); c != constraints.rend(); ++c) {
    const TaskId from = newTask[c->from.index()];
    const TaskId to = newTask[c->to.index()];
    if (c->kind == TimingConstraint::Kind::kMinSeparation) {
      q.minSeparation(from, to, c->separation);
    } else {
      q.maxSeparation(from, to, c->separation);
    }
  }
  q.setMaxPower(p.maxPower());
  q.setMinPower(p.minPower());
  q.setBackgroundPower(p.backgroundPower());
  return q;
}

TEST(AnchorConstraintProperties, KeysAndExactHitsHoldOverGeneratedProblems) {
  const SolveSpec spec;  // pipeline
  std::size_t hits = 0;
  for (std::uint32_t i = 0; i < 300; ++i) {
    GeneratorConfig config;
    config.seed = 9100 + i;
    config.numTasks = 4 + i % 21;
    config.numResources = 1 + i % 4;
    const GeneratedProblem g = generateRandomProblem(config);
    const AnchorBounds bounds = witnessBounds(g, config.seed);
    const Problem problem = withAnchors(g.problem, bounds);

    const Schedule witness(&problem, g.witnessStarts);
    ASSERT_TRUE(ScheduleValidator(problem).validate(witness).valid())
        << "seed " << config.seed;

    const CanonicalForm full = canonicalize(problem, CanonicalParts::kFull);
    EXPECT_EQ(canonicalize(problem, CanonicalParts::kKeyOnly).hash,
              fnv1a64(full.text))
        << "seed " << config.seed;

    const CacheKey key = exactKey(problem, spec);
    EXPECT_EQ(exactKey(reversed(problem), spec), key)
        << "seed " << config.seed;

    AnchorBounds moved = bounds;
    switch (i % 3) {
      case 0:
        moved.releaseAt = moved.releaseAt + Duration(1);
        break;
      case 1:
        moved.dueBy = moved.dueBy + Duration(1);
        break;
      default:
        moved.pinAt = moved.pinAt + Duration(1);
        break;
    }
    EXPECT_NE(exactKey(withAnchors(g.problem, moved), spec), key)
        << "seed " << config.seed;

    ScheduleCache cache;
    SolveInfo coldInfo;
    const ScheduleResult cold =
        solveThroughCache(&cache, problem, spec, &coldInfo);
    if (!cold.ok() || coldInfo.validationFailed) continue;  // nothing cached
    SolveInfo hitInfo;
    const ScheduleResult hit =
        solveThroughCache(&cache, problem, spec, &hitInfo);
    ASSERT_TRUE(hit.ok()) << "seed " << config.seed;
    EXPECT_TRUE(hitInfo.cacheHit) << "seed " << config.seed;
    EXPECT_EQ(io::scheduleToText(*hit.schedule, spec.scheduler),
              io::scheduleToText(*cold.schedule, spec.scheduler))
        << "seed " << config.seed;
    ++hits;
  }
  // The hit check must not pass vacuously.
  EXPECT_GE(hits, 240u);
}

}  // namespace
}  // namespace paws::cache
