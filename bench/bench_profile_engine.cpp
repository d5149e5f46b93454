// Incremental ProfileEngine vs PowerProfileBuilder full rebuild
// (methodology bench, no paper table): the cost of answering the scheduler
// inner-loop question — "change one task; any spike? what is Ec and rho
// now?" — on the live engine's flat segment list, where each mutation
// rebuilds only the window it touches, against re-running the event-sort
// rebuild per probe, swept over task count. Measures one task taken out
// and put back (removeTask + aggregate reads + addTask) and checkpointed
// candidate evaluation (checkpoint, move, read, restore), the MinPower
// inner loop's exact shape.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_report.hpp"
#include "gen/random_problem.hpp"
#include "power/profile.hpp"
#include "power/profile_engine.hpp"
#include "sched/schedule.hpp"

using namespace paws;

namespace {

struct Instance {
  GeneratedProblem gp;
  std::vector<Time> starts;
  Watts pmin;
  Watts pmax;
};

Instance makeInstance(std::size_t tasks) {
  GeneratorConfig cfg;
  cfg.seed = 42;
  cfg.numTasks = tasks;
  cfg.numResources = 2 + tasks / 8;
  cfg.pmaxHeadroomMw = 1000;
  Instance inst{generateRandomProblem(cfg), {}, Watts::zero(), Watts::zero()};
  inst.starts = inst.gp.witnessStarts;
  inst.pmin = inst.gp.problem.minPower();
  inst.pmax = inst.gp.problem.maxPower();
  return inst;
}

/// Evaluating one placement change via full rebuild — the legacy cost of
/// an exhaustive-search node or a spike-round rescan: rebuild the whole
/// profile, scan for the first spike and the energy cost.
void BM_ProfileRebuild(benchmark::State& state) {
  const Instance inst = makeInstance(static_cast<std::size_t>(state.range(0)));
  const Problem& problem = inst.gp.problem;
  std::vector<Time> starts = inst.starts;
  std::size_t victim = 1;
  for (auto _ : state) {
    const Time saved = starts[victim];
    starts[victim] = saved + Duration(3);
    const PowerProfile profile = profileOf(problem, starts);
    benchmark::DoNotOptimize(profile.firstSpike(inst.pmax));
    benchmark::DoNotOptimize(profile.energyAbove(inst.pmin));
    starts[victim] = saved;
    victim = victim % (problem.numVertices() - 1) + 1;
  }
}
BENCHMARK(BM_ProfileRebuild)->Arg(8)->Arg(16)->Arg(64)->Arg(256);

/// The same evaluation as engine updates: take one task's contribution
/// out, read the cached cost, put it back, read the spike cursor — two
/// window rebuilds per probe. This is the headline incremental-vs-rebuild
/// comparison (same queries as BM_ProfileRebuild).
void BM_ProfileEngine(benchmark::State& state) {
  const Instance inst = makeInstance(static_cast<std::size_t>(state.range(0)));
  const Problem& problem = inst.gp.problem;
  power::ProfileEngine engine(problem.backgroundPower(), inst.pmin,
                              inst.pmax);
  engine.rebuild(problem, inst.starts);
  std::size_t victim = 1;
  for (auto _ : state) {
    const TaskId v(static_cast<std::uint32_t>(victim));
    const Interval iv = engine.taskInterval(v);
    engine.removeTask(v);
    benchmark::DoNotOptimize(engine.energyAbove());
    engine.addTask(v, iv, problem.task(v).power);
    benchmark::DoNotOptimize(engine.firstSpike());
    victim = victim % (problem.numVertices() - 1) + 1;
  }
}
BENCHMARK(BM_ProfileEngine)->Arg(8)->Arg(16)->Arg(64)->Arg(256);

/// MinPower's candidate-evaluation shape: checkpoint, moveTask, read
/// spike + utilization, restore (one window rebuild over the hull of the
/// old and new intervals; the restore splices the saved stretch back).
void BM_ProfileEngineCheckpointProbe(benchmark::State& state) {
  const Instance inst = makeInstance(static_cast<std::size_t>(state.range(0)));
  const Problem& problem = inst.gp.problem;
  power::ProfileEngine engine(problem.backgroundPower(), inst.pmin,
                              inst.pmax);
  engine.rebuild(problem, inst.starts);
  std::size_t victim = 1;
  for (auto _ : state) {
    const TaskId v(static_cast<std::uint32_t>(victim));
    const auto cp = engine.checkpoint();
    engine.moveTask(v, inst.starts[victim] + Duration(3));
    benchmark::DoNotOptimize(engine.firstSpike());
    benchmark::DoNotOptimize(engine.utilization());
    engine.restore(cp);
    victim = victim % (problem.numVertices() - 1) + 1;
  }
}
BENCHMARK(BM_ProfileEngineCheckpointProbe)->Arg(8)->Arg(16)->Arg(64)->Arg(256);

void printSpeedupSummary() {
  std::printf(
      "=== incremental engine vs full rebuild, one placement "
      "evaluation ===\n");
  std::printf("%8s %14s %14s %9s\n", "tasks", "rebuild_ns", "engine_ns",
              "speedup");
  for (const std::size_t tasks : {8u, 16u, 64u, 256u}) {
    const Instance inst = makeInstance(tasks);
    const Problem& problem = inst.gp.problem;
    const int kReps = 2000;

    std::vector<Time> starts = inst.starts;
    const auto t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < kReps; ++rep) {
      const std::size_t victim = rep % (problem.numVertices() - 1) + 1;
      const Time saved = starts[victim];
      starts[victim] = saved + Duration(3);
      const PowerProfile profile = profileOf(problem, starts);
      benchmark::DoNotOptimize(profile.firstSpike(inst.pmax));
      benchmark::DoNotOptimize(profile.energyAbove(inst.pmin));
      starts[victim] = saved;
    }
    const auto t1 = std::chrono::steady_clock::now();

    power::ProfileEngine engine(problem.backgroundPower(), inst.pmin,
                                inst.pmax);
    engine.rebuild(problem, inst.starts);
    const auto t2 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < kReps; ++rep) {
      const std::size_t victim = rep % (problem.numVertices() - 1) + 1;
      const TaskId v(static_cast<std::uint32_t>(victim));
      const Interval iv = engine.taskInterval(v);
      engine.removeTask(v);
      benchmark::DoNotOptimize(engine.energyAbove());
      engine.addTask(v, iv, problem.task(v).power);
      benchmark::DoNotOptimize(engine.firstSpike());
    }
    const auto t3 = std::chrono::steady_clock::now();

    const double rebuildNs =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        kReps;
    const double engineNs =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t3 - t2)
                .count()) /
        kReps;
    std::printf("%8zu %14.0f %14.0f %8.1fx\n", tasks, rebuildNs, engineNs,
                engineNs > 0 ? rebuildNs / engineNs : 0.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  printSpeedupSummary();
  return paws::bench::runBenchMain("profile_engine", argc, argv);
}
