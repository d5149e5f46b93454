// Optimality-gap ablation (Section 5.3's complexity argument, quantified):
// the paper argues a truly optimal schedule requires examining all partial
// orders (exponential) and settles for heuristics. Here we run the
// exhaustive branch-and-bound oracle on small random instances and measure
// how far the three-stage heuristic pipeline lands from the optimum, for
// both objectives (energy cost at Pmin, then finish time).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <sstream>
#include <vector>

#include "bench_report.hpp"
#include "exec/jobs.hpp"
#include "exec/parallel_for.hpp"
#include "exec/pool.hpp"
#include "gen/random_problem.hpp"
#include "io/schedule_io.hpp"
#include "sched/exhaustive_scheduler.hpp"
#include "sched/power_aware_scheduler.hpp"

using namespace paws;

namespace {

GeneratorConfig smallConfig(std::uint32_t seed) {
  GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.numTasks = 5;
  cfg.numResources = 2;
  cfg.maxDelay = 4;
  cfg.witnessJitter = 2;
  cfg.pmaxHeadroomMw = 500;
  return cfg;
}

void printGapTable() {
  std::printf("=== heuristic pipeline vs exhaustive optimum (5-task random "
              "instances) ===\n");
  std::printf("%6s %12s %12s %10s %10s %8s\n", "seed", "opt Ec(J)",
              "heur Ec(J)", "opt tau", "heur tau", "verdict");
  int optimalHits = 0, solved = 0;
  double worstEcGap = 0;

  // The 20 seeds are independent: solve them concurrently, print in seed
  // order (parallelMap's ordered output keeps the table deterministic).
  // Only plain numbers cross the thread boundary — a Schedule points into
  // its (lambda-local) Problem and must not outlive it.
  struct SeedRow {
    bool oracleComplete = false;
    bool heurOk = false;
    double ecOpt = 0;
    double ecHeur = 0;
    long long tauOpt = 0;
    long long tauHeur = 0;
  };
  exec::Pool pool(exec::defaultJobs());
  const std::vector<SeedRow> rows = exec::parallelMap(
      pool, 20, [](std::size_t i) -> SeedRow {
        const std::uint32_t seed = static_cast<std::uint32_t>(i) + 1;
        const GeneratedProblem gp = generateRandomProblem(smallConfig(seed));
        SeedRow row;
        ExhaustiveScheduler oracle(gp.problem);
        const ScheduleResult opt = oracle.schedule();
        row.oracleComplete = opt.ok() && oracle.outcome().provenOptimal;
        if (row.oracleComplete) {
          row.ecOpt = opt.schedule->energyCost(gp.problem.minPower()).joules();
          row.tauOpt = static_cast<long long>(opt.schedule->finish().ticks());
        }
        PowerAwareScheduler heuristic(gp.problem);
        const ScheduleResult h = heuristic.schedule();
        row.heurOk = h.ok();
        if (row.heurOk) {
          row.ecHeur = h.schedule->energyCost(gp.problem.minPower()).joules();
          row.tauHeur = static_cast<long long>(h.schedule->finish().ticks());
        }
        return row;
      });

  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    const SeedRow& row = rows[seed - 1];
    if (!row.oracleComplete) {
      std::printf("%6u %12s (oracle incomplete)\n", seed, "-");
      continue;
    }
    if (!row.heurOk) {
      std::printf("%6u %12.2f %12s %10lld %10s %8s\n", seed, row.ecOpt, "-",
                  row.tauOpt, "-", "FAILED");
      continue;
    }
    ++solved;
    const bool hit = row.ecHeur <= row.ecOpt + 1e-9 &&
                     row.tauHeur == row.tauOpt;
    if (hit) ++optimalHits;
    if (row.ecOpt > 0) {
      worstEcGap =
          std::max(worstEcGap, (row.ecHeur - row.ecOpt) / row.ecOpt);
    }
    std::printf("%6u %12.2f %12.2f %10lld %10lld %8s\n", seed, row.ecOpt,
                row.ecHeur, row.tauOpt, row.tauHeur,
                hit ? "optimal" : "gap");
  }
  std::printf("summary: %d/%d solved, %d exactly optimal, worst relative Ec "
              "gap %.1f%%\n\n",
              solved, 20, optimalHits, 100.0 * worstEcGap);
}

void BM_ExhaustiveOracle(benchmark::State& state) {
  const GeneratedProblem gp = generateRandomProblem(
      smallConfig(static_cast<std::uint32_t>(state.range(0))));
  for (auto _ : state) {
    ExhaustiveScheduler oracle(gp.problem);
    benchmark::DoNotOptimize(oracle.schedule());
  }
  // Determinism witnesses for the bench regression gate (tools/bench_diff):
  // the serial pruned search visits an exact, machine-independent node set,
  // so the node and pruning counters must be byte-for-byte stable.
  ExhaustiveScheduler witness(gp.problem);
  benchmark::DoNotOptimize(witness.schedule());
  const ExhaustiveOutcomeStats& stats = witness.outcome();
  state.counters["nodes_explored"] =
      static_cast<double>(stats.nodesExplored);
  state.counters["pruned_dominance"] =
      static_cast<double>(stats.prunedDominance);
  state.counters["pruned_symmetry"] =
      static_cast<double>(stats.prunedSymmetry);
  state.counters["pruned_bound"] = static_cast<double>(stats.prunedBound);
}
BENCHMARK(BM_ExhaustiveOracle)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);

void BM_HeuristicOnSameInstances(benchmark::State& state) {
  const GeneratedProblem gp = generateRandomProblem(
      smallConfig(static_cast<std::uint32_t>(state.range(0))));
  for (auto _ : state) {
    PowerAwareScheduler heuristic(gp.problem);
    benchmark::DoNotOptimize(heuristic.schedule());
  }
  // Determinism witnesses for the bench regression gate (tools/bench_diff):
  // the pipeline is single-threaded here, so the serialized schedule and
  // the longest-path run count must be byte-for-byte stable across runs
  // and machines. Wall time may drift; these may not.
  PowerAwareScheduler witness(gp.problem);
  const ScheduleResult r = witness.schedule();
  if (r.ok()) {
    std::ostringstream txt;
    io::writeSchedule(txt, *r.schedule, "bench");
    state.counters["schedule_bytes"] =
        static_cast<double>(txt.str().size());
    state.counters["lp_runs"] =
        static_cast<double>(r.stats.longestPathRuns);
  }
}
BENCHMARK(BM_HeuristicOnSameInstances)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMicrosecond);

// Parallel-search speedup on a 12-task instance. The search space dwarfs
// the node budget, so every job count does `maxNodes` nodes of work (plus
// at most 1023 per extra worker, which publishes its count in batches)
// and wall time measures how well the pool splits it. Speedup needs
// real cores — on a 1-CPU host the job counts tie (docs/performance.md).
void BM_ExhaustiveParallel(benchmark::State& state) {
  GeneratorConfig cfg = smallConfig(11);
  cfg.numTasks = 12;
  const GeneratedProblem gp = generateRandomProblem(cfg);
  ExhaustiveOptions options;
  options.maxNodes = 1'000'000;
  options.jobs = static_cast<std::size_t>(state.range(0));
  std::uint64_t nodes = 0;
  for (auto _ : state) {
    ExhaustiveScheduler oracle(gp.problem, options);
    benchmark::DoNotOptimize(oracle.schedule());
    nodes += oracle.outcome().nodesExplored;
  }
  state.counters["threads"] =
      static_cast<double>(exec::resolveJobs(options.jobs));
  state.counters["nodes"] = benchmark::Counter(
      static_cast<double>(nodes), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ExhaustiveParallel)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  printGapTable();
  return paws::bench::runBenchMain("optimality", argc, argv);
}
