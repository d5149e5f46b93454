// pawsc — the paws command-line front end.
//
//   pawsc check <file.paws>
//       Parse and structurally validate a problem; print a summary.
//   pawsc schedule <file.paws> [--scheduler pipeline|serial|list|optimal]
//                  [--trials N] [--gantt] [--breakdown] [--svg out.svg]
//                  [--csv out.csv] [--html out.html] [--trace out.json]
//                  [--search-trace out.json] [--search-jsonl out.jsonl]
//                  [--metrics out.csv] [--obs-summary]
//       Schedule and report power properties; optionally render/export
//       (SVG gantt, CSV, HTML report, chrome://tracing JSON). The three
//       observability flags export the *search*: --search-trace renders
//       backtrack/delay/lock/min-power decisions with wall-clock phase
//       spans as chrome://tracing JSON, --metrics dumps the metrics
//       registry as CSV, --obs-summary prints the human-readable table.
//       --cache-dir DIR persists solved schedules (keyed by the problem's
//       canonical form) so repeated invocations serve hits, structurally
//       matching near misses revalidate through repair, and exhaustive
//       runs warm-start from the pipeline heuristic; batch mode shares
//       one cache across its workers even without --cache-dir.
//   pawsc sweep <file.paws> --pmax-from W --pmax-to W [--step W]
//       Re-schedule across a budget range (design-space exploration).
//   pawsc windows <file.paws> [--horizon T]
//       Print each task's feasible [EST, LST] start window.
//   pawsc repair <file.paws> --schedule plan.sched --at T [--pmax W]
//                [--pmin W]
//       Mid-flight repair: freeze tasks started before T, re-plan the rest
//       under the (optionally changed) budget; prints the repaired plan and
//       the validator's verdict on it. --now is accepted as an alias of
//       --at.
//   pawsc simulate [--steps N] [--faults] [--seed S] [--contingency]
//                  [--retry] [--replan] [--shed] [--watchdog PCT]
//                  [--abort-on-brownout] [--trace-events] [--metrics out.csv]
//                  [--mode-policy off|mission] [--battery-model linear|rate]
//                  [--battery-wh N]
//       Replay the rover mission on the runtime executor, optionally under
//       a model-sampled fault plan, with contingency layers armed, under
//       the mission criticality-mode ladder, and/or on the rate-capacity
//       battery model.
//   pawsc campaign [--missions N] [--seed S] [--steps N] [--jobs N]
//                  [--contingency] [--retry] [--replan] [--shed]
//                  [--watchdog PCT] [--abort-on-brownout] [--json out.json]
//                  [--metrics out.csv] [--mode-policy off|mission]
//                  [--battery-model linear|rate] [--battery-wh N]
//       Monte-Carlo mission-survival campaign over the rover mission;
//       byte-identical output for any --jobs value. --json - prints the
//       report to stdout (and suppresses the human summary).
//   pawsc trace summarize <trace.jsonl | report.json> [--top K]
//   pawsc trace diff <a.json> <b.json> [--tolerance PCT]
//   pawsc trace incumbents <report.json> [--csv]
//       Offline analysis of recorded runs: digest a search trace or run
//       report, compare two run reports (non-zero exit on a deterministic
//       mismatch), or print the anytime incumbent curve.
//   pawsc dot <file.paws>
//       Emit the constraint graph in Graphviz syntax.
//
// schedule/simulate/campaign additionally take --report out.json (the full
// structured RunReport: problem hash, options, outcome, metrics snapshot
// and incumbent trajectory; `-` = stdout) and --openmetrics out.txt (the
// metrics registry in Prometheus/OpenMetrics text form; `-` = stdout).
//
// Exit status (one code per error class, stable for scripting):
//   0  success
//   1  usage error (bad flags/arguments)
//   2  input error (parse/lex failure, unreadable file, limit exceeded)
//   3  infeasible (no valid schedule / mission lost / validation failed)
//   4  budget or deadline exhausted (--timeout-ms tripped, node budget,
//      backtrack budget); partial/anytime results may still be printed
//   5  internal error (uncaught exception)
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cache/cached_solve.hpp"
#include "exec/jobs.hpp"
#include "exec/parallel_for.hpp"
#include "exec/pool.hpp"
#include "guard/budget.hpp"
#include "fault/campaign.hpp"
#include "fault/model.hpp"
#include "fault/rng.hpp"
#include "rover/rover_model.hpp"
#include "runtime/executor.hpp"

#include "gantt/ascii_gantt.hpp"
#include "gantt/html_report.hpp"
#include "obs/export.hpp"
#include "obs/incumbents.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "obs/trace_analysis.hpp"
#include "gantt/svg_gantt.hpp"
#include "graph/dot.hpp"
#include "graph/longest_path.hpp"
#include "io/parser.hpp"
#include "io/schedule_io.hpp"
#include "io/writer.hpp"
#include "sched/repair.hpp"
#include "analysis/analysis.hpp"
#include "analysis/breakdown.hpp"
#include "analysis/resource_usage.hpp"
#include "model/explain.hpp"
#include "sched/windows.hpp"
#include "sched/exhaustive_scheduler.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/power_aware_scheduler.hpp"
#include "sched/serial_scheduler.hpp"
#include "validate/validator.hpp"

using namespace paws;

namespace {

// Exit codes, one per error class (documented in usage() and the file
// header). Scripts branch on these; keep them stable.
constexpr int kExitOk = 0;
constexpr int kExitUsage = 1;
constexpr int kExitInput = 2;
constexpr int kExitInfeasible = 3;
constexpr int kExitBudget = 4;
constexpr int kExitInternal = 5;

/// Maps a scheduling failure to its exit class. kOk maps to success, but
/// callers still gate on validation before returning it.
int exitForStatus(SchedStatus status) {
  switch (status) {
    case SchedStatus::kOk:
      return kExitOk;
    case SchedStatus::kBudgetExhausted:
    case SchedStatus::kDeadlineExceeded:
      return kExitBudget;
    case SchedStatus::kInvalidInput:
      return kExitInput;
    case SchedStatus::kTimingInfeasible:
    case SchedStatus::kPowerInfeasible:
      return kExitInfeasible;
  }
  return kExitInternal;
}

/// A whole decimal integer, nothing else (no blanks, no trailing text).
bool parseWhole(const char* text, std::int64_t& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc() && ptr == end;
}

int usage() {
  std::fprintf(stderr,
               "usage: pawsc <command> [options]\n"
               "  check    <file.paws>\n"
               "  schedule <file.paws> [more.paws ...] [--scheduler "
               "pipeline|serial|list|optimal] [--trials 1..64]\n"
               "           [--jobs N]  (threads; 0 = PAWS_JOBS or cores; "
               "several files run concurrently)\n"
               "           [--gantt] [--svg out.svg] [--csv out.csv]\n"
               "           [--search-trace out.json] [--search-jsonl "
               "out.jsonl]\n"
               "           [--metrics out.csv] [--obs-summary] [--digest]\n"
               "           [--report out.json|-] [--openmetrics out.txt|-]\n"
               "           [--cache-dir DIR]  (reuse solved schedules "
               "across invocations)\n"
               "  sweep    <file.paws> --pmax-from W --pmax-to W [--step W]\n"
               "  windows  <file.paws> [--horizon T]\n"
               "  repair   <file.paws> --schedule plan.sched --at T "
               "[--pmax W] [--pmin W]\n"
               "  simulate [--steps N] [--faults] [--seed S] "
               "[--contingency|--retry|--replan|--shed|--watchdog PCT]\n"
               "           [--abort-on-brownout] [--trace-events] "
               "[--metrics out.csv]\n"
               "           [--mode-policy off|mission] "
               "[--battery-model linear|rate] [--battery-wh N]\n"
               "  campaign [--missions N] [--seed S] [--steps N] [--jobs N] "
               "[--contingency|...]\n"
               "           [--json out.json|-] [--metrics out.csv]\n"
               "           [--mode-policy off|mission] "
               "[--battery-model linear|rate] [--battery-wh N]\n"
               "  trace    summarize <trace.jsonl|report.json> [--top K]\n"
               "  trace    diff <a.json> <b.json> [--tolerance PCT]\n"
               "  trace    incumbents <report.json> [--csv]\n"
               "  dot      <file.paws>\n"
               "\n"
               "simulate/campaign also take --report/--openmetrics; trace\n"
               "diff exits 3 when deterministic metrics disagree.\n"
               "\n"
               "schedule/simulate/campaign also take --timeout-ms N: a\n"
               "wall-clock deadline for the run. On a trip, `schedule\n"
               "--scheduler optimal` prints the best incumbent found so far\n"
               "(anytime result, not proven optimal) and campaigns report\n"
               "only fully-flown missions.\n"
               "\n"
               "exit codes: 0 success; 1 usage error; 2 input error (parse\n"
               "failure, unreadable file, input limit); 3 infeasible (no\n"
               "valid schedule, mission lost, validation failed); 4 search\n"
               "budget or --timeout-ms deadline exhausted; 5 internal\n"
               "error.\n");
  return kExitUsage;
}

std::optional<Problem> load(const std::string& path) {
  io::ParseResult parsed = io::parseProblemFile(path);
  if (!parsed.ok()) {
    for (const io::ParseError& e : parsed.errors) {
      std::fprintf(stderr, "%s:%s\n", path.c_str(), io::format(e).c_str());
    }
    return std::nullopt;
  }
  return std::move(parsed.problem);
}

int cmdCheck(const std::string& path) {
  const auto problem = load(path);
  if (!problem) return kExitInput;
  std::printf("problem '%s': %zu tasks, %zu resources, %zu constraints\n",
              problem->name().c_str(), problem->numTasks(),
              problem->numResources(), problem->constraints().size());
  std::printf("limits: Pmax ");
  if (problem->maxPower() == Watts::max()) {
    std::printf("unbounded");
  } else {
    std::printf("%.3fW", problem->maxPower().watts());
  }
  std::printf(", Pmin %.3fW, background %.3fW\n",
              problem->minPower().watts(),
              problem->backgroundPower().watts());
  const auto issues = problem->validate();
  for (const std::string& issue : issues) {
    std::printf("issue: %s\n", issue.c_str());
  }
  // Timing feasibility with a user-level explanation of any contradiction.
  const ConstraintGraph g = problem->buildGraph();
  LongestPathEngine engine(g);
  const LongestPathResult& lp = engine.compute(kAnchorTask);
  if (!lp.feasible) {
    std::printf("%s\n", explainCycle(*problem, g, lp).c_str());
  }
  const bool ok = issues.empty() && lp.feasible;
  std::printf("%s\n", ok ? "OK" : "NOT SCHEDULABLE AS WRITTEN");
  return ok ? kExitOk : kExitInfeasible;
}

int cmdWindows(const std::string& path, std::int64_t horizonTicks) {
  const auto problem = load(path);
  if (!problem) return kExitInput;
  const ConstraintGraph g = problem->buildGraph();
  LongestPathEngine engine(g);
  if (!engine.compute(kAnchorTask).feasible) {
    std::fprintf(stderr, "%s\n",
                 explainCycle(*problem, g, engine.result()).c_str());
    return kExitInfeasible;
  }
  Time horizon(horizonTicks);
  if (horizonTicks <= 0) {
    // Default: the fully-serial span (every schedule of interest fits).
    Duration total = Duration::zero();
    for (TaskId v : problem->taskIds()) total += problem->task(v).delay;
    horizon = Time::zero() + total;
  }
  const auto windows = computeStartWindows(*problem, g, horizon);
  std::printf("start windows (horizon %lld):\n",
              static_cast<long long>(horizon.ticks()));
  for (TaskId v : problem->taskIds()) {
    const StartWindow& w = windows[v.index()];
    std::printf("  %-16s [%lld, %lld]%s\n", problem->task(v).name.c_str(),
                static_cast<long long>(w.earliest.ticks()),
                static_cast<long long>(w.latest.ticks()),
                w.feasible() ? "" : "  INFEASIBLE AT THIS HORIZON");
  }
  return 0;
}

/// Everything `pawsc schedule` can render or export.
struct ScheduleExports {
  bool gantt = false;
  bool breakdown = false;
  bool obsSummary = false;
  /// Print the fnv1a64 of the schedule text — the same digest pawsd puts
  /// in its responses, so CI can assert daemon/CLI determinism.
  bool digest = false;
  std::string svgOut, csvOut, htmlOut, traceOut, saveOut;
  std::string searchTraceOut, searchJsonlOut, metricsOut;
  std::string reportOut, openMetricsOut;

  /// Observability hooks are attached only when something consumes them,
  /// keeping the default run on the null-sink fast path.
  [[nodiscard]] bool wantsObs() const {
    return obsSummary || !searchTraceOut.empty() ||
           !searchJsonlOut.empty() || !metricsOut.empty() ||
           !reportOut.empty() || !openMetricsOut.empty();
  }

  /// True when any render/export was requested at all. Batch mode refuses
  /// them: one output file can't serve many inputs.
  [[nodiscard]] bool any() const {
    return gantt || breakdown || digest || wantsObs() || !svgOut.empty() ||
           !csvOut.empty() || !htmlOut.empty() || !traceOut.empty() ||
           !saveOut.empty();
  }
};

/// One solve through the cache resolver (`scheduleCache == nullptr` is the
/// historical always-cold dispatch, bit-for-bit), keeping pawsc's
/// suboptimality warning for budget-tripped exhaustive runs. Entries served
/// from the cache are proven-optimal by construction, so no warning there.
ScheduleResult runScheduler(cache::ScheduleCache* scheduleCache,
                            const Problem& problem,
                            const std::string& scheduler,
                            std::uint32_t trials, std::size_t jobs,
                            const obs::ObsContext& obsCtx,
                            const guard::RunBudget& budget,
                            cache::SolveInfo* infoOut = nullptr) {
  cache::SolveSpec spec;
  spec.scheduler = scheduler;
  spec.trials = trials;
  spec.jobs = jobs;
  spec.obs = obsCtx;
  spec.budget = budget;
  cache::SolveInfo info;
  ScheduleResult r =
      cache::solveThroughCache(scheduleCache, problem, spec, &info);
  if (scheduler == "optimal" && !info.servedFromCache() &&
      !info.provenOptimal) {
    std::fprintf(stderr, "warning: %s; result may be suboptimal\n",
                 info.stopReason == guard::StopReason::kNone
                     ? "node budget hit"
                     : guard::toString(info.stopReason));
  }
  if (infoOut != nullptr) *infoOut = info;
  return r;
}

/// Resolves a --cache-dir into the cache file path, creating the directory
/// if needed. Empty argument (flag not given) resolves to an empty path.
std::string cacheFilePath(const std::string& cacheDir) {
  if (cacheDir.empty()) return {};
  std::error_code ec;
  std::filesystem::create_directories(cacheDir, ec);
  return (std::filesystem::path(cacheDir) /
          cache::ScheduleCache::kFileName())
      .string();
}

void loadCacheFile(cache::ScheduleCache& scheduleCache,
                   const std::string& cachePath) {
  if (cachePath.empty()) return;
  std::string err;
  if (!scheduleCache.load(cachePath, &err) && !err.empty()) {
    std::fprintf(stderr, "warning: %s\n", err.c_str());
  }
}

/// Persists the cache (when --cache-dir was given) and prints the run's
/// cache traffic to stderr, keeping stdout byte-identical between cold and
/// warm passes — scripts diff stdout.
void finishCache(const cache::ScheduleCache& scheduleCache,
                 const std::string& cachePath) {
  const cache::CacheStats s = scheduleCache.stats();
  std::fprintf(stderr,
               "cache: %llu hits, %llu misses, %llu insertions, "
               "%llu revalidations, %llu warm starts\n",
               static_cast<unsigned long long>(s.hits),
               static_cast<unsigned long long>(s.misses),
               static_cast<unsigned long long>(s.insertions),
               static_cast<unsigned long long>(s.revalidations),
               static_cast<unsigned long long>(s.warmStarts));
  if (cachePath.empty()) return;
  std::string err;
  if (!scheduleCache.save(cachePath, &err)) {
    std::fprintf(stderr, "warning: %s\n", err.c_str());
  }
}

void printEffort(std::FILE* f, const SchedulerStats& st) {
  std::fprintf(f,
               "effort    : %llu longest-path runs, %llu backtracks, "
               "%llu delays, %llu locks,\n"
               "            %llu recursions, %llu scans, %llu improvements\n",
               static_cast<unsigned long long>(st.longestPathRuns),
               static_cast<unsigned long long>(st.backtracks),
               static_cast<unsigned long long>(st.delays),
               static_cast<unsigned long long>(st.locks),
               static_cast<unsigned long long>(st.recursions),
               static_cast<unsigned long long>(st.scans),
               static_cast<unsigned long long>(st.improvements));
}

/// The report's stop-reason string: the scheduler's own verdict when it
/// exposes one, else whatever the guard counters recorded, else inferred
/// from the status. Every trip path lands in exactly one of these.
std::string deriveStopReason(guard::StopReason fromScheduler,
                             const obs::MetricsRegistry& registry,
                             SchedStatus status) {
  if (fromScheduler != guard::StopReason::kNone) {
    return guard::toString(fromScheduler);
  }
  if (registry.counter("guard.cancels") > 0) return "cancelled";
  if (registry.counter("guard.deadline_trips") > 0) return "deadline";
  if (status == SchedStatus::kDeadlineExceeded) return "deadline";
  return "none";
}

std::int64_t timeoutMsOf(const guard::RunBudget& budget) {
  return budget.timeout.has_value() ? budget.timeout->count() : -1;
}

/// Stamps and writes a run report; `-` streams to stdout.
void writeReportOut(const std::string& path, obs::RunReport& report) {
  if (path.empty()) return;
  obs::stampVolatile(report);
  if (path == "-") {
    std::fputs(obs::runReportToJson(report).c_str(), stdout);
    return;
  }
  std::ofstream o(path);
  if (o) {
    obs::writeRunReport(o, report);
    std::printf("wrote %s (run report; inspect with pawsc trace)\n",
                path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
  }
}

/// OpenMetrics text exposition of the registry; `-` streams to stdout.
void writeOpenMetricsOut(const std::string& path,
                         const obs::MetricsRegistry& registry) {
  if (path.empty()) return;
  if (path == "-") {
    std::fputs(obs::toOpenMetrics(registry).c_str(), stdout);
    return;
  }
  std::ofstream o(path);
  if (o) {
    obs::writeOpenMetrics(o, registry);
    std::printf("wrote %s (OpenMetrics, %zu metrics)\n", path.c_str(),
                registry.size());
  } else {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
  }
}

/// Writes the observability exports; valid on success AND failure runs —
/// a failed search is exactly when the effort trace matters most.
void writeObsExports(const ScheduleExports& out, const obs::TraceSink& sink,
                     const obs::MetricsRegistry& registry,
                     const obs::ObsSummaryExtras& extras = {}) {
  if (!out.searchTraceOut.empty()) {
    std::ofstream o(out.searchTraceOut);
    if (o) {
      obs::writeSearchTraceJson(o, sink);
      std::printf("wrote %s (search trace; open in chrome://tracing or "
                  "Perfetto)\n",
                  out.searchTraceOut.c_str());
    } else {
      std::fprintf(stderr, "could not write %s\n",
                   out.searchTraceOut.c_str());
    }
  }
  if (!out.searchJsonlOut.empty()) {
    std::ofstream o(out.searchJsonlOut);
    if (o) {
      obs::writeSearchTraceJsonl(o, sink);
      std::printf("wrote %s (search trace, JSONL)\n",
                  out.searchJsonlOut.c_str());
    } else {
      std::fprintf(stderr, "could not write %s\n",
                   out.searchJsonlOut.c_str());
    }
  }
  if (!out.metricsOut.empty()) {
    std::ofstream o(out.metricsOut);
    if (o) {
      registry.writeCsv(o);
      std::printf("wrote %s (%zu metrics)\n", out.metricsOut.c_str(),
                  registry.size());
    } else {
      std::fprintf(stderr, "could not write %s\n", out.metricsOut.c_str());
    }
  }
  writeOpenMetricsOut(out.openMetricsOut, registry);
  if (out.obsSummary) {
    std::printf("\n%s",
                obs::renderObsSummary(registry, &sink, extras).c_str());
  }
}

int cmdSchedule(const std::string& path, const std::string& scheduler,
                std::uint32_t trials, std::size_t jobs,
                const ScheduleExports& out,
                const guard::RunBudget& budget,
                const std::string& cacheDir) {
  const auto problem = load(path);
  if (!problem) return kExitInput;

  // Single-file mode engages the cache only when asked: without a
  // --cache-dir there is nothing to reuse across one solve.
  std::optional<cache::ScheduleCache> scheduleCache;
  const std::string cachePath = cacheFilePath(cacheDir);
  if (!cacheDir.empty()) {
    scheduleCache.emplace();
    loadCacheFile(*scheduleCache, cachePath);
  }

  obs::TraceSink sink;
  obs::MetricsRegistry registry;
  obs::IncumbentLog incumbents;
  obs::ObsContext obsCtx;
  if (out.wantsObs()) {
    obsCtx.trace = &sink;
    obsCtx.metrics = &registry;
    obsCtx.incumbents = &incumbents;
  }
  cache::SolveInfo solveInfo;
  const ScheduleResult r = runScheduler(
      scheduleCache.has_value() ? &*scheduleCache : nullptr, *problem,
      scheduler, trials, jobs, obsCtx, budget, &solveInfo);
  const guard::StopReason schedulerStop = solveInfo.stopReason;
  // The pipeline exports its own stats; the baselines know nothing of the
  // registry, so bridge their SchedulerStats view in.
  if (out.wantsObs() && scheduler != "pipeline") {
    exportStats(r.stats, registry);
  }
  if (out.wantsObs() && scheduleCache.has_value()) {
    scheduleCache->exportMetrics(registry);
  }
  const std::string stopReason =
      deriveStopReason(schedulerStop, registry, r.status);
  const obs::ObsSummaryExtras extras{&incumbents, stopReason};

  // One report covers success, anytime and failure runs alike; the
  // schedule digest and validator verdict are filled in below once known.
  obs::RunReport report;
  const bool wantsReport = !out.reportOut.empty();
  if (wantsReport) {
    report.kind = "schedule";
    report.problemName = problem->name();
    report.problemHash = obs::fnv1a64(io::problemToText(*problem));
    report.numTasks = problem->numTasks();
    report.numResources = problem->numResources();
    report.numConstraints = problem->constraints().size();
    report.scheduler = scheduler;
    report.trials = static_cast<std::int64_t>(trials);
    report.jobs = static_cast<std::int64_t>(jobs);
    report.timeoutMs = timeoutMsOf(budget);
    report.status = toString(r.status);
    report.stopReason = stopReason;
    report.message = r.message;
    report.metrics = registry;
    report.incumbents = incumbents.points();
    if (r.schedule.has_value()) {
      const Schedule& s = *r.schedule;
      report.hasSchedule = true;
      report.finishTicks = s.finish().ticks();
      report.energyCostMwt =
          s.energyCost(problem->minPower()).milliwattTicks();
      report.peakPowerMw = ScheduleAnalysis::minimalValidPmax(s).milliwatts();
      std::ostringstream txt;
      io::writeSchedule(txt, s, scheduler);
      report.scheduleBytes = txt.str().size();
    }
  }
  // A deadline trip that still carries a schedule is an anytime result:
  // report it through the normal path (validator, exports and all) but
  // exit with the budget code so scripts can tell.
  const bool anytime =
      r.status == SchedStatus::kDeadlineExceeded && r.schedule.has_value();
  if (!r.ok() && !anytime) {
    std::fprintf(stderr, "scheduling failed (%s): %s\n", toString(r.status),
                 r.message.c_str());
    printEffort(stderr, r.stats);
    writeObsExports(out, sink, registry, extras);
    if (wantsReport) {
      report.exitClass = exitForStatus(r.status);
      writeReportOut(out.reportOut, report);
    }
    if (scheduleCache.has_value()) finishCache(*scheduleCache, cachePath);
    return exitForStatus(r.status);
  }
  if (anytime) {
    std::fprintf(stderr, "warning: %s\n", r.message.c_str());
  }
  const Schedule& s = *r.schedule;
  const bool gantt = out.gantt;
  const bool breakdown = out.breakdown;
  const std::string& svgOut = out.svgOut;
  const std::string& csvOut = out.csvOut;
  const std::string& htmlOut = out.htmlOut;
  const std::string& traceOut = out.traceOut;
  const std::string& saveOut = out.saveOut;
  const ValidationReport validation = ScheduleValidator(*problem).validate(s);
  std::printf("scheduler : %s\n", scheduler.c_str());
  std::printf("finish    : %lld ticks\n",
              static_cast<long long>(s.finish().ticks()));
  std::printf("energy    : %.3fJ cost above Pmin, %.3fJ total\n",
              s.energyCost(problem->minPower()).joules(),
              s.powerProfile().totalEnergy().joules());
  std::printf("rho(Pmin) : %.1f%%\n",
              100.0 * s.utilization(problem->minPower()));
  std::printf("peak      : %.3fW (schedule valid for any Pmax >= this)\n",
              ScheduleAnalysis::minimalValidPmax(s).watts());
  std::printf("valid     : %s\n", validation.valid() ? "yes" : "NO");
  if (out.digest) {
    std::printf("digest    : %016llx\n",
                static_cast<unsigned long long>(
                    obs::fnv1a64(io::scheduleToText(s, scheduler))));
  }
  printEffort(stdout, r.stats);
  for (const Violation& v : validation.violations) {
    std::ostringstream os;
    os << v;
    std::printf("  violation: %s\n", os.str().c_str());
  }
  if (gantt) std::printf("\n%s", renderGantt(s).c_str());
  if (breakdown) {
    std::printf("\n%s", renderBreakdown(computeEnergyBreakdown(s)).c_str());
    const ResourceUsageReport usage = analyzeResourceUsage(s);
    std::printf("resource utilization:\n");
    for (const ResourceUsage& u : usage.usages) {
      std::printf("  %-16s %5.1f%% busy%s\n", u.name.c_str(),
                  100.0 * u.utilization,
                  u.resource == usage.bottleneck ? "   <- bottleneck" : "");
    }
  }
  if (!svgOut.empty()) {
    std::ofstream out(svgOut);
    out << renderSvgGantt(s);
    std::printf("wrote %s\n", svgOut.c_str());
  }
  if (!csvOut.empty()) {
    std::ofstream out(csvOut);
    io::writeScheduleCsv(out, s);
    std::printf("wrote %s\n", csvOut.c_str());
  }
  if (!htmlOut.empty()) {
    std::ofstream out(htmlOut);
    out << renderHtmlReport(s);
    std::printf("wrote %s\n", htmlOut.c_str());
  }
  if (!traceOut.empty()) {
    std::ofstream out(traceOut);
    io::writeChromeTrace(out, s);
    std::printf("wrote %s (open in chrome://tracing or Perfetto)\n",
                traceOut.c_str());
  }
  if (!saveOut.empty()) {
    std::ofstream out(saveOut);
    io::writeSchedule(out, s, scheduler);
    std::printf("wrote %s (re-load with pawsc repair --schedule)\n",
                saveOut.c_str());
  }
  writeObsExports(out, sink, registry, extras);
  const int exitCode =
      anytime ? kExitBudget : (validation.valid() ? kExitOk : kExitInfeasible);
  if (wantsReport) {
    report.valid = validation.valid();
    report.exitClass = exitCode;
    writeReportOut(out.reportOut, report);
  }
  if (scheduleCache.has_value()) finishCache(*scheduleCache, cachePath);
  return exitCode;
}

/// `pawsc schedule a.paws b.paws ...` — schedule every file concurrently on
/// the paws::exec pool and print one summary row per input, in input order.
/// Workers return plain numbers only: a Schedule points into its
/// (worker-local) Problem, and printing from workers would interleave.
int cmdScheduleBatch(const std::vector<std::string>& paths,
                     const std::string& scheduler, std::uint32_t trials,
                     std::size_t jobs, const guard::RunBudget& budget,
                     const std::string& cacheDir) {
  struct Row {
    bool loaded = false;
    bool ok = false;
    int exit = kExitOk;  // this file's exit class; worst row wins
    std::string status;
    std::string message;  // parse/scheduling errors, reported by the printer
    long long finish = 0;
    double ecJ = 0;
    double rho = 0;
    std::uint64_t lpRuns = 0;
  };
  // One cache shared by every worker: duplicate (or near-duplicate) files
  // in the batch pay for one solve. --cache-dir additionally carries the
  // entries across invocations.
  cache::ScheduleCache scheduleCache;
  const std::string cachePath = cacheFilePath(cacheDir);
  loadCacheFile(scheduleCache, cachePath);
  exec::Pool pool(exec::resolveJobs(jobs));
  const std::vector<Row> rows = exec::parallelMap(
      pool, paths.size(), [&](std::size_t i) -> Row {
        Row row;
        io::ParseResult parsed = io::parseProblemFile(paths[i]);
        if (!parsed.ok()) {
          row.exit = kExitInput;
          for (const io::ParseError& e : parsed.errors) {
            if (!row.message.empty()) row.message += "; ";
            row.message += io::format(e);
          }
          return row;
        }
        row.loaded = true;
        const Problem& problem = *parsed.problem;
        // Files already run in parallel; keep each solve single-threaded.
        // Each file gets its own --timeout-ms allowance (the relative
        // timeout resolves per solve, not once for the whole batch).
        const ScheduleResult r =
            runScheduler(&scheduleCache, problem, scheduler, trials, 1,
                         obs::ObsContext{}, budget);
        row.status = toString(r.status);
        row.lpRuns = r.stats.longestPathRuns;
        if (!r.ok()) {
          row.exit = exitForStatus(r.status);
          row.message = r.message;
          return row;
        }
        row.ok = true;
        row.finish = static_cast<long long>(r.schedule->finish().ticks());
        row.ecJ = r.schedule->energyCost(problem.minPower()).joules();
        row.rho = 100.0 * r.schedule->utilization(problem.minPower());
        return row;
      });

  std::printf("%-32s %10s %12s %9s %10s\n", "file", "tau", "Ec(J)", "rho",
              "lp-runs");
  int failures = 0;
  int worst = kExitOk;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const Row& row = rows[i];
    worst = std::max(worst, row.exit);
    if (!row.ok) {
      ++failures;
      std::printf("%-32s %10s %12s %9s %10s  %s\n", paths[i].c_str(), "-",
                  "-", "-", "-",
                  row.loaded ? row.status.c_str() : "PARSE ERROR");
      if (!row.message.empty()) {
        std::fprintf(stderr, "%s: %s\n", paths[i].c_str(),
                     row.message.c_str());
      }
      continue;
    }
    std::printf("%-32s %10lld %12.3f %8.1f%% %10llu\n", paths[i].c_str(),
                row.finish, row.ecJ, row.rho,
                static_cast<unsigned long long>(row.lpRuns));
  }
  std::printf("scheduled %zu/%zu files (%s, %zu worker threads)\n",
              paths.size() - static_cast<std::size_t>(failures),
              paths.size(), scheduler.c_str(), pool.numThreads());
  finishCache(scheduleCache, cachePath);
  return worst;
}

int cmdSweep(const std::string& path, double from, double to, double step) {
  auto problem = load(path);
  if (!problem) return kExitInput;
  if (!(from > 0) || to < from || !(step > 0)) {
    std::fprintf(stderr, "bad sweep range\n");
    return kExitUsage;
  }
  std::printf("%10s %10s %12s %10s\n", "Pmax(W)", "tau", "Ec(J)", "rho");
  for (double w = from; w <= to + 1e-9; w += step) {
    problem->setMaxPower(Watts::fromWatts(w));
    PowerAwareScheduler scheduler(*problem);
    const ScheduleResult r = scheduler.schedule();
    if (!r.ok()) {
      std::printf("%10.2f %10s %12s %10s\n", w, "-", "-", toString(r.status));
      continue;
    }
    std::printf("%10.2f %10lld %12.3f %9.1f%%\n", w,
                static_cast<long long>(r.schedule->finish().ticks()),
                r.schedule->energyCost(problem->minPower()).joules(),
                100.0 * r.schedule->utilization(problem->minPower()));
  }
  return 0;
}

int cmdRepair(const std::string& path, const std::string& schedulePath,
              std::int64_t nowTicks, double newPmax, double newPmin) {
  const auto problem = load(path);
  if (!problem) return kExitInput;
  std::ifstream in(schedulePath);
  if (!in) {
    std::fprintf(stderr, "cannot open schedule file %s\n",
                 schedulePath.c_str());
    return kExitInput;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const io::ScheduleParseResult parsed =
      io::parseSchedule(buffer.str(), *problem);
  if (!parsed.ok()) {
    for (const io::ParseError& e : parsed.errors) {
      std::fprintf(stderr, "%s\n", io::format(e).c_str());
    }
    return kExitInput;
  }

  Problem updated(*problem);
  if (newPmax > 0) updated.setMaxPower(Watts::fromWatts(newPmax));
  if (newPmin > 0) updated.setMinPower(Watts::fromWatts(newPmin));
  const RepairInput input{&updated, &*parsed.schedule, Time(nowTicks)};
  const ScheduleResult repaired = repairSchedule(input);
  if (!repaired.ok()) {
    std::fprintf(stderr, "repair failed (%s): %s\n",
                 toString(repaired.status), repaired.message.c_str());
    return exitForStatus(repaired.status);
  }
  const Schedule& s = *repaired.schedule;
  std::printf("# repaired at t=%lld%s\n",
              static_cast<long long>(nowTicks),
              newPmax > 0 || newPmin > 0 ? " under a new budget" : "");
  io::writeSchedule(std::cout, s, parsed.label + "-repaired");
  std::printf("# finish %lld, Ec %.3fJ\n",
              static_cast<long long>(s.finish().ticks()),
              s.energyCost(updated.minPower()).joules());
  // Validator verdict on the repaired plan. Spikes strictly before the
  // repair instant are frozen history and cannot be fixed; report them but
  // judge only the re-planned future.
  const ValidationReport report = ScheduleValidator(updated).validate(s);
  const bool spikeInFuture =
      s.powerProfile().firstSpike(updated.maxPower(), Time(nowTicks))
          .has_value();
  bool futureViolation = false;
  for (const Violation& v : report.violations) {
    std::ostringstream os;
    os << v;
    const bool historical =
        v.kind == Violation::Kind::kPowerSpike && !spikeInFuture;
    if (!historical) futureViolation = true;
    std::printf("# violation%s: %s\n",
                historical ? " (frozen history, tolerated)" : "",
                os.str().c_str());
  }
  std::printf("# valid: %s\n", futureViolation ? "NO" : "yes");
  return futureViolation ? kExitInfeasible : kExitOk;
}

/// Flags shared by `simulate` and `campaign`: they describe one degraded
/// mission (or the template every campaign mission is sampled from).
struct MissionFlags {
  int steps = 48;
  std::uint64_t seed = 1;
  bool faults = false;
  fault::ContingencyOptions contingency;
  bool abortOnBrownout = false;
  /// --mode-policy mission: arm the criticality-mode ladder (and install
  /// the mission criticality ranks on the rover problems).
  bool missionModes = false;
  /// --battery-model rate: fly on the rate-capacity battery model.
  bool rateBattery = false;
  /// --battery-wh N: battery capacity in watt-hours (Pathfinder's ~40).
  double batteryWh = 40.0;
};

/// The mission battery as the flags describe it. The defaults reproduce
/// rover::missionBattery() exactly, keeping unflagged runs byte-identical.
Battery missionBatteryFor(const MissionFlags& f) {
  const Energy cap = Energy::fromMilliwattTicks(
      static_cast<std::int64_t>(f.batteryWh * 3600.0 * 1000.0));
  return f.rateBattery
             ? rover::missionBattery(cap, rover::missionBatteryTraits())
             : rover::missionBattery(cap);
}

void writeMetricsCsv(const std::string& metricsOut,
                     const obs::MetricsRegistry& registry) {
  if (metricsOut.empty()) return;
  std::ofstream o(metricsOut);
  if (o) {
    registry.writeCsv(o);
    std::printf("wrote %s (%zu metrics)\n", metricsOut.c_str(),
                registry.size());
  } else {
    std::fprintf(stderr, "could not write %s\n", metricsOut.c_str());
  }
}

/// Shared report skeleton for the rover-mission commands: the mission
/// problem (worst-case binding 0 is the canonical identity) plus options.
obs::RunReport missionReport(const char* kind, const Problem& missionProblem,
                             const MissionFlags& f,
                             const guard::RunBudget& budget) {
  obs::RunReport report;
  report.kind = kind;
  report.problemName = missionProblem.name();
  report.problemHash = obs::fnv1a64(io::problemToText(missionProblem));
  report.numTasks = missionProblem.numTasks();
  report.numResources = missionProblem.numResources();
  report.numConstraints = missionProblem.constraints().size();
  report.scheduler = "runtime";
  report.trials = 1;
  report.timeoutMs = timeoutMsOf(budget);
  (void)f;
  return report;
}

int cmdSimulate(const MissionFlags& f, bool traceEvents,
                const ScheduleExports& out, const guard::RunBudget& budget) {
  const std::string& metricsOut = out.metricsOut;
  rover::CaseSchedules cases = rover::buildCaseSchedules();
  if (!cases.ok) {
    std::fprintf(stderr, "could not build case schedules: %s\n",
                 cases.message.c_str());
    return kExitInternal;
  }
  if (f.missionModes) {
    for (auto& p : cases.problems) rover::applyMissionCriticality(*p);
  }
  const std::vector<runtime::CaseBinding> bindings =
      fault::roverCaseBindings(cases);
  const runtime::RuntimeExecutor executor(rover::missionSolarProfile(),
                                          missionBatteryFor(f), bindings);

  runtime::ExecutorConfig ec;
  ec.targetSteps = f.steps;
  ec.abortOnBrownout = f.abortOnBrownout;
  ec.contingency = f.contingency;
  if (f.missionModes) ec.modes = ModePolicy::missionDefault();
  ec.budget = budget;
  obs::MetricsRegistry registry;
  const bool wantsRegistry = !metricsOut.empty() || !out.reportOut.empty() ||
                             !out.openMetricsOut.empty();
  if (wantsRegistry) ec.obs.metrics = &registry;

  // With --faults the mission flies under the plan campaign seed `seed`
  // would give its mission 0 — `pawsc simulate --faults --seed S` replays
  // exactly the first row of `pawsc campaign --seed S`.
  fault::FaultPlan plan;
  if (f.faults) {
    std::vector<std::string> names;
    for (TaskId v : bindings[0].problem->taskIds()) {
      names.push_back(bindings[0].problem->task(v).name);
    }
    const fault::FaultModel model(fault::FaultModelConfig{},
                                  std::move(names));
    plan = model.instantiate(fault::mixSeed(f.seed, 0, 0));
    ec.faults = &plan;
  }

  const runtime::ExecutionResult r = executor.run(ec);
  const bool interrupted = r.stopReason != guard::StopReason::kNone;
  std::printf("steps     : %d/%d%s\n", r.steps, f.steps,
              r.complete    ? ""
              : interrupted ? "  (RUN INTERRUPTED)"
                            : "  (MISSION LOST)");
  if (interrupted) {
    std::printf("stopped   : %s at an iteration boundary\n",
                guard::toString(r.stopReason));
  }
  std::printf("finished  : t=%lld\n",
              static_cast<long long>(r.finishedAt.ticks()));
  if (r.depletedAt.has_value()) {
    std::printf("battery   : %.3fJ drawn, DEPLETED at t=%lld\n",
                r.batteryDrawn.joules(),
                static_cast<long long>(r.depletedAt->ticks()));
  } else {
    std::printf("battery   : %.3fJ drawn%s\n", r.batteryDrawn.joules(),
                r.batteryDepleted ? ", DEPLETED" : "");
  }
  if (f.missionModes) {
    std::printf("modes     : final %d, %d escalations, %d de-escalations, "
                "%d mode-shed%s\n",
                r.finalMode, r.modeEscalations, r.modeDeescalations,
                r.modeShedTasks,
                r.modeInfeasible ? " (repair infeasible)" : "");
  }
  std::printf("faults    : %d injected (%zu scripted), %d brownouts\n",
              r.faultsInjected, plan.faults.size(), r.brownouts);
  std::printf("responses : %d retries, %d replans (%d failed), %d shed, "
              "%d deadline misses\n",
              r.retries, r.replans, r.replanFailures, r.shedTasks,
              r.deadlineMisses);
  if (r.unrecoverable) std::printf("fatal     : critical task unrecoverable\n");
  if (r.stalled) std::printf("fatal     : zero-progress iteration (stall)\n");
  if (traceEvents) {
    std::printf("events    :\n");
    for (const runtime::Event& e : r.trace) {
      std::printf("  t=%-8lld %-18s %s\n",
                  static_cast<long long>(e.at.ticks()),
                  runtime::toString(e.kind), e.detail.c_str());
    }
  }
  writeMetricsCsv(metricsOut, registry);
  writeOpenMetricsOut(out.openMetricsOut, registry);
  const int exitCode = interrupted ? kExitBudget
                       : r.complete ? kExitOk
                                    : kExitInfeasible;
  if (!out.reportOut.empty()) {
    obs::RunReport report =
        missionReport("simulate", *bindings[0].problem, f, budget);
    report.status = r.complete      ? "complete"
                    : interrupted   ? "interrupted"
                                    : "mission-lost";
    report.stopReason = guard::toString(r.stopReason);
    report.exitClass = exitCode;
    report.valid = r.complete;
    report.metrics = registry;
    writeReportOut(out.reportOut, report);
  }
  return exitCode;
}

int cmdCampaign(const MissionFlags& f, int missions, std::size_t jobs,
                const std::string& jsonOut, const ScheduleExports& out,
                const guard::RunBudget& budget) {
  const std::string& metricsOut = out.metricsOut;
  if (missions <= 0) {
    std::fprintf(stderr, "--missions must be positive\n");
    return kExitUsage;
  }
  rover::CaseSchedules cases = rover::buildCaseSchedules();
  if (!cases.ok) {
    std::fprintf(stderr, "could not build case schedules: %s\n",
                 cases.message.c_str());
    return kExitInternal;
  }
  if (f.missionModes) {
    for (auto& p : cases.problems) rover::applyMissionCriticality(*p);
  }
  const std::vector<runtime::CaseBinding> bindings =
      fault::roverCaseBindings(cases);
  const Problem& missionProblem = *bindings.front().problem;
  const fault::FaultCampaign campaign(rover::missionSolarProfile(),
                                      missionBatteryFor(f), bindings);
  fault::CampaignConfig cc;
  cc.missions = missions;
  cc.seed = f.seed;
  cc.targetSteps = f.steps;
  cc.abortOnBrownout = f.abortOnBrownout;
  cc.contingency = f.contingency;
  if (f.missionModes) cc.modePolicy = ModePolicy::missionDefault();
  cc.batteryModel = f.rateBattery ? "rate" : "linear";
  cc.jobs = jobs;  // 0 = exec::defaultJobs(); never affects the results
  cc.budget = budget;
  obs::MetricsRegistry registry;
  const bool wantsRegistry = !metricsOut.empty() || !out.reportOut.empty() ||
                             !out.openMetricsOut.empty();
  if (wantsRegistry) cc.obs.metrics = &registry;

  const fault::CampaignResult result = campaign.run(cc);
  const bool interrupted = result.stopReason != guard::StopReason::kNone;
  const std::string json = fault::toJson(cc, result);
  if (jsonOut == "-") {
    std::fputs(json.c_str(), stdout);
  } else {
    std::printf("campaign  : %d missions, seed %llu, %d steps each\n",
                result.missions,
                static_cast<unsigned long long>(cc.seed), cc.targetSteps);
    if (interrupted) {
      std::printf("truncated : %s after %d of %d missions\n",
                  guard::toString(result.stopReason), result.missions,
                  missions);
    }
    std::printf("survival  : %d/%d missions (%lld permille)\n",
                result.survived, result.missions,
                static_cast<long long>(result.survivalPermille()));
    std::printf("faults    : %lld injected, %lld brownouts, %lld "
                "depletions\n",
                static_cast<long long>(result.faultsInjected),
                static_cast<long long>(result.brownouts),
                static_cast<long long>(result.depletions));
    std::printf("responses : %lld retries, %lld replans (%lld failed), "
                "%lld shed, %lld deadline misses\n",
                static_cast<long long>(result.retries),
                static_cast<long long>(result.replans),
                static_cast<long long>(result.replanFailures),
                static_cast<long long>(result.shedTasks),
                static_cast<long long>(result.deadlineMisses));
    std::printf("lost      : %lld unrecoverable, %lld stalled\n",
                static_cast<long long>(result.unrecoverable),
                static_cast<long long>(result.stalled));
    if (cc.modePolicy.enabled()) {
      std::printf("modes     : %lld escalations, %lld de-escalations, "
                  "%lld mode-shed, %lld repair-infeasible\n",
                  static_cast<long long>(result.modeEscalations),
                  static_cast<long long>(result.modeDeescalations),
                  static_cast<long long>(result.modeShedTasks),
                  static_cast<long long>(result.modeInfeasible));
    }
    if (!jsonOut.empty()) {
      std::ofstream o(jsonOut);
      if (o) {
        o << json;
        std::printf("wrote %s\n", jsonOut.c_str());
      } else {
        std::fprintf(stderr, "could not write %s\n", jsonOut.c_str());
        return kExitInput;
      }
    }
  }
  writeMetricsCsv(metricsOut, registry);
  writeOpenMetricsOut(out.openMetricsOut, registry);
  const int exitCode = interrupted ? kExitBudget : kExitOk;
  if (!out.reportOut.empty()) {
    obs::RunReport report = missionReport("campaign", missionProblem, f, budget);
    report.jobs = static_cast<std::int64_t>(jobs);
    report.status = interrupted ? "interrupted" : "complete";
    report.stopReason = guard::toString(result.stopReason);
    report.exitClass = exitCode;
    report.valid = !interrupted;
    report.metrics = registry;
    writeReportOut(out.reportOut, report);
  }
  return exitCode;
}

std::optional<std::string> readTextFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// `pawsc trace <summarize|diff|incumbents>` — offline analysis of run
/// reports and JSONL search traces. Parses its own flags: the main loop's
/// flags (--csv takes a value there) do not apply to recorded artifacts.
int cmdTrace(int argc, char** argv) {
  const auto traceUsage = [] {
    std::fprintf(stderr,
                 "usage: pawsc trace summarize <trace.jsonl|report.json> "
                 "[--top K]\n"
                 "       pawsc trace diff <a.json> <b.json> "
                 "[--tolerance PCT]\n"
                 "       pawsc trace incumbents <report.json> [--csv]\n");
    return kExitUsage;
  };
  if (argc < 3) return traceUsage();
  const std::string sub = argv[2];
  std::vector<std::string> files;
  std::size_t topK = 5;
  double tolerancePct = 10.0;
  bool csv = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(kExitUsage);
      }
      return argv[++i];
    };
    if (!arg.empty() && arg[0] != '-') {
      files.push_back(arg);
    } else if (arg == "--top") {
      topK = static_cast<std::size_t>(std::atoll(value("--top")));
    } else if (arg == "--tolerance") {
      tolerancePct = std::atof(value("--tolerance"));
    } else if (arg == "--csv") {
      csv = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return traceUsage();
    }
  }

  if (sub == "summarize") {
    if (files.size() != 1) return traceUsage();
    const auto text = readTextFile(files[0]);
    if (!text) return kExitInput;
    obs::TraceSummaryOptions options;
    options.topK = topK;
    const obs::TraceSummary summary = obs::summarizeTraceText(*text, options);
    if (!summary.ok) {
      std::fprintf(stderr, "%s: %s\n", files[0].c_str(),
                   summary.error.c_str());
      return kExitInput;
    }
    std::fputs(summary.text.c_str(), stdout);
    return kExitOk;
  }
  if (sub == "diff") {
    if (files.size() != 2) return traceUsage();
    obs::ReportParseResult a = obs::loadRunReport(files[0]);
    obs::ReportParseResult b = obs::loadRunReport(files[1]);
    if (!a.ok || !b.ok) {
      if (!a.ok) {
        std::fprintf(stderr, "%s: %s\n", files[0].c_str(), a.error.c_str());
      }
      if (!b.ok) {
        std::fprintf(stderr, "%s: %s\n", files[1].c_str(), b.error.c_str());
      }
      return kExitInput;
    }
    obs::ReportDiffOptions options;
    options.relTolerance = tolerancePct / 100.0;
    const obs::ReportDiff diff =
        obs::diffReports(a.report, b.report, options);
    std::fputs(obs::renderReportDiff(diff, files[0], files[1]).c_str(),
               stdout);
    // A deterministic mismatch means the two runs disagree on something
    // that must be byte-equal for a fixed problem — the regression class
    // scripts gate on. Noise over tolerance is reported but not fatal.
    return diff.deterministicOk() ? kExitOk : kExitInfeasible;
  }
  if (sub == "incumbents") {
    if (files.size() != 1) return traceUsage();
    obs::ReportParseResult parsed = obs::loadRunReport(files[0]);
    if (!parsed.ok) {
      std::fprintf(stderr, "%s: %s\n", files[0].c_str(),
                   parsed.error.c_str());
      return kExitInput;
    }
    std::fputs(obs::renderIncumbents(parsed.report, csv).c_str(), stdout);
    return kExitOk;
  }
  return traceUsage();
}

int cmdDot(const std::string& path) {
  const auto problem = load(path);
  if (!problem) return kExitInput;
  DotOptions opt;
  opt.vertexLabels.resize(problem->numVertices());
  for (TaskId v : problem->taskIds()) {
    opt.vertexLabels[v.index()] = problem->task(v).name;
  }
  std::cout << toDot(problem->buildGraph(), opt);
  return 0;
}

int runCli(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  // trace reads recorded artifacts, not .paws files, and its --csv flag is
  // a boolean where the main loop's takes a value: it parses its own args.
  if (command == "trace") return cmdTrace(argc, argv);
  // simulate/campaign replay the built-in rover mission: no input file.
  const bool takesFile = command != "simulate" && command != "campaign";
  if (takesFile && argc < 3) return usage();
  const std::string path = takesFile ? argv[2] : "";
  // `schedule` accepts several input files (batch mode); the extra
  // positional arguments land here.
  std::vector<std::string> paths;
  if (takesFile) paths.push_back(path);

  std::string scheduler = "pipeline";
  std::uint32_t trials = 4;
  std::size_t jobs = 0;  // 0 = PAWS_JOBS env or hardware_concurrency
  ScheduleExports exports;
  double pmaxFrom = 0, pmaxTo = 0, pmaxStep = 1;
  std::int64_t horizon = 0;
  std::string schedulePath;
  std::int64_t now = 0;
  double newPmax = 0, newPmin = 0;
  MissionFlags mission;
  int missions = 32;
  bool traceEvents = false;
  std::string jsonOut;
  std::string cacheDir;  // empty = no persistent schedule cache
  std::int64_t timeoutMs = 0;  // 0 = no wall-clock deadline

  for (int i = takesFile ? 3 : 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(kExitUsage);
      }
      return argv[++i];
    };
    if (!arg.empty() && arg[0] != '-') {
      paths.push_back(arg);  // extra input file (batch schedule)
    } else if (arg == "--scheduler") {
      scheduler = value("--scheduler");
      if (!cache::knownScheduler(scheduler)) {
        std::fprintf(stderr,
                     "--scheduler takes pipeline|serial|list|optimal\n");
        return kExitUsage;
      }
    } else if (arg == "--trials") {
      std::int64_t n = 0;
      if (!parseWhole(value("--trials"), n) || n < 1 ||
          n > PowerAwareOptions::kMaxTrials) {
        std::fprintf(stderr, "--trials takes 1..%u\n",
                     PowerAwareOptions::kMaxTrials);
        return kExitUsage;
      }
      trials = static_cast<std::uint32_t>(n);
    } else if (arg == "--jobs") {
      std::int64_t n = 0;
      if (!parseWhole(value("--jobs"), n) || n < 0) {
        std::fprintf(stderr, "--jobs takes a whole number >= 0\n");
        return kExitUsage;
      }
      jobs = static_cast<std::size_t>(n);
    } else if (arg == "--gantt") {
      exports.gantt = true;
    } else if (arg == "--breakdown") {
      exports.breakdown = true;
    } else if (arg == "--trace") {
      exports.traceOut = value("--trace");
    } else if (arg == "--save") {
      exports.saveOut = value("--save");
    } else if (arg == "--svg") {
      exports.svgOut = value("--svg");
    } else if (arg == "--csv") {
      exports.csvOut = value("--csv");
    } else if (arg == "--html") {
      exports.htmlOut = value("--html");
    } else if (arg == "--search-trace") {
      exports.searchTraceOut = value("--search-trace");
    } else if (arg == "--search-jsonl") {
      exports.searchJsonlOut = value("--search-jsonl");
    } else if (arg == "--metrics") {
      exports.metricsOut = value("--metrics");
    } else if (arg == "--report") {
      exports.reportOut = value("--report");
    } else if (arg == "--openmetrics") {
      exports.openMetricsOut = value("--openmetrics");
    } else if (arg == "--obs-summary") {
      exports.obsSummary = true;
    } else if (arg == "--digest") {
      exports.digest = true;
    } else if (arg == "--pmax-from") {
      pmaxFrom = std::atof(value("--pmax-from"));
    } else if (arg == "--pmax-to") {
      pmaxTo = std::atof(value("--pmax-to"));
    } else if (arg == "--step") {
      pmaxStep = std::atof(value("--step"));
    } else if (arg == "--horizon") {
      horizon = std::atoll(value("--horizon"));
    } else if (arg == "--schedule") {
      schedulePath = value("--schedule");
    } else if (arg == "--now" || arg == "--at") {
      now = std::atoll(value(arg.c_str()));
    } else if (arg == "--pmax") {
      newPmax = std::atof(value("--pmax"));
    } else if (arg == "--pmin") {
      newPmin = std::atof(value("--pmin"));
    } else if (arg == "--steps") {
      mission.steps = std::atoi(value("--steps"));
    } else if (arg == "--seed") {
      mission.seed =
          static_cast<std::uint64_t>(std::atoll(value("--seed")));
    } else if (arg == "--missions") {
      missions = std::atoi(value("--missions"));
    } else if (arg == "--faults") {
      mission.faults = true;
    } else if (arg == "--contingency") {
      mission.contingency = fault::ContingencyOptions::all();
    } else if (arg == "--retry") {
      mission.contingency.retry = true;
    } else if (arg == "--replan") {
      mission.contingency.replan = true;
    } else if (arg == "--shed") {
      mission.contingency.shed = true;
    } else if (arg == "--watchdog") {
      mission.contingency.watchdogSlackPct =
          static_cast<std::uint32_t>(std::atoi(value("--watchdog")));
    } else if (arg == "--mode-policy") {
      const std::string v = value("--mode-policy");
      if (v == "mission") {
        mission.missionModes = true;
      } else if (v == "off") {
        mission.missionModes = false;
      } else {
        std::fprintf(stderr, "--mode-policy takes off|mission\n");
        return kExitUsage;
      }
    } else if (arg == "--battery-model") {
      const std::string v = value("--battery-model");
      if (v == "rate") {
        mission.rateBattery = true;
      } else if (v == "linear") {
        mission.rateBattery = false;
      } else {
        std::fprintf(stderr, "--battery-model takes linear|rate\n");
        return kExitUsage;
      }
    } else if (arg == "--battery-wh") {
      mission.batteryWh = std::atof(value("--battery-wh"));
      if (mission.batteryWh <= 0) {
        std::fprintf(stderr, "--battery-wh needs a positive value\n");
        return kExitUsage;
      }
    } else if (arg == "--abort-on-brownout") {
      mission.abortOnBrownout = true;
    } else if (arg == "--trace-events") {
      traceEvents = true;
    } else if (arg == "--json") {
      jsonOut = value("--json");
    } else if (arg == "--cache-dir") {
      cacheDir = value("--cache-dir");
    } else if (arg == "--timeout-ms") {
      timeoutMs = std::atoll(value("--timeout-ms"));
      if (timeoutMs <= 0) {
        std::fprintf(stderr, "--timeout-ms needs a positive value\n");
        return kExitUsage;
      }
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return usage();
    }
  }

  guard::RunBudget budget;
  if (timeoutMs > 0) {
    budget.timeout = std::chrono::milliseconds(timeoutMs);
  }

  if (!takesFile && !paths.empty()) {
    std::fprintf(stderr, "%s takes no input file\n", command.c_str());
    return kExitUsage;
  }
  if (takesFile && command != "schedule" && paths.size() > 1) {
    std::fprintf(stderr, "%s takes exactly one input file\n",
                 command.c_str());
    return kExitUsage;
  }
  if (command == "check") return cmdCheck(path);
  if (command == "schedule") {
    if (paths.size() > 1) {
      if (exports.any()) {
        std::fprintf(stderr,
                     "render/export flags need a single input file\n");
        return kExitUsage;
      }
      return cmdScheduleBatch(paths, scheduler, trials, jobs, budget,
                              cacheDir);
    }
    return cmdSchedule(path, scheduler, trials, jobs, exports, budget,
                       cacheDir);
  }
  if (command == "sweep") return cmdSweep(path, pmaxFrom, pmaxTo, pmaxStep);
  if (command == "windows") return cmdWindows(path, horizon);
  if (command == "repair") {
    if (schedulePath.empty()) {
      std::fprintf(stderr, "repair needs --schedule <file>\n");
      return kExitUsage;
    }
    return cmdRepair(path, schedulePath, now, newPmax, newPmin);
  }
  if (command == "simulate") {
    return cmdSimulate(mission, traceEvents, exports, budget);
  }
  if (command == "campaign") {
    return cmdCampaign(mission, missions, jobs, jsonOut, exports, budget);
  }
  if (command == "dot") return cmdDot(path);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  // Anything that escapes as an exception is by definition not one of the
  // structured failure classes: report it as internal, never as a crash.
  try {
    return runCli(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return kExitInternal;
  } catch (...) {
    std::fprintf(stderr, "internal error: unknown exception\n");
    return kExitInternal;
  }
}
