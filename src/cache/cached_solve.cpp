#include "cache/cached_solve.hpp"

#include <optional>
#include <utility>

#include "cache/canonical.hpp"
#include "exec/jobs.hpp"
#include "io/schedule_io.hpp"
#include "obs/phase_timer.hpp"
#include "sched/exhaustive_scheduler.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/min_power_scheduler.hpp"
#include "sched/polish.hpp"
#include "sched/power_aware_scheduler.hpp"
#include "sched/repair.hpp"
#include "sched/serial_scheduler.hpp"
#include "validate/validator.hpp"

namespace paws::cache {

namespace {

/// The exhaustive scheduler's default horizon (serial span plus largest
/// declared separation), recomputed here so the warm-start seed check —
/// "does the heuristic schedule fit the search horizon?" — matches the
/// search it seeds.
Time defaultHorizon(const Problem& problem) {
  Duration total = Duration::zero();
  for (TaskId v : problem.taskIds()) total += problem.task(v).delay;
  Duration maxSep = Duration::zero();
  for (const TimingConstraint& c : problem.constraints()) {
    maxSep = std::max(maxSep, c.separation);
  }
  return Time::zero() + total + maxSep;
}

/// Strict lexicographic (energy cost above Pmin, finish) comparison —
/// the objective order the exhaustive search optimizes.
bool lexBetter(const Schedule& a, const Schedule& b) {
  const Problem& p = a.problem();
  const Energy ca = a.energyCost(p.minPower());
  const Energy cb = b.energyCost(p.minPower());
  return ca < cb || (ca == cb && a.finish() < b.finish());
}

/// Binds a cached schedule onto `problem` by task name, or nullopt when
/// the names do not match. Entries produced in this process carry the
/// assignment pre-split as (name, ticks) pairs: one name lookup per task,
/// no text parse. Any mismatch there (task count, unknown name,
/// duplicate) falls through to parsing the text, which applies its own
/// full checks. Binding does not validate.
std::optional<Schedule> bind(const CacheEntry& entry, const Problem& problem) {
  if (entry.startsByName.size() == problem.numTasks()) {
    std::vector<Time> starts(problem.numVertices(), Time::zero());
    std::vector<bool> seen(problem.numVertices(), false);
    bool ok = true;
    for (const auto& [name, ticks] : entry.startsByName) {
      const std::optional<TaskId> id = problem.findTask(name);
      if (!id.has_value() || seen[id->index()]) {
        ok = false;
        break;
      }
      seen[id->index()] = true;
      starts[id->index()] = Time(ticks);
    }
    if (ok) return Schedule(&problem, std::move(starts));
  }
  io::ScheduleParseResult parsed =
      io::parseSchedule(entry.scheduleText, problem);
  if (!parsed.ok()) return std::nullopt;
  return std::move(parsed.schedule);
}

bool isValid(const Problem& problem, const Schedule& schedule) {
  return ScheduleValidator(problem).validate(schedule).valid();
}

/// bind() plus the independent validator. Any failure — including the
/// astronomically unlikely 64-bit hash collision — reads as "nothing
/// usable", never as a wrong answer.
std::optional<Schedule> rebind(const CacheEntry& entry,
                               const Problem& problem) {
  std::optional<Schedule> schedule = bind(entry, problem);
  if (schedule.has_value() && !isValid(problem, *schedule)) {
    return std::nullopt;
  }
  return schedule;
}

void insertClean(ScheduleCache& cache, const CacheKey& key,
                 std::uint64_t structuralHash, const Problem& problem,
                 const std::string& label, const ScheduleResult& r,
                 std::uint64_t nodesExplored, bool provenOptimal) {
  CacheEntry entry;
  entry.scheduleText = io::scheduleToText(*r.schedule, label);
  // The entry keeps its text until evicted: hold none of the capacity
  // scheduleToText reserves for rendering.
  entry.scheduleText.shrink_to_fit();
  entry.startsByName.reserve(problem.numTasks());
  for (TaskId v : problem.taskIds()) {
    entry.startsByName.emplace_back(problem.task(v).name,
                                    r.schedule->start(v).ticks());
  }
  entry.costMwt =
      r.schedule->energyCost(problem.minPower()).milliwattTicks();
  entry.finish = r.schedule->finish();
  entry.provenOptimal = provenOptimal;
  entry.structuralHash = structuralHash;
  entry.stats = r.stats;
  entry.nodesExplored = nodesExplored;
  cache.insert(key, std::move(entry));
}

/// Warm-start pair handed to the exhaustive search: the heuristic
/// schedule's cost and finish (both needed — the finish arms the local
/// cost-tie cut, see ExhaustiveOptions::initialIncumbentFinish).
struct WarmSeed {
  Energy cost;
  Time finish;
};

ScheduleResult runCold(const Problem& problem, const SolveSpec& spec,
                       std::optional<WarmSeed> seed, SolveInfo& info) {
  if (spec.scheduler == "serial") return SerialScheduler(problem).schedule();
  if (spec.scheduler == "list") return ListScheduler(problem).schedule();
  if (spec.scheduler == "optimal") {
    ExhaustiveOptions options;
    options.jobs = spec.jobs == 0 ? exec::resolveJobs(0) : spec.jobs;
    options.obs = spec.obs;
    options.budget = spec.budget;
    if (seed.has_value()) {
      options.initialIncumbent = seed->cost;
      options.initialIncumbentFinish = seed->finish;
    }
    ExhaustiveScheduler optimal(problem, options);
    ScheduleResult r = optimal.schedule();
    info.stopReason = optimal.outcome().stopReason;
    info.provenOptimal = optimal.outcome().provenOptimal;
    info.nodesExplored = optimal.outcome().nodesExplored;
    return r;
  }
  PowerAwareOptions options;
  options.trials = spec.trials;
  options.obs = spec.obs;
  options.budget = spec.budget;
  return PowerAwareScheduler(problem, options).schedule();
}

}  // namespace

bool knownScheduler(std::string_view name) {
  return name == "pipeline" || name == "serial" || name == "list" ||
         name == "optimal";
}

ScheduleResult solveThroughCache(ScheduleCache* cache, const Problem& problem,
                                 const SolveSpec& spec, SolveInfo* infoOut) {
  if (cache == nullptr) {
    // No cache: the historical dispatch, bit-for-bit.
    SolveInfo info;
    ScheduleResult r = runCold(problem, spec, std::nullopt, info);
    if (infoOut != nullptr) *infoOut = info;
    return r;
  }
  const CacheKey key = exactKey(problem, spec);
  if (std::optional<ScheduleResult> served =
          tryServeExact(*cache, problem, key, infoOut)) {
    return std::move(*served);
  }
  return solveMiss(*cache, problem, spec, key, infoOut);
}

CacheKey exactKey(const Problem& problem, const SolveSpec& spec) {
  // Key-only canonicalization: the exact-hit probe needs just the hash.
  return CacheKey{canonicalize(problem, CanonicalParts::kKeyOnly).hash,
                  optionsFingerprint(spec.scheduler, spec.trials)};
}

std::optional<ScheduleResult> tryServeExact(ScheduleCache& cache,
                                            const Problem& problem,
                                            const CacheKey& key,
                                            SolveInfo* infoOut) {
  const std::shared_ptr<const CacheEntry> entry = cache.lookup(key);
  if (entry == nullptr) return std::nullopt;
  std::optional<Schedule> schedule = rebind(*entry, problem);
  if (!schedule.has_value()) return std::nullopt;
  if (infoOut != nullptr) {
    *infoOut = SolveInfo{};
    infoOut->cacheHit = true;
    infoOut->provenOptimal = entry->provenOptimal;
  }
  ScheduleResult r;
  r.status = SchedStatus::kOk;
  r.schedule = std::move(schedule);
  r.stats = entry->stats;
  r.message = "served from schedule cache";
  return r;
}

ScheduleResult solveMiss(ScheduleCache& cache, const Problem& problem,
                         const SolveSpec& spec, const CacheKey& key,
                         SolveInfo* infoOut) {
  SolveInfo info;
  // Past the exact probe the structural hash is needed too (near-miss
  // lookup now, insertion after the solve): one full canonicalization.
  const std::uint64_t structuralHash =
      canonicalize(problem, CanonicalParts::kFull).structuralHash;

  // Rung 2: near-miss revalidation — pipeline only. Serving a structurally
  // matching but numerically different entry is a heuristic answer, which
  // is exactly the pipeline's contract and exactly wrong for `optimal`.
  if (spec.scheduler == "pipeline") {
    if (const std::shared_ptr<const CacheEntry> candidate =
            cache.lookupStructural(structuralHash, key.optionsFp)) {
      if (std::optional<Schedule> cached = bind(*candidate, problem)) {
        ScheduleResult served;
        if (isValid(problem, *cached)) {
          // Still valid under the new limits: keep the plan, polish the
          // soft objective under the (possibly changed) Pmin with a
          // warm-started min-power improvement pass.
          MinPowerOptions options;
          options.initialStarts = cached->starts();
          options.obs = spec.obs;
          options.budget = spec.budget;
          served = MinPowerScheduler(problem, options).schedule();
        } else {
          // Invalid under the delta (e.g. tightened Pmax): rebuild from
          // the cached plan through the repair machinery. now = 0 freezes
          // nothing — every task may move, but the task set and plan
          // structure carry over.
          RepairInput input;
          input.updated = &problem;
          input.current = &*cached;
          input.now = Time::zero();
          PowerAwareOptions options;
          options.trials = spec.trials;
          options.obs = spec.obs;
          options.budget = spec.budget;
          served = repairSchedule(input, options);
        }
        if (served.ok() && isValid(problem, *served.schedule)) {
          cache.noteRevalidation();
          info.revalidated = true;
          served.message = "revalidated from schedule cache (near miss)";
          insertClean(cache, key, structuralHash, problem, spec.scheduler,
                      served, /*nodesExplored=*/0, /*provenOptimal=*/false);
          if (infoOut != nullptr) *infoOut = info;
          return served;
        }
      }
    }
  }

  // Rung 3: warm-start seed for the exhaustive search — a cached pipeline
  // schedule for this exact problem, or the cheap pipeline heuristic run
  // fresh. Its cost is an upper bound on the optimum whenever the schedule
  // is valid and fits the search horizon, so seeding keeps the result
  // byte-identical while pruning from node 0.
  std::optional<WarmSeed> seed;
  if (spec.scheduler == "optimal") {
    // One span over the whole seed (rebind or pipeline run, serial run,
    // polish), so a miss's seed time reads apart from the search's.
    obs::PhaseTimer seedTimer(spec.obs, "warm-seed");
    const Time horizon = defaultHorizon(problem);
    const CacheKey pipelineKey{key.problemHash,
                               optionsFingerprint("pipeline", spec.trials)};
    std::optional<Schedule> heuristic;
    ScheduleResult pipelineResult;
    if (const std::shared_ptr<const CacheEntry> entry =
            cache.peek(pipelineKey)) {
      heuristic = rebind(*entry, problem);
    }
    if (!heuristic.has_value()) {
      // The seeding run is an internal detail of this request: it may
      // publish effort metrics, but its improvement curve must not pollute
      // the search's incumbent trajectory.
      SolveSpec seedSpec;
      seedSpec.scheduler = "pipeline";
      seedSpec.trials = spec.trials;
      seedSpec.obs = spec.obs;
      seedSpec.obs.incumbents = nullptr;
      seedSpec.budget = spec.budget;
      SolveInfo ignored;
      pipelineResult = runCold(problem, seedSpec, std::nullopt, ignored);
      if (pipelineResult.ok() &&
          isValid(problem, *pipelineResult.schedule)) {
        heuristic = *pipelineResult.schedule;
        insertClean(cache, pipelineKey, structuralHash, problem, "pipeline",
                    pipelineResult, /*nodesExplored=*/0,
                    /*provenOptimal=*/false);
      }
    }
    // The pipeline compacts, but the lex optimum often spreads tasks out
    // (overlap below Pmin is free) — the serial schedule is frequently
    // at or near the optimal cost when it fits the horizon. Take the
    // lex-best valid in-horizon candidate, then polish it: the tighter
    // the seed, the more of the search's improvement ladder is pruned.
    if (ScheduleResult serial = SerialScheduler(problem).schedule();
        serial.ok() && serial.schedule->finish() <= horizon &&
        isValid(problem, *serial.schedule)) {
      if (!heuristic.has_value() || lexBetter(*serial.schedule, *heuristic)) {
        heuristic = *serial.schedule;
      }
    }
    if (heuristic.has_value() && heuristic->finish() <= horizon) {
      PolishOptions polishOptions;
      polishOptions.horizon = horizon;
      Schedule polished = polishSchedule(problem, *heuristic, polishOptions);
      if (polished.finish() <= horizon && isValid(problem, polished) &&
          !lexBetter(*heuristic, polished)) {
        heuristic = std::move(polished);
      }
      seed = WarmSeed{heuristic->energyCost(problem.minPower()),
                      heuristic->finish()};
      info.warmStarted = true;
      cache.noteWarmStart();
    }
  }

  ScheduleResult r = runCold(problem, spec, seed, info);

  // One validator run decides both the insert and the answer: a schedule
  // the validator rejects (the list baseline ignores max separations) is
  // never inserted, and the caller learns not to ship it. Beyond that,
  // insert only clean, fully-solved results: no budget/deadline trips
  // (those are anytime answers a fresh run would beat) and, for the
  // optimality oracle, only proven-optimal verdicts.
  info.validationFailed =
      r.schedule.has_value() && !isValid(problem, *r.schedule);
  const bool clean = r.ok() && !info.validationFailed &&
                     info.stopReason == guard::StopReason::kNone &&
                     (spec.scheduler != "optimal" || info.provenOptimal);
  if (clean) {
    insertClean(cache, key, structuralHash, problem, spec.scheduler, r,
                info.nodesExplored, info.provenOptimal);
  }
  if (infoOut != nullptr) *infoOut = info;
  return r;
}

}  // namespace paws::cache
