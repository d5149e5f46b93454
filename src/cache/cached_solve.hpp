// solveThroughCache — the cache-aware solve entry point.
//
// One function wraps the pawsc scheduler dispatch (pipeline / serial /
// list / optimal) with the full reuse ladder, cheapest rung first:
//
//   1. exact hit  — canonical key present: rebind the cached schedule by
//      task name, re-validate it against the querying problem (a 64-bit
//      hash collision must cost a miss, never a wrong answer) and serve.
//      Byte-identical to the solve that produced the entry, microseconds.
//   2. near-miss  — pipeline only: an entry with the same structural
//      skeleton but different limits / task costs. Bind it by task name
//      (the binder rung 1 uses) and validate under the NEW problem; when
//      still valid, polish with a MinPower improvement pass warm-started
//      from it (gap filling under the new Pmin, each resource's tasks
//      kept in their cached order); when invalid, rebuild from it via
//      repairSchedule. Either way the served schedule is validator-
//      checked against the querying problem. Counted as
//      cache.revalidations. Results are heuristic-grade like the pipeline
//      itself, but orders of magnitude cheaper than a cold solve on
//      near-duplicate traffic.
//   3. warm start — optimal only: a cold exhaustive solve is seeded with
//      `ExhaustiveOptions::{initialIncumbent, initialIncumbentFinish}`
//      from the lex-best of the pipeline heuristic (or a cached pipeline
//      entry) and the serial schedule, sharpened by polishSchedule, so
//      branch-and-bound prunes against a real (cost, finish) incumbent
//      from node 0. Byte-identical result, strictly fewer nodes. Counted
//      as cache.warm_starts.
//   4. cold solve — no cache, or nothing reusable.
//
// The ladder is also available in its three parts, so a server can take
// rung 1 on its connection thread and hand only misses to a worker:
// exactKey() computes the request's key once (one key-only
// canonicalization), tryServeExact() is rung 1, and solveMiss() runs
// rungs 2-4 from one full canonicalization without probing rung 1 again.
// solveThroughCache is exactly their composition.
//
// A cold result's schedule is run through the validator once; a schedule
// it rejects is never inserted, and SolveInfo::validationFailed says so.
// Clean, fully-solved results (status kOk, validator-clean, no
// budget/deadline trip, and for `optimal` a proven-optimal verdict) are
// inserted back. With `cache == nullptr` the function degrades to the
// plain dispatch and is behavior-identical to the historical pawsc
// runScheduler path.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "cache/schedule_cache.hpp"
#include "guard/budget.hpp"
#include "model/problem.hpp"
#include "obs/context.hpp"
#include "sched/result.hpp"

namespace paws::cache {

struct SolveSpec {
  /// pawsc dispatch name: pipeline | serial | list | optimal.
  std::string scheduler = "pipeline";
  /// Pipeline restarts (PowerAwareOptions::trials).
  std::uint32_t trials = 4;
  /// Worker threads for the exhaustive search (already resolved; 0 is
  /// passed through to exec::resolveJobs).
  std::size_t jobs = 1;
  obs::ObsContext obs;
  guard::RunBudget budget;
};

/// True for the four SolveSpec::scheduler names. pawsc and pawsd refuse
/// any other name before solving.
[[nodiscard]] bool knownScheduler(std::string_view name);

/// How the result was produced — pawsc reporting reads this.
struct SolveInfo {
  bool cacheHit = false;      ///< served from an exact cache entry
  bool revalidated = false;   ///< served through the near-miss path
  bool warmStarted = false;   ///< cold solve ran with a seeded incumbent
  /// Exhaustive verdict (true for serves of proven-optimal entries).
  bool provenOptimal = false;
  /// Stop reason of a cold optimal solve (kNone for serves).
  guard::StopReason stopReason = guard::StopReason::kNone;
  /// Nodes the cold optimal solve explored (0 for serves).
  std::uint64_t nodesExplored = 0;
  /// The cold solve returned a schedule the validator rejects (e.g. a
  /// `list` answer that breaks a max separation): not inserted, and not
  /// an answer to ship as valid. Set by solveMiss; the cache-less dispatch
  /// does not validate and leaves it false.
  bool validationFailed = false;
  [[nodiscard]] bool servedFromCache() const {
    return cacheHit || revalidated;
  }
};

/// Solves `problem` through `cache` (nullptr = always cold). The returned
/// schedule is bound to `problem`. Equivalent to exactKey, then
/// tryServeExact, then solveMiss when rung 1 missed.
ScheduleResult solveThroughCache(ScheduleCache* cache, const Problem& problem,
                                 const SolveSpec& spec,
                                 SolveInfo* infoOut = nullptr);

/// The exact-hit key of `problem` under `spec`: its key-only canonical
/// hash and the options fingerprint of (scheduler, trials).
[[nodiscard]] CacheKey exactKey(const Problem& problem, const SolveSpec& spec);

/// Rung 1 alone: serve the entry under `key` (rebind by name + revalidate),
/// or return nullopt WITHOUT solving. Counts one cache hit or miss. On a
/// hit `*infoOut` is overwritten; on a miss it is left alone.
std::optional<ScheduleResult> tryServeExact(ScheduleCache& cache,
                                            const Problem& problem,
                                            const CacheKey& key,
                                            SolveInfo* infoOut = nullptr);

/// Rungs 2-4 for a request whose rung-1 probe under `key` (from exactKey)
/// missed: near-miss, warm start, cold solve, and insertion of a clean
/// result under `key`. Never probes rung 1, so the miss is counted once.
ScheduleResult solveMiss(ScheduleCache& cache, const Problem& problem,
                         const SolveSpec& spec, const CacheKey& key,
                         SolveInfo* infoOut = nullptr);

}  // namespace paws::cache
