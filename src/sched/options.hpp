// Tuning knobs for the three schedulers.
//
// Every heuristic the paper leaves open ("heuristically determined",
// "a heuristic order", "scan the schedule in various orders") is an explicit
// option here so the ablation benches can measure each choice.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "base/time.hpp"
#include "guard/budget.hpp"
#include "obs/context.hpp"

namespace paws {

/// How TimingScheduler orders candidate vertices at each step.
enum class CandidateOrder : std::uint8_t {
  kByLongestPath,  ///< earliest current longest-path distance first (default)
  kByIndex,        ///< declaration order
  kRandom,         ///< seeded shuffle (ablation baseline)
};

/// How MaxPowerScheduler picks the victim among simultaneous tasks.
enum class VictimOrder : std::uint8_t {
  kBySlack,  ///< largest slack first — the paper's heuristic
  kRandom,   ///< random victim (the paper's fallback, used for ablation)
};

/// Which start slot MinPowerScheduler tries for a gap-filling task.
enum class SlotHeuristic : std::uint8_t {
  kStartAtGap,     ///< start v exactly at the gap start t
  kFinishAtGapEnd, ///< finish v at the end of the gap beginning at t
  kRandom,         ///< random slot covering t (ablation)
};

/// Scan order over gap times in one MinPowerScheduler pass.
enum class ScanOrder : std::uint8_t {
  kForward,   ///< increasing time
  kBackward,  ///< decreasing time
  kRandom,    ///< seeded shuffle
};

struct TimingOptions {
  CandidateOrder candidateOrder = CandidateOrder::kByLongestPath;
  /// Backtracking budget: total number of candidate choices undone before
  /// giving up. The default covers every problem in the paper by orders of
  /// magnitude while bounding pathological searches.
  std::uint64_t maxBacktracks = 100000;
  /// Read only under CandidateOrder::kRandom (PowerAwareScheduler relies
  /// on this to share one timing run between its trials).
  std::uint32_t randomSeed = 1;
  /// Observability hooks (borrowed; see obs/context.hpp). Outer pipeline
  /// stages propagate their own context into unset nested contexts.
  obs::ObsContext obs;
  /// Wall-clock deadline / cancellation (guard/budget.hpp). Inherited from
  /// the outer pipeline stage like `obs`; inactive by default, in which
  /// case results are byte-identical to a build without guards.
  guard::RunBudget budget;
};

struct MaxPowerOptions {
  TimingOptions timing;
  VictimOrder victimOrder = VictimOrder::kBySlack;
  /// Spikes strictly before this instant are tolerated instead of
  /// eliminated — used by mid-flight repair, where frozen history may
  /// already violate a newly tightened budget and cannot move.
  std::int64_t ignoreSpikesBeforeTick =
      std::numeric_limits<std::int64_t>::min();
  /// Recursion depth for the reschedule path (Fig. 4's recursive call).
  std::uint32_t maxRecursionDepth = 64;
  /// Total delay decisions before giving up.
  std::uint64_t maxDelays = 100000;
  /// Read only under VictimOrder::kRandom (see TimingOptions::randomSeed).
  std::uint32_t randomSeed = 1;
  obs::ObsContext obs;
  /// See TimingOptions::budget; propagated into `timing.budget`.
  guard::RunBudget budget;
};

struct MinPowerOptions {
  MaxPowerOptions maxPower;
  /// Scan passes; the paper scans "multiple times while altering some of
  /// the heuristics during each scan and takes the best results". Each pass
  /// cycles through scan orders and slot heuristics.
  std::uint32_t maxPasses = 8;
  ScanOrder scanOrder = ScanOrder::kForward;
  SlotHeuristic slotHeuristic = SlotHeuristic::kStartAtGap;
  /// Rotate scan order / slot heuristic between passes (paper's "altering
  /// some of the heuristics during each scan").
  bool rotateHeuristics = true;
  /// Warm start: a vertex-indexed start vector (slot 0 = anchor at 0) for
  /// a schedule of this problem that is already timing- AND Pmax-valid.
  /// When set, MinPowerScheduler::schedule() skips the timing + max-power
  /// stages entirely and runs only the gap-filling improvement from these
  /// starts, pinned into the constraint graph as anchor->v delay edges so
  /// the graph's ASAP solution equals the vector exactly. The graph also
  /// serializes each resource's tasks in their given start order, so the
  /// improvement keeps that order (as the timing stage's serialization
  /// does on a cold run). An infeasible, mis-sized, power-invalid or
  /// resource-overlapping vector is ignored (the full cold pipeline runs
  /// instead) — a stale warm start can cost time, never correctness.
  /// Used by the cache near-miss path (cache/cached_solve.cpp) to polish a
  /// revalidated schedule under changed Pmin instead of re-solving.
  std::optional<std::vector<Time>> initialStarts;
  std::uint32_t randomSeed = 1;
  obs::ObsContext obs;
  /// See TimingOptions::budget; propagated into `maxPower.budget`.
  guard::RunBudget budget;
};

}  // namespace paws
