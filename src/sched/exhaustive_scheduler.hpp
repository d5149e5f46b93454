// Exhaustive branch-and-bound scheduler — the optimality oracle.
//
// Section 5.3: "To find an 'optimal' schedule whose energy cost is
// minimized, the algorithm should examine all valid partial orderings of
// tasks, which will increase the complexity of computation to an
// exponential order of tasks." The paper therefore uses heuristics; this
// class implements the exponential search for SMALL instances so the test
// suite and the optimality bench can measure how far the heuristics land
// from the true optimum.
//
// Search space: integer start times in [0, horizon] for every task,
// explored by DFS in task order with sound prunings:
//   * pairwise violation of user constraints / resource overlap against
//     already-placed tasks;
//   * partial power profile: placed tasks alone exceeding Pmax can never
//     be repaired by placing more tasks (power only adds up);
//   * partial energy cost already at/above the incumbent (Ec is monotone
//     in the set of placed tasks);
//   * per-task start windows from the constraint graph's longest paths,
//     a remaining-task energy floor and critical-path finish bound
//     (pruneBounds), canonical ordering of interchangeable tasks
//     (pruneSymmetry), and a per-worker dominance transposition table
//     over canonical state signatures (pruneDominance).
// Each pruning only discards subtrees that cannot contain the leaf the
// unpruned search would return, so the result — including tie-breaks — is
// byte-identical to the unpruned search for any flag combination.
// The placed prefix's power profile is a power::ProfileEngine: a placement
// opens a checkpoint and adds the task's contribution, a backtrack
// restores it.
// The search is exhaustive within the horizon, so the returned schedule
// minimizes (energy cost at Pmin, finish time) lexicographically among all
// valid schedules that fit the horizon. The search itself never runs the
// independent ScheduleValidator: cache::solveMiss validates each cold
// result once, and `pawsc schedule` validates the schedule it prints.
//
// Parallel mode (`jobs` > 1) splits the top-level choice — task 1's start
// time — into contiguous ranges searched by independent workers on a
// paws::exec::Pool. Workers share only the incumbent *cost bound* (a
// relaxed atomic holding achieved leaf costs, so the strictly-greater
// prefix pruning stays sound) and publish their chunk-local winners, which
// are reduced in chunk order. The result is bit-identical to jobs == 1 for
// any thread count — except when the node budget trips, where the set of
// nodes visited first depends on scheduling (see docs/performance.md).
#pragma once

#include <optional>

#include "guard/budget.hpp"
#include "model/problem.hpp"
#include "obs/context.hpp"
#include "sched/result.hpp"

namespace paws {

struct ExhaustiveOptions {
  /// Latest allowed completion. Defaults to the fully-serial span plus the
  /// largest user separation — generous for small instances. Optimality is
  /// relative to this horizon.
  std::optional<Time> horizon;
  /// Node budget; the search reports nonOptimal when it trips. Shared by
  /// all workers in parallel mode, where each worker publishes its count
  /// every 1024 nodes: a worker may run up to 1023 nodes per other worker
  /// past the budget. One worker stops exactly on node maxNodes + 1.
  std::uint64_t maxNodes = 20'000'000;
  /// Worker threads for the branch-and-bound: 1 runs the serial search on
  /// the calling thread, 0 resolves via PAWS_JOBS / hardware_concurrency
  /// (exec::resolveJobs). Any value yields bit-identical schedules.
  std::size_t jobs = 1;
  /// Dominance pruning: each worker keeps a transposition table keyed on a
  /// canonical signature of the search state (depth, merged placed-prefix
  /// power profile, and the start times of placed tasks that can still
  /// interact with unplaced ones) and skips re-expanding states it has
  /// already expanded. The first expansion of a state enumerates — or
  /// proves globally irrelevant — every completion, and it is the earliest
  /// in DFS order, so skipping repeats never changes the returned winner.
  bool pruneDominance = true;
  /// Symmetry breaking: interchangeable tasks (identical delay, power and
  /// resource, identical constraint profile, no constraint between them)
  /// are explored only in the canonical non-decreasing start order. The
  /// first-found optimal leaf is the lexicographically smallest member of
  /// its symmetry orbit, which is exactly the canonical one, so the winner
  /// is unchanged.
  bool pruneSymmetry = true;
  /// Tighter lower bounds: start-time windows from the constraint graph's
  /// longest paths (forward = earliest start, reversed = latest start), a
  /// remaining-task energy floor added to the placed prefix's cost before
  /// comparing against the incumbent, and a critical-path finish bound for
  /// the cost-tie case. All three only discard subtrees that cannot
  /// contain the winner.
  bool pruneBounds = true;
  /// Warm-start incumbent: the energy cost (above Pmin, background
  /// included — exactly Schedule::energyCost(pmin)) of a schedule of THIS
  /// problem that is already known valid and finishes within the horizon.
  /// It primes the shared atomic cost bound before the first node, so the
  /// search prunes against a real incumbent from node 0 instead of
  /// discovering one. Every cost pruning compares strictly-greater against
  /// the bound and the seed is >= the optimal cost by construction, so no
  /// subtree containing the winner (or any cost-tying leaf) is cut: the
  /// returned schedule is byte-identical to a cold run, with at most —
  /// in practice strictly — fewer nodes explored. The seed is a bound,
  /// not a result: it is never recorded in the incumbent log and never
  /// returned. Seeding with a cost below the true optimum violates the
  /// precondition and leaves the result unspecified; callers obtain seeds
  /// from validated schedules only (see cache/cached_solve.cpp).
  std::optional<Energy> initialIncumbent;
  /// Finish time of the same known-valid schedule as `initialIncumbent`
  /// (ignored without it). Unlocks the cost-tie finish cut from node 0:
  /// each worker's local incumbent is pre-seeded with the phantom pair
  /// (cost, finish + 1 tick). The lex-first optimum (C*, t*) satisfies
  /// (C*, t*) <= (cost, finish) < (cost, finish + 1), so it strictly
  /// improves the phantom and is accepted, published and returned exactly
  /// as in a cold run; on its path the finish lower bound is <= t* <=
  /// finish < finish + 1, so the tie-break can never cut it. A phantom
  /// that no real leaf beat is discarded, never returned.
  std::optional<Time> initialIncumbentFinish;
  /// Metrics sink; parallel runs publish the exec.* pool counters here.
  obs::ObsContext obs;
  /// Wall-clock deadline / cancellation. When it trips mid-search the
  /// scheduler returns kDeadlineExceeded with the best incumbent found so
  /// far (provenOptimal=false). Inactive by default; the clean path stays
  /// byte-identical for any jobs count.
  guard::RunBudget budget;
};

struct ExhaustiveOutcomeStats {
  std::uint64_t nodesExplored = 0;
  /// Subtrees skipped by the dominance transposition table.
  std::uint64_t prunedDominance = 0;
  /// Candidate start times skipped by symmetry canonicalization.
  std::uint64_t prunedSymmetry = 0;
  /// Candidate start times cut by windows / cost floors / finish bounds.
  std::uint64_t prunedBound = 0;
  bool provenOptimal = false;  // search completed within the node budget
  /// Why the search stopped early (deadline/cancel); kNone for clean runs
  /// and plain node-budget trips.
  guard::StopReason stopReason = guard::StopReason::kNone;
};

class ExhaustiveScheduler {
 public:
  explicit ExhaustiveScheduler(const Problem& problem,
                               ExhaustiveOptions options = {});

  ScheduleResult schedule();
  [[nodiscard]] const ExhaustiveOutcomeStats& outcome() const {
    return outcome_;
  }

 private:
  const Problem& problem_;
  ExhaustiveOptions options_;
  ExhaustiveOutcomeStats outcome_;
};

}  // namespace paws
