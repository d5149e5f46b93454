// Lex-improving schedule polish — a deterministic local search over task
// moves, used to strengthen warm-start seeds for the exhaustive search
// (cache/cached_solve.cpp).
//
// The heuristic pipeline compacts schedules, but the (energy cost, finish)
// lexicographic optimum often spreads tasks out instead: overlapping two
// tasks whose combined power stays below Pmin is free, while stacking
// above Pmin costs energy. Single-task moves frequently plateau on such
// landscapes — on the paper example the optimum differs from the pipeline
// schedule by exactly one *pair* of coordinated moves, each of which is
// cost-neutral on its own. The polish therefore climbs in two tiers:
// first-improvement single moves, then first-improvement pair moves, in a
// fixed deterministic scan order (task id, then start time). Every kept
// move strictly improves (cost, finish) lexicographically, so the loop
// terminates; a move cap bounds the worst case.
//
// The polished schedule is a schedule of the same problem, valid whenever
// the input was valid, with every start in [0, horizon - delay]. Its
// (cost, finish) is an upper bound on the in-horizon optimum — exactly
// what ExhaustiveOptions::{initialIncumbent, initialIncumbentFinish}
// require.
#pragma once

#include <cstdint>

#include "model/problem.hpp"
#include "sched/schedule.hpp"

namespace paws {

struct PolishOptions {
  /// Latest allowed finish: candidate starts range over
  /// [0, horizon - delay] per task, so the result stays inside the
  /// exhaustive search space it will seed.
  Time horizon;
  /// Cap on kept (strictly improving) moves — termination insurance; the
  /// lex-strict acceptance already guarantees progress.
  std::uint32_t maxMoves = 64;
  /// Pair scans cost O(candidates^2) validations. When the single-move
  /// candidate count exceeds this, pairs are skipped and only the
  /// single-move tier runs (large instances are exactly the ones where
  /// the exhaustive search is intractable anyway, so seeding them is
  /// moot).
  std::uint32_t maxPairCandidates = 1024;
};

struct PolishStats {
  std::uint32_t singleMoves = 0;
  std::uint32_t pairMoves = 0;
};

/// Improves `start` in place lexicographically on (energy cost above
/// Pmin, finish). Returns a schedule that is never lex-worse than the
/// input. The input must be valid (timing + resources + Pmax) and finish
/// within `options.horizon`; starts outside the horizon make the task's
/// current slot its only candidate. An input that breaks a constraint, a
/// resource or Pmax is returned unchanged, with zero stats.
Schedule polishSchedule(const Problem& problem, const Schedule& start,
                        const PolishOptions& options,
                        PolishStats* stats = nullptr);

}  // namespace paws
