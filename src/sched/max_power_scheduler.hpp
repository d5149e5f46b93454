// MaxPowerScheduler — Fig. 4 of the paper.
//
// Applies the hard max-power budget Pmax to a time-valid schedule by
// eliminating *power spikes* (intervals with P(t) > Pmax). The sweep walks
// the profile in time order; at the first spike it delays simultaneous
// tasks, picking victims by the paper's slack heuristic:
//
//   (1) while some active task has enough slack to clear the spike, delay
//       the largest-slack task past it — the schedule stays time-valid, no
//       timing work is needed;
//   (2) when only insufficient-slack tasks remain, a victim is delayed
//       beyond its slack anyway ("reschedule"): the start times of the
//       untouched simultaneous tasks are locked, and the whole scheduler
//       re-runs recursively (TimingScheduler first) on the amended graph.
//       If the recursion fails the locks are undone and one more task is
//       delayed before recursing again.
//
// Delay distances are bounded by the victim's execution time (the paper's
// heuristic upper bound); since a task active at t satisfies
// t - sigma(v) < d(v), the minimal clearing delay t - sigma(v) + 1 always
// respects that bound. Deviation from the pseudocode, documented here: we
// re-derive the victim set and slacks after every accepted delay (a delay
// can push a third task into the spike instant), and we rely on the
// first-spike rescan instead of locking after case-(1) fixes; both make the
// heuristic strictly more robust and change no paper-reported result.
//
// The scheduler may fail on feasible instances (the paper notes it does not
// enumerate all partial orders); it never returns a schedule violating
// timing constraints or Pmax.
#pragma once

#include <optional>
#include <vector>

#include "graph/constraint_graph.hpp"
#include "model/problem.hpp"
#include "sched/options.hpp"
#include "sched/result.hpp"

namespace paws {

class MaxPowerScheduler {
 public:
  explicit MaxPowerScheduler(const Problem& problem,
                             MaxPowerOptions options = {});

  /// Result plus the decorated constraint graph (user constraints +
  /// serialization + delay/lock decisions) that produced it; MinPower
  /// scheduling continues on that graph.
  struct Detailed {
    ScheduleResult result;
    std::optional<ConstraintGraph> graph;
  };

  ScheduleResult schedule();
  Detailed scheduleDetailed();

 private:
  /// One delay/lock decision, replayed onto fresh graphs across recursions.
  struct Decision {
    TaskId task;
    Time at;
    bool lock;  // lock => also pin sigma(task) <= at
  };

  struct Attempt {
    ScheduleResult result;
    std::optional<ConstraintGraph> graph;
    std::vector<Time> starts;
  };

  Attempt attempt(std::uint32_t depth, SchedulerStats& stats);
  void applyDecision(ConstraintGraph& graph, const Decision& d) const;

  const Problem& problem_;
  MaxPowerOptions options_;
  std::vector<Decision> decisions_;
  std::uint64_t delaysLeft_ = 0;
  guard::RunGuard guard_{guard::RunBudget{}};
  std::uint32_t rngState_ = 1;
  // Profile effort accumulated across all recursive attempts (each attempt
  // owns a flat power::ProfileEngine seeded from its timing-valid starts;
  // counters are flushed here as attempts unwind and exported as profile.*
  // metrics by scheduleDetailed).
  std::uint64_t profileRebuilds_ = 0;
  std::uint64_t profileUpdates_ = 0;
  std::uint64_t profileRestores_ = 0;
};

}  // namespace paws
