// MinPowerScheduler — Fig. 6 of the paper.
//
// Given a valid (time-valid and Pmax-respecting) schedule, improves the
// soft min-power objective: free power below Pmin that is not consumed is
// wasted, so the scheduler reorders tasks *within their slacks* to fill
// power gaps, raising the min-power utilization rho and thereby lowering
// the energy cost Ec drawn from the costly source.
//
// One pass scans the gaps of the current profile in a heuristic order
// (forward / backward / random over time); for each gap starting at t it
// tries to delay tasks that finished before t just enough to be active at
// t, choosing the new slot with a heuristic (start at the gap, finish at
// the gap's end, or a random slot). A move is kept only when the new
// schedule is still valid and strictly increases rho — otherwise the added
// delay edge is rolled back (the paper's "undo added edges in step B").
// Passes repeat, rotating the heuristics between them (the paper "scans the
// schedule multiple times while altering some of the heuristics during each
// scan"), until a pass finds no improvement or the pass budget is hit.
//
// Min power is a soft constraint: the scheduler may leave gaps behind; it
// never worsens rho, never violates timing or Pmax, and never touches the
// schedule when rho is already 1.
#pragma once

#include "model/problem.hpp"
#include "sched/max_power_scheduler.hpp"
#include "sched/options.hpp"
#include "sched/result.hpp"

namespace paws {

class MinPowerScheduler {
 public:
  explicit MinPowerScheduler(const Problem& problem,
                             MinPowerOptions options = {});

  /// Full pipeline: stages(), then improve() on their graph.
  ScheduleResult schedule();

  /// The stages before improvement: the initialStarts pin when it holds,
  /// otherwise timing -> max power. On success `result` holds the valid
  /// schedule and the stages' stats, and `graph` its decorated constraint
  /// graph (serialization + decisions); on failure `graph` is empty.
  MaxPowerScheduler::Detailed stages();

  /// Improvement stage only: polishes an existing valid schedule whose
  /// decorated graph (serialization + decisions) is `graph`, starting the
  /// stats from `stats`. Returns the improved result; `graph` accumulates
  /// the accepted delay edges (a caller that reuses the graph rolls them
  /// back to a checkpoint taken before the call).
  ScheduleResult improve(ConstraintGraph& graph, const Schedule& valid,
                         SchedulerStats stats = {});

 private:
  const Problem& problem_;
  MinPowerOptions options_;
};

}  // namespace paws
