// PowerAwareScheduler — the complete three-stage pipeline (Section 5).
//
// Runs timing scheduling, then max-power spike elimination, then min-power
// gap filling, and optionally repeats the whole pipeline over several
// seeded trials with perturbed heuristics ("in practice, we scan the
// schedule multiple times while altering some of the heuristics during
// each scan and take the best results"). The best schedule is the one with
// the lowest energy cost Ec(Pmin); ties break on finish time, then on
// utilization.
//
// The trials alter only min-power heuristics and seeds, and the timing and
// max-power stages read their seeds only under CandidateOrder::kRandom or
// VictimOrder::kRandom. Without those orders the two stages run once, and
// each trial is one min-power polish of their schedule on their decorated
// graph (rolled back between trials); with either order every trial runs
// all three stages. The result is the same either way: each trial is
// charged the stages' stats as if it had run them, so ScheduleResult::stats
// and the search.* metrics count per-trial effort. The engine counters
// (longest_path.*, profile.*), the phase spans and the trace events count
// the work actually done: the shared stages' "max-power" span (and the
// "timing" spans inside it) sits under "pipeline", outside the "trial"
// spans, each of which then covers one min-power polish.
#pragma once

#include <optional>

#include "model/problem.hpp"
#include "sched/battery_refine.hpp"
#include "sched/options.hpp"
#include "sched/result.hpp"

namespace paws {

struct PowerAwareOptions {
  MinPowerOptions minPower;
  /// Rate-capacity battery refinement (sched/battery_refine.hpp), applied
  /// to the winning trial's schedule. Off by default: without it — or with
  /// a linear model — the pipeline's output is byte-identical to previous
  /// releases.
  std::optional<BatteryRefineOptions> batteryRefine;
  /// Pipeline trials; trial k reseeds the heuristics with seed base+k and
  /// alternates the min-power scan order.
  std::uint32_t trials = 4;
  /// The largest trial count the front ends accept (pawsc --trials, the
  /// pawsd request header).
  static constexpr std::uint32_t kMaxTrials = 64;
  /// Observability hooks, propagated into every trial's nested stages.
  /// When a MetricsRegistry is attached the final stats are exported
  /// under their "search.*" names, plus pipeline.trials (trials started:
  /// fewer than `trials` when the budget trips) and pipeline.trials_ok.
  obs::ObsContext obs;
  /// One deadline for the whole multi-trial run: trials share the absolute
  /// time point, remaining trials are skipped once it trips, and the best
  /// anytime result seen so far is returned (kDeadlineExceeded unless some
  /// trial completed cleanly first).
  guard::RunBudget budget;
};

class PowerAwareScheduler {
 public:
  explicit PowerAwareScheduler(const Problem& problem,
                               PowerAwareOptions options = {});

  ScheduleResult schedule();

 private:
  const Problem& problem_;
  PowerAwareOptions options_;
};

}  // namespace paws
