#include "sched/power_aware_scheduler.hpp"

#include "obs/metrics.hpp"
#include "obs/phase_timer.hpp"
#include "sched/min_power_scheduler.hpp"

namespace paws {

namespace {

/// Lexicographic quality: lower energy cost, then earlier finish, then
/// higher utilization.
bool betterThan(const Schedule& a, const Schedule& b, Watts pmin) {
  const Energy ecA = a.energyCost(pmin);
  const Energy ecB = b.energyCost(pmin);
  if (ecA != ecB) return ecA < ecB;
  if (a.finish() != b.finish()) return a.finish() < b.finish();
  return a.utilization(pmin) > b.utilization(pmin);
}

/// Trial k's options: seeds base+k, the first scan direction alternating
/// across trials, and from trial 2 on gaps filled from their end.
MinPowerOptions trialOptions(const PowerAwareOptions& options,
                             std::uint32_t k) {
  MinPowerOptions opts = options.minPower;
  opts.obs.inheritFrom(options.obs);
  opts.budget.inheritFrom(options.budget);
  opts.randomSeed += k;
  opts.maxPower.randomSeed += k;
  opts.maxPower.timing.randomSeed += k;
  // Alternate the first scan direction across trials so different partial
  // orders get explored even without randomness.
  if (k % 2 == 1) {
    opts.scanOrder = opts.scanOrder == ScanOrder::kForward
                         ? ScanOrder::kBackward
                         : ScanOrder::kForward;
  }
  if (k >= 2) opts.slotHeuristic = SlotHeuristic::kFinishAtGapEnd;
  return opts;
}

}  // namespace

PowerAwareScheduler::PowerAwareScheduler(const Problem& problem,
                                         PowerAwareOptions options)
    : problem_(problem), options_(options) {}

ScheduleResult PowerAwareScheduler::schedule() {
  const Watts pmin = problem_.minPower();
  obs::PhaseTimer phase(options_.obs, "pipeline");
  ScheduleResult best;
  bool haveBest = false;
  SchedulerStats total;
  std::uint32_t trialsStarted = 0;
  std::uint32_t trialsOk = 0;

  // One absolute deadline for every trial; once it trips there is no point
  // starting the next trial (it would trip at its first poll anyway).
  options_.budget = options_.budget.resolved();
  guard::RunGuard trialGuard(options_.budget, /*stride=*/1);

  // The timing and max-power stages read a trial's seed only under a
  // random candidate or victim order. Otherwise every trial would compute
  // the same stages, so they run once, here, and each trial polishes the
  // stages' schedule on the stages' graph, rolled back after the trial.
  const MaxPowerOptions& stageOptions = options_.minPower.maxPower;
  const bool stagesPerTrial =
      stageOptions.victimOrder == VictimOrder::kRandom ||
      stageOptions.timing.candidateOrder == CandidateOrder::kRandom;
  std::optional<MaxPowerScheduler::Detailed> shared;
  if (!stagesPerTrial) {
    shared = MinPowerScheduler(problem_, trialOptions(options_, 0)).stages();
  }

  const std::uint32_t trials = std::max<std::uint32_t>(options_.trials, 1);
  for (std::uint32_t k = 0; k < trials; ++k) {
    if (k > 0 && trialGuard.check() != guard::StopReason::kNone) break;
    ++trialsStarted;
    MinPowerScheduler pipeline(problem_, trialOptions(options_, k));
    obs::PhaseTimer trialTimer(options_.obs, "trial", k);
    ScheduleResult r;
    if (!shared.has_value()) {
      r = pipeline.schedule();
    } else if (shared->result.ok()) {
      // Every trial is charged the shared stages' stats, as if it had run
      // them itself.
      ConstraintGraph& graph = *shared->graph;
      const ConstraintGraph::Checkpoint cp = graph.checkpoint();
      r = pipeline.improve(graph, *shared->result.schedule,
                           shared->result.stats);
      graph.rollbackTo(cp);
    } else {
      r = shared->result;
    }
    trialTimer.finish();
    total += r.stats;
    if (!r.ok()) {
      if (!haveBest) {
        // A deadline-tripped trial can still carry an anytime schedule;
        // keep the best of those unless some trial completes cleanly. A
        // schedule-less failure only provides diagnostics (last one wins,
        // as before the guard existed).
        const bool anytime = r.status == SchedStatus::kDeadlineExceeded &&
                             r.schedule.has_value();
        const bool bestAnytime = best.schedule.has_value();
        if (anytime) {
          if (!bestAnytime || betterThan(*r.schedule, *best.schedule, pmin)) {
            best = std::move(r);
          }
        } else if (!bestAnytime) {
          best = std::move(r);  // Remember the failure diagnostics.
        }
      }
      continue;
    }
    ++trialsOk;
    if (!haveBest || !best.ok() ||
        betterThan(*r.schedule, *best.schedule, pmin)) {
      best = std::move(r);
      haveBest = true;
    }
  }
  if (best.ok() && options_.batteryRefine.has_value()) {
    BatteryRefineOptions refineOpts = *options_.batteryRefine;
    refineOpts.obs.inheritFrom(options_.obs);
    best.schedule = batteryRefine(problem_, *best.schedule, refineOpts);
  }
  best.stats = total;
  if (options_.obs.metrics != nullptr) {
    obs::MetricsRegistry& m = *options_.obs.metrics;
    exportStats(total, m);
    m.add("pipeline.trials", trialsStarted);
    m.add("pipeline.trials_ok", trialsOk);
    m.set("pipeline.status", static_cast<double>(
                                 static_cast<std::uint8_t>(best.status)));
  }
  return best;
}

}  // namespace paws
