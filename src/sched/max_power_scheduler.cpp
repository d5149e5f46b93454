#include "sched/max_power_scheduler.hpp"

#include <algorithm>
#include <sstream>

#include "base/check.hpp"
#include "graph/longest_path.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_timer.hpp"
#include "obs/trace.hpp"
#include "power/profile_engine.hpp"
#include "sched/slack.hpp"
#include "sched/timing_scheduler.hpp"

namespace paws {

namespace {

std::uint32_t nextRand(std::uint32_t& state) {
  std::uint32_t x = state;
  x ^= x << 13;
  x ^= x >> 17;
  x ^= x << 5;
  return state = x;
}

}  // namespace

MaxPowerScheduler::MaxPowerScheduler(const Problem& problem,
                                     MaxPowerOptions options)
    : problem_(problem), options_(options) {}

ScheduleResult MaxPowerScheduler::schedule() {
  return scheduleDetailed().result;
}

MaxPowerScheduler::Detailed MaxPowerScheduler::scheduleDetailed() {
  decisions_.clear();
  delaysLeft_ = options_.maxDelays;
  rngState_ = options_.randomSeed == 0 ? 1 : options_.randomSeed;
  profileRebuilds_ = 0;
  profileUpdates_ = 0;
  profileRestores_ = 0;
  options_.timing.obs.inheritFrom(options_.obs);
  // Pin the deadline once; nested TimingScheduler runs race the same clock.
  options_.budget = options_.budget.resolved();
  options_.timing.budget.inheritFrom(options_.budget);
  guard_ = guard::RunGuard(options_.budget, /*stride=*/16);
  obs::PhaseTimer phase(options_.obs, "max-power");

  // Provably infeasible budgets (a single task, alone, over Pmax) fail
  // fast instead of burning the delay budget chasing a moving spike.
  for (TaskId v : problem_.taskIds()) {
    const Task& task = problem_.task(v);
    if (task.power + problem_.backgroundPower() > problem_.maxPower()) {
      Detailed out;
      out.result.status = SchedStatus::kPowerInfeasible;
      std::ostringstream os;
      os << "task '" << task.name << "' draws " << task.power
         << " + background " << problem_.backgroundPower()
         << " > budget " << problem_.maxPower();
      out.result.message = os.str();
      return out;
    }
  }

  SchedulerStats stats;
  Attempt a = attempt(0, stats);
  a.result.stats += stats;

  if (options_.obs.metrics != nullptr) {
    options_.obs.metrics->add("profile.rebuilds", profileRebuilds_);
    options_.obs.metrics->add("profile.incremental_updates", profileUpdates_);
    options_.obs.metrics->add("profile.restores", profileRestores_);
    if (a.result.status == SchedStatus::kDeadlineExceeded) {
      // The trip may have fired in a nested TimingScheduler's own guard;
      // re-checking ours recovers the reason (cancellation stays set and
      // deadlines do not un-expire).
      options_.obs.metrics->add(
          guard_.check() == guard::StopReason::kCancelled ? "guard.cancels"
                                                          : "guard.deadline_trips",
          1);
    }
  }

  Detailed out;
  out.result = std::move(a.result);
  out.graph = std::move(a.graph);
  return out;
}

void MaxPowerScheduler::applyDecision(ConstraintGraph& graph,
                                      const Decision& d) const {
  graph.addEdge(kAnchorTask, d.task, d.at - Time::zero(), EdgeKind::kDelay);
  if (d.lock) {
    graph.addEdge(d.task, kAnchorTask, -(d.at - Time::zero()),
                  EdgeKind::kLock);
  }
}

MaxPowerScheduler::Attempt MaxPowerScheduler::attempt(std::uint32_t depth,
                                                      SchedulerStats& stats) {
  Attempt a;
  if (depth > options_.maxRecursionDepth) {
    a.result.status = SchedStatus::kBudgetExhausted;
    a.result.message = "max-power recursion depth exhausted";
    return a;
  }
  ++stats.recursions;
  PAWS_TRACE_INSTANT(options_.obs.trace, obs::TraceEventKind::kRecursion,
                     obs::TraceEvent::kNoTask, /*at=*/0,
                     /*value=*/static_cast<std::int64_t>(decisions_.size()),
                     depth);

  // Fresh graph: user constraints plus every decision taken so far; the
  // timing scheduler then re-derives a serialization compatible with them.
  ConstraintGraph graph = problem_.buildGraph();
  for (const Decision& d : decisions_) applyDecision(graph, d);
  LongestPathEngine engine(graph);
  engine.setObs(options_.obs);
  TimingScheduler timing(problem_, options_.timing);
  TimingScheduler::Output tOut = timing.run(graph, engine, stats);
  if (!tOut.ok) {
    a.result.status = tOut.stopReason != guard::StopReason::kNone
                          ? SchedStatus::kDeadlineExceeded
                      : tOut.budgetExhausted ? SchedStatus::kBudgetExhausted
                                             : SchedStatus::kTimingInfeasible;
    a.result.message = tOut.message;
    return a;
  }
  std::vector<Time> starts = std::move(tOut.starts);

  const Watts pmax = problem_.maxPower();
  const Time spikeHorizon(options_.ignoreSpikesBeforeTick);

  // The attempt's live profile: seeded once from the timing-valid starts,
  // then kept in sync with moveTask deltas as victims are delayed and
  // accepted delay rounds propagate. The queries below (first spike, power
  // at the spike instant, simultaneous tasks) read its segment list and
  // per-task array instead of a full profileOf rebuild per round. All
  // rejection paths return from the attempt, so no checkpoint frames are
  // needed — the engine dies with the attempt. Counters flush to the
  // scheduler-wide profile.* totals on every exit path.
  power::ProfileEngine pe(problem_.backgroundPower(), problem_.minPower(),
                          pmax);
  pe.rebuild(problem_, starts);
  struct CounterFlush {
    MaxPowerScheduler& self;
    power::ProfileEngine& pe;
    ~CounterFlush() {
      self.profileRebuilds_ += pe.rebuilds();
      self.profileUpdates_ += pe.incrementalUpdates();
      self.profileRestores_ += pe.restores();
    }
  } flush{*this, pe};

  while (true) {
    // Coarse boundary: one clock read per spike round. The graph, engine
    // and decision list are all consistent here, so tripping returns a
    // cleanly rolled-back attempt (the recursion's rollback paths do the
    // rest on the way out).
    if (guard_.check() != guard::StopReason::kNone) {
      a.result.status = SchedStatus::kDeadlineExceeded;
      a.result.message = guard_.reason() == guard::StopReason::kCancelled
                             ? "search cancelled during spike elimination"
                             : "deadline exceeded during spike elimination";
      return a;
    }
    const std::optional<Time> spikeAt = pe.firstSpike(spikeHorizon);
    if (!spikeAt) {
      a.result.status = SchedStatus::kOk;
      a.result.schedule = Schedule(&problem_, starts);
      a.starts = std::move(starts);
      a.graph = std::move(graph);
      return a;
    }

    const Time t = *spikeAt;
    const std::size_t savedDecisions = decisions_.size();
    const ConstraintGraph::Checkpoint graphMark = graph.checkpoint();
    const LongestPathEngine::Checkpoint engineMark = engine.checkpoint();
    std::vector<bool> delayedThisRound(problem_.numVertices(), false);
    bool reschedule = false;

    // --- The paper's inner repeat loop: delay simultaneous tasks (largest
    // slack first) until the spike *instant* t is locally cleared. A task
    // delayed past t simply stops drawing power at t, so local accounting
    // needs no retiming; delays beyond the victim's slack flag the
    // reschedule case. ---
    const std::vector<Duration> slacks = computeSlacks(graph, starts);
    std::vector<Time> localStarts = starts;  // the profile's start times
    while (true) {
      if (guard_.poll() != guard::StopReason::kNone) {
        decisions_.resize(savedDecisions);
        graph.rollbackTo(graphMark);
        engine.restore(engineMark);
        a.result.status = SchedStatus::kDeadlineExceeded;
        a.result.message = guard_.reason() == guard::StopReason::kCancelled
                               ? "search cancelled during spike elimination"
                               : "deadline exceeded during spike elimination";
        return a;
      }
      if (pe.valueAt(t) <= pmax) break;
      std::vector<TaskId> victims;
      for (TaskId v : pe.activeAt(t)) {
        if (!delayedThisRound[v.index()]) victims.push_back(v);
      }
      if (victims.empty()) {
        decisions_.resize(savedDecisions);
        graph.rollbackTo(graphMark);
        engine.restore(engineMark);
        a.result.status = SchedStatus::kPowerInfeasible;
        std::ostringstream os;
        os << "cannot reduce power below " << pmax << " at t=" << t;
        a.result.message = os.str();
        return a;
      }

      TaskId v;
      if (options_.victimOrder == VictimOrder::kRandom) {
        v = victims[nextRand(rngState_) % victims.size()];
      } else {
        v = *std::max_element(victims.begin(), victims.end(),
                              [&slacks](TaskId x, TaskId y) {
                                return slacks[x.index()] < slacks[y.index()];
                              });
      }

      // Delay distance (the paper's heuristic): at most the victim's
      // execution time, further bounded by its slack in case (1). A task
      // active at t satisfies t - sigma(v) < d(v), so the minimal clearing
      // delay t - sigma(v) + 1 never exceeds the execution-time bound.
      const Duration needed = (t - starts[v.index()]) + Duration(1);
      const Duration execBound = problem_.task(v).delay;
      Duration delta;
      if (slacks[v.index()] >= needed) {
        delta = std::min(slacks[v.index()], execBound);  // case (1)
      } else {
        delta = execBound;  // case (2): beyond slack, forces rescheduling
        reschedule = true;
      }

      if (delaysLeft_ == 0) {
        decisions_.resize(savedDecisions);
        graph.rollbackTo(graphMark);
        engine.restore(engineMark);
        a.result.status = SchedStatus::kBudgetExhausted;
        a.result.message = "max-power delay budget exhausted";
        return a;
      }
      --delaysLeft_;
      ++stats.delays;
      PAWS_TRACE_INSTANT(options_.obs.trace, obs::TraceEventKind::kDelay,
                         v.value(), t.ticks(), delta.ticks(), depth);

      const Decision d{v, starts[v.index()] + delta, /*lock=*/false};
      decisions_.push_back(d);
      delayedThisRound[v.index()] = true;
      applyDecision(graph, d);
      localStarts[v.index()] = d.at;
      pe.moveTask(v, d.at);
    }

    if (!reschedule) {
      // All delays stayed within their slacks; propagate them exactly.
      const LongestPathResult& lp = engine.compute(kAnchorTask);
      ++stats.longestPathRuns;
      if (lp.feasible) {
        engine.release(engineMark);  // delay edges are being kept
        // Sync the profile to the propagated start times with deltas for
        // only the tasks the longest-path run actually moved.
        for (std::size_t i = 1; i < lp.dist.size(); ++i) {
          if (lp.dist[i] != localStarts[i]) {
            pe.moveTask(TaskId(static_cast<std::uint32_t>(i)), lp.dist[i]);
          }
        }
        starts = lp.dist;
        continue;  // Spike at t cleared; rescan the profile.
      }
      // Combined within-slack delays can still propagate into a max
      // window via pushed successors; fall into the reschedule case.
      reschedule = true;
    }
    // This attempt's graph and engine see no further queries: every path
    // below recurses on a fresh graph or returns. Close the frame.
    engine.release(engineMark);

    // --- Case (2): reschedule. Lock the untouched simultaneous tasks at
    // their current (still time-valid) start times, then re-run the whole
    // scheduler on the amended graph; on failure undo the locks, delay one
    // more simultaneous task, and try again (Section 5.2). ---
    std::vector<TaskId> remaining;
    for (TaskId v : pe.activeAt(t)) {
      if (!delayedThisRound[v.index()]) remaining.push_back(v);
    }

    while (true) {
      const std::size_t lockMark = decisions_.size();
      for (TaskId u : remaining) {
        decisions_.push_back(Decision{u, starts[u.index()], /*lock=*/true});
        ++stats.locks;
        PAWS_TRACE_INSTANT(options_.obs.trace, obs::TraceEventKind::kLock,
                           u.value(), starts[u.index()].ticks(),
                           /*value=*/0, depth);
      }
      Attempt sub = attempt(depth + 1, stats);
      if (sub.result.ok()) return sub;
      decisions_.resize(lockMark);

      // Budget and deadline trips are both terminal: retrying with one more
      // victim can only burn more of whatever ran out.
      if (sub.result.status == SchedStatus::kBudgetExhausted ||
          sub.result.status == SchedStatus::kDeadlineExceeded) {
        decisions_.resize(savedDecisions);
        return sub;
      }
      if (remaining.empty()) {
        decisions_.resize(savedDecisions);
        a.result.status = SchedStatus::kPowerInfeasible;
        std::ostringstream os;
        os << "reschedule failed for spike at t=" << t;
        a.result.message = os.str();
        return a;
      }

      // Delay one more simultaneous task past the spike and recurse again.
      std::size_t pick = 0;
      if (options_.victimOrder == VictimOrder::kRandom) {
        pick = nextRand(rngState_) % remaining.size();
      }
      const TaskId v = remaining[pick];
      remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(pick));
      if (delaysLeft_ == 0) {
        decisions_.resize(savedDecisions);
        a.result.status = SchedStatus::kBudgetExhausted;
        a.result.message = "max-power delay budget exhausted";
        return a;
      }
      --delaysLeft_;
      ++stats.delays;
      PAWS_TRACE_INSTANT(options_.obs.trace, obs::TraceEventKind::kDelay,
                         v.value(), t.ticks(),
                         problem_.task(v).delay.ticks(), depth);
      decisions_.push_back(Decision{
          v, starts[v.index()] + problem_.task(v).delay, /*lock=*/false});
    }
  }
}

}  // namespace paws
