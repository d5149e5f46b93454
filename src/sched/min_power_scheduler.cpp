#include "sched/min_power_scheduler.hpp"

#include <algorithm>
#include <span>
#include <tuple>

#include "base/check.hpp"
#include "graph/longest_path.hpp"
#include "obs/incumbents.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_timer.hpp"
#include "obs/trace.hpp"
#include "power/profile_engine.hpp"
#include "sched/slack.hpp"

namespace paws {

namespace {

std::uint32_t nextRand(std::uint32_t& state) {
  std::uint32_t x = state;
  x ^= x << 13;
  x ^= x >> 17;
  x ^= x << 5;
  return state = x;
}

ScanOrder rotateScan(ScanOrder order) {
  switch (order) {
    case ScanOrder::kForward:
      return ScanOrder::kBackward;
    case ScanOrder::kBackward:
      return ScanOrder::kRandom;
    case ScanOrder::kRandom:
      return ScanOrder::kForward;
  }
  return ScanOrder::kForward;
}

SlotHeuristic rotateSlot(SlotHeuristic h) {
  switch (h) {
    case SlotHeuristic::kStartAtGap:
      return SlotHeuristic::kFinishAtGapEnd;
    case SlotHeuristic::kFinishAtGapEnd:
      return SlotHeuristic::kRandom;
    case SlotHeuristic::kRandom:
      return SlotHeuristic::kStartAtGap;
  }
  return SlotHeuristic::kStartAtGap;
}

/// Adds one serialization edge u -> v (weight: u's delay) between each
/// pair of consecutive same-resource tasks, ordered by (start, finish) in
/// `starts`. A zero-delay task sharing a start with a longer one goes
/// first, so a resource-valid `starts` satisfies every edge, and an
/// overlap violates one.
void serializeInStartOrder(const Problem& problem,
                           const std::vector<Time>& starts,
                           ConstraintGraph& graph) {
  const std::span<const ResourceId> resources = problem.taskResources();
  const std::span<const Duration> delays = problem.taskDelays();
  std::vector<TaskId> order = problem.taskIds();
  std::sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    const std::size_t i = a.index();
    const std::size_t j = b.index();
    return std::tie(resources[i], starts[i], delays[i], i) <
           std::tie(resources[j], starts[j], delays[j], j);
  });
  for (std::size_t k = 1; k < order.size(); ++k) {
    const std::size_t prev = order[k - 1].index();
    if (resources[prev] == resources[order[k].index()]) {
      graph.addEdge(order[k - 1], order[k], delays[prev],
                    EdgeKind::kSerialization);
    }
  }
}

/// One longest-path probe: true when `graph` is feasible and its ASAP
/// solution equals `starts` exactly.
bool pinsExactly(const ConstraintGraph& graph,
                 const std::vector<Time>& starts) {
  LongestPathEngine probe(graph);
  const LongestPathResult& lp = probe.compute(kAnchorTask);
  return lp.feasible && lp.dist == starts;
}

}  // namespace

MinPowerScheduler::MinPowerScheduler(const Problem& problem,
                                     MinPowerOptions options)
    : problem_(problem), options_(options) {}

ScheduleResult MinPowerScheduler::schedule() {
  MaxPowerScheduler::Detailed staged = stages();
  if (!staged.result.ok()) return std::move(staged.result);
  return improve(*staged.graph, *staged.result.schedule, staged.result.stats);
}

MaxPowerScheduler::Detailed MinPowerScheduler::stages() {
  // Pin the deadline before the first stage runs; every nested stage then
  // inherits the same absolute time point.
  options_.budget = options_.budget.resolved();
  // Warm start: a caller-provided valid schedule skips the timing and
  // max-power stages and goes straight to gap-filling improvement (see
  // MinPowerOptions::initialStarts). The vector is pinned into the graph
  // as anchor->v delay edges: for a timing-feasible start vector the
  // longest-path ASAP solution then equals the vector exactly, which is
  // the invariant improve() builds its slack evaluation on. Like the
  // timing stage, the graph also serializes each resource's tasks, here in
  // their given start order, so slacks and moves keep resource
  // exclusivity. Any validation failure (a resource overlap included)
  // falls through to the cold pipeline.
  if (options_.initialStarts.has_value()) {
    const std::vector<Time>& starts = *options_.initialStarts;
    if (starts.size() == problem_.numVertices() && !starts.empty() &&
        starts[0] == Time::zero()) {
      ConstraintGraph graph = problem_.buildGraph();
      for (TaskId v : problem_.taskIds()) {
        graph.addEdge(kAnchorTask, v, starts[v.index()] - Time::zero(),
                      EdgeKind::kDelay);
      }
      serializeInStartOrder(problem_, starts, graph);
      if (pinsExactly(graph, starts) &&
          !profileOf(problem_, starts)
               .firstSpike(problem_.maxPower())
               .has_value()) {
        MaxPowerScheduler::Detailed out;
        out.result.status = SchedStatus::kOk;
        out.result.schedule = Schedule(&problem_, starts);
        out.result.stats.longestPathRuns = 1;  // the pinning probe
        out.graph = std::move(graph);
        return out;
      }
    }
  }
  MaxPowerOptions maxOptions = options_.maxPower;
  maxOptions.obs.inheritFrom(options_.obs);
  maxOptions.budget.inheritFrom(options_.budget);
  MaxPowerScheduler::Detailed det =
      MaxPowerScheduler(problem_, maxOptions).scheduleDetailed();
  PAWS_CHECK(!det.result.ok() || det.graph.has_value());
  return det;
}

ScheduleResult MinPowerScheduler::improve(ConstraintGraph& graph,
                                          const Schedule& valid,
                                          SchedulerStats stats) {
  obs::PhaseTimer phaseTimer(options_.obs, "min-power");
  ScheduleResult out;
  out.stats = stats;

  const Watts pmax = problem_.maxPower();
  const Watts pmin = problem_.minPower();
  std::vector<Time> starts = valid.starts();
  std::uint32_t rng = options_.randomSeed == 0 ? 1 : options_.randomSeed;

  const Time spikeHorizon(options_.maxPower.ignoreSpikesBeforeTick);

  // The live profile. Candidate gap-filling moves are evaluated by
  // checkpointing the engine, applying moveTask deltas for only the tasks
  // the longest-path run moved, reading spike/utilization from cached
  // aggregates, and restoring on reject.
  power::ProfileEngine pe(problem_.backgroundPower(), pmin, pmax);
  pe.rebuild(problem_, starts);
  PAWS_CHECK_MSG(!pe.firstSpike(spikeHorizon),
                 "improve() requires a power-valid input schedule");
  double rho = pe.utilization();
  // Anytime curve: the schedule handed to improve() is the first
  // incumbent; every accepted move below lowers Ec and appends a point.
  const auto recordIncumbent = [&] {
    if (options_.obs.incumbents == nullptr) return;
    options_.obs.incumbents->record(pe.energyAbove().milliwattTicks());
  };
  recordIncumbent();

  LongestPathEngine engine(graph);
  engine.setObs(options_.obs);
  // Seed the engine once so every candidate-move evaluation below runs
  // incrementally (one delay edge added, checkpoint-restored on reject).
  PAWS_CHECK(engine.compute(kAnchorTask).feasible);
  ++out.stats.longestPathRuns;

  ScanOrder scan = options_.scanOrder;
  SlotHeuristic slot = options_.slotHeuristic;

  // Anytime guard: between candidate evaluations `starts` is always a
  // valid (timing- and Pmax-respecting) schedule — every rejected move is
  // rolled back before the next one is tried — so a trip mid-improvement
  // simply stops polishing and returns the current schedule.
  guard::RunGuard guard(options_.budget.resolved(), /*stride=*/8);
  bool tripped = false;

  for (std::uint32_t pass = 0;
       pass < options_.maxPasses && rho < 1.0 && !tripped; ++pass) {
    ++out.stats.scans;
    PAWS_TRACE_INSTANT(options_.obs.trace, obs::TraceEventKind::kScanPass,
                       obs::TraceEvent::kNoTask, /*at=*/0,
                       /*value=*/static_cast<std::int64_t>(rho * 1e6), pass);
    bool improvedInPass = false;
    bool rescan = true;

    while (rescan && rho < 1.0 && !tripped) {
      rescan = false;
      std::vector<Interval> gaps = pe.gaps();
      // Slacks depend only on the graph and starts, which change solely on
      // accepted moves — and those set rescan and break back here. One
      // computation covers every gap of this scan.
      const std::vector<Duration> slacks = computeSlacks(graph, starts);
      switch (scan) {
        case ScanOrder::kForward:
          break;  // gaps() is already in increasing time order
        case ScanOrder::kBackward:
          std::reverse(gaps.begin(), gaps.end());
          break;
        case ScanOrder::kRandom:
          for (std::size_t i = gaps.size(); i > 1; --i) {
            std::swap(gaps[i - 1], gaps[nextRand(rng) % i]);
          }
          break;
      }

      for (const Interval& gap : gaps) {
        const Time t = gap.begin();
        if (pe.valueAt(t) >= pmin) continue;  // stale after a move

        // Candidates: tasks that completed before t but can be delayed,
        // within their slack, far enough to be active at t.
        std::vector<TaskId> candidates;
        for (TaskId v : problem_.taskIds()) {
          const Task& task = problem_.task(v);
          const Time end = starts[v.index()] + task.delay;
          if (end > t) continue;  // still running at/after t, cannot "fill"
          const Duration neededSlack =
              (t - starts[v.index()]) - task.delay + Duration(1);
          if (slacks[v.index()] >= neededSlack) candidates.push_back(v);
        }
        // Try the largest power draw first: it fills the gap fastest.
        std::stable_sort(candidates.begin(), candidates.end(),
                         [this](TaskId x, TaskId y) {
                           return problem_.task(x).power >
                                  problem_.task(y).power;
                         });

        for (TaskId v : candidates) {
          if (guard.poll() != guard::StopReason::kNone) {
            tripped = true;
            break;
          }
          const Task& task = problem_.task(v);
          const Time cur = starts[v.index()];
          // Feasible new-start window that keeps v active at t. Unbounded
          // slack (no outgoing constraints) must not enter the arithmetic:
          // cur + Duration::max() would overflow.
          const Time lo =
              std::max(cur + Duration(1), t - task.delay + Duration(1));
          const Time hi = slacks[v.index()] == Duration::max()
                              ? t
                              : std::min(t, cur + slacks[v.index()]);
          if (lo > hi) continue;

          Time target;
          switch (slot) {
            case SlotHeuristic::kStartAtGap:
              target = hi;  // as close to starting at t as slack allows
              break;
            case SlotHeuristic::kFinishAtGapEnd:
              target = gap.end() - task.delay;
              target = std::clamp(target, lo, hi);
              break;
            case SlotHeuristic::kRandom:
              target = lo + Duration(static_cast<std::int64_t>(
                                nextRand(rng) %
                                static_cast<std::uint64_t>(
                                    (hi - lo).ticks() + 1)));
              break;
          }

          const ConstraintGraph::Checkpoint cp = graph.checkpoint();
          const LongestPathEngine::Checkpoint ecp = engine.checkpoint();
          graph.addEdge(kAnchorTask, v, target - Time::zero(),
                        EdgeKind::kDelay);
          const LongestPathResult& lp = engine.compute(kAnchorTask);
          ++out.stats.longestPathRuns;
          if (!lp.feasible) {
            graph.rollbackTo(cp);
            engine.restore(ecp);
            continue;
          }
          // Evaluate the move: apply it to the live profile as deltas for
          // only the tasks the propagation actually shifted (usually v and
          // a handful of successors), read the verdict from the cached
          // aggregates, and keep or undo the frame with the graph trail.
          const power::ProfileEngine::Checkpoint pcp = pe.checkpoint();
          for (std::size_t i = 1; i < lp.dist.size(); ++i) {
            if (lp.dist[i] != starts[i]) {
              pe.moveTask(TaskId(static_cast<std::uint32_t>(i)), lp.dist[i]);
            }
          }
          const bool powerValid = !pe.firstSpike(spikeHorizon).has_value();
          const double newRho = pe.utilization();
          if (powerValid && newRho > rho) {
            engine.release(ecp);  // the delay edge is being kept
            pe.release(pcp);
            starts = lp.dist;
            rho = newRho;
            recordIncumbent();
            ++out.stats.improvements;
            PAWS_TRACE_INSTANT(options_.obs.trace,
                               obs::TraceEventKind::kMoveAccepted, v.value(),
                               target.ticks(),
                               static_cast<std::int64_t>(newRho * 1e6), pass);
            improvedInPass = true;
            rescan = true;  // gap list is stale; rebuild it
            break;
          }
          PAWS_TRACE_INSTANT(options_.obs.trace,
                             obs::TraceEventKind::kMoveRejected, v.value(),
                             target.ticks(),
                             static_cast<std::int64_t>(newRho * 1e6), pass);
          graph.rollbackTo(cp);
          engine.restore(ecp);
          pe.restore(pcp);
        }
        if (rescan || tripped) break;
      }
    }

    if (!improvedInPass) break;
    if (options_.rotateHeuristics) {
      scan = rotateScan(scan);
      slot = rotateSlot(slot);
    }
  }

  if (options_.obs.metrics != nullptr) {
    options_.obs.metrics->add("profile.rebuilds", pe.rebuilds());
    options_.obs.metrics->add("profile.incremental_updates",
                              pe.incrementalUpdates());
    options_.obs.metrics->add("profile.restores", pe.restores());
    if (tripped) {
      options_.obs.metrics->add(
          guard.reason() == guard::StopReason::kCancelled
              ? "guard.cancels"
              : "guard.deadline_trips",
          1);
      options_.obs.metrics->add("guard.incumbent_returned", 1);
    }
  }

  if (tripped) {
    // The last consistent schedule — valid, just not polished to the end.
    out.status = SchedStatus::kDeadlineExceeded;
    out.message = guard.reason() == guard::StopReason::kCancelled
                      ? "cancelled during min-power improvement; returning "
                        "last consistent schedule"
                      : "deadline exceeded during min-power improvement; "
                        "returning last consistent schedule";
    out.schedule = Schedule(&problem_, starts);
    return out;
  }

  out.status = SchedStatus::kOk;
  out.schedule = Schedule(&problem_, starts);
  return out;
}

}  // namespace paws
