#include "sched/polish.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "power/profile.hpp"

namespace paws {

namespace {

/// Feasibility of a full start vector: pairwise timing constraints,
/// per-resource exclusivity, and the Pmax ceiling — the same admissibility
/// the exhaustive search and the validator enforce. O(n^2 + profile).
bool feasible(const Problem& problem, const std::vector<Time>& starts) {
  for (const TimingConstraint& c : problem.constraints()) {
    const Duration gap = starts[c.to.index()] - starts[c.from.index()];
    if (c.kind == TimingConstraint::Kind::kMinSeparation ? gap < c.separation
                                                         : gap > c.separation) {
      return false;
    }
  }
  const std::vector<TaskId> tasks = problem.taskIds();
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const Task& a = problem.task(tasks[i]);
    const Interval ia(starts[tasks[i].index()],
                      starts[tasks[i].index()] + a.delay);
    for (std::size_t j = i + 1; j < tasks.size(); ++j) {
      const Task& b = problem.task(tasks[j]);
      if (a.resource != b.resource) continue;
      const Interval ib(starts[tasks[j].index()],
                        starts[tasks[j].index()] + b.delay);
      if (ia.overlaps(ib)) return false;
    }
  }
  return !profileOf(problem, starts).firstSpike(problem.maxPower());
}

struct LexValue {
  Energy cost;
  Time finish;
};

bool lexBetter(const LexValue& a, const LexValue& b) {
  return a.cost < b.cost || (a.cost == b.cost && a.finish < b.finish);
}

/// One candidate slot assignment: task `v` moved to start `at`.
struct Slot {
  TaskId task;
  Time at;
};

/// Every (task, start) pair within the horizon, in deterministic scan
/// order. A task whose delay no longer fits keeps only its current slot.
std::vector<Slot> candidateSlots(const Problem& problem,
                                 const std::vector<Time>& starts,
                                 Time horizon) {
  std::vector<Slot> slots;
  for (TaskId v : problem.taskIds()) {
    const Duration delay = problem.task(v).delay;
    if (Time::zero() + delay > horizon) {
      slots.push_back({v, starts[v.index()]});
      continue;
    }
    for (Time at = Time::zero(); at + delay <= horizon; at += Duration(1)) {
      slots.push_back({v, at});
    }
  }
  return slots;
}

/// Feasibility and value of start vectors that differ from a feasible one
/// in one or two tasks. Only the moved tasks' constraints and same-resource
/// neighbours can break, so those are all a candidate is checked against;
/// the power profile is swept once per candidate.
class MoveChecker {
 public:
  explicit MoveChecker(const Problem& problem)
      : problem_(problem),
        delays_(problem.taskDelays()),
        powers_(problem.taskPowers()),
        touching_(problem.numVertices()),
        neighbours_(problem.numVertices()) {
    for (const TimingConstraint& c : problem.constraints()) {
      const bool isMin = c.kind == TimingConstraint::Kind::kMinSeparation;
      touching_[c.from.index()].push_back(
          Touch{c.to.value(), c.separation, false, isMin});
      touching_[c.to.index()].push_back(
          Touch{c.from.value(), c.separation, true, isMin});
    }
    const std::span<const ResourceId> resources = problem.taskResources();
    for (std::size_t i = 1; i < problem.numVertices(); ++i) {
      for (std::size_t j = 1; j < problem.numVertices(); ++j) {
        if (j != i && resources[j] == resources[i]) {
          neighbours_[i].push_back(static_cast<std::uint32_t>(j));
        }
      }
    }
    events_.reserve(2 * problem.numVertices());
  }

  /// What a move of task `v` breaks in `starts` (which holds the move):
  /// the anchor, one other task, or several.
  struct Conflicts {
    bool anchor = false;
    bool many = false;
    std::uint32_t only = 0;  // the single conflicting task, 0 = none
  };

  /// Every vertex that `v` breaks a constraint or a resource with in
  /// `starts`.
  [[nodiscard]] Conflicts conflictsOf(std::size_t v,
                                      const std::vector<Time>& starts) const {
    Conflicts c;
    forEachBreak(v, starts, [&c](std::uint32_t other) {
      if (other == 0) {
        c.anchor = true;
      } else if (c.only == 0) {
        c.only = other;
      } else if (c.only != other) {
        c.many = true;
      }
      return false;
    });
    return c;
  }

  /// True when `v` keeps every constraint and resource with `starts`.
  [[nodiscard]] bool localOk(std::size_t v,
                             const std::vector<Time>& starts) const {
    return !forEachBreak(v, starts, [](std::uint32_t) { return true; });
  }

  /// One sweep of profileOf(starts): false on a Pmax spike, otherwise
  /// (energy above Pmin, finish) in `value`. Mirrors PowerProfileBuilder:
  /// the span is [0, latest end), empty and zero-power tasks only extend
  /// it, and equal-time steps are summed before a level is read.
  bool sweep(const std::vector<Time>& starts, LexValue& value) {
    events_.clear();
    Time maxEnd = Time::zero();
    for (std::size_t i = 1; i < problem_.numVertices(); ++i) {
      const Interval in(starts[i], starts[i] + delays_[i]);
      if (in.end() > maxEnd) maxEnd = in.end();
      if (in.empty() || powers_[i].isZero()) continue;
      events_.push_back(Event{in.begin(), powers_[i]});
      events_.push_back(Event{in.end(), -powers_[i]});
    }
    std::sort(events_.begin(), events_.end(),
              [](const Event& a, const Event& b) { return a.at < b.at; });
    const Watts pmin = problem_.minPower();
    const Watts pmax = problem_.maxPower();
    Energy above;
    Watts level = problem_.backgroundPower();
    Time cursor = Time::zero();
    const auto account = [&](Time to) {
      if (to <= cursor) return true;
      if (level > pmax) return false;
      if (level > pmin) above += (level - pmin) * (to - cursor);
      cursor = to;
      return true;
    };
    for (std::size_t i = 0; i < events_.size();) {
      const Time at = events_[i].at;
      if (!account(std::min(at, maxEnd))) return false;
      for (; i < events_.size() && events_[i].at == at; ++i) {
        level += events_[i].delta;
      }
    }
    if (!account(maxEnd)) return false;
    value = LexValue{above, maxEnd};
    return true;
  }

 private:
  /// A constraint seen from one endpoint.
  struct Touch {
    std::uint32_t other;
    Duration sep;
    bool otherIsFrom;
    bool isMin;
  };
  struct Event {
    Time at;
    Watts delta;
  };

  /// Calls `hit(other)` for each constraint `v` violates in `starts` and
  /// each same-resource task it overlaps there, until `hit` returns true;
  /// returns whether it did.
  template <typename Hit>
  bool forEachBreak(std::size_t v, const std::vector<Time>& starts,
                    Hit hit) const {
    for (const Touch& t : touching_[v]) {
      const Time o = starts[t.other];
      const Duration gap = t.otherIsFrom ? starts[v] - o : o - starts[v];
      if ((t.isMin ? gap < t.sep : gap > t.sep) && hit(t.other)) return true;
    }
    const Interval placed(starts[v], starts[v] + delays_[v]);
    for (const std::uint32_t j : neighbours_[v]) {
      if (placed.overlaps(Interval(starts[j], starts[j] + delays_[j])) &&
          hit(j)) {
        return true;
      }
    }
    return false;
  }

  const Problem& problem_;
  std::span<const Duration> delays_;
  std::span<const Watts> powers_;
  std::vector<std::vector<Touch>> touching_;
  std::vector<std::vector<std::uint32_t>> neighbours_;
  std::vector<Event> events_;  // reused by every sweep
};

}  // namespace

Schedule polishSchedule(const Problem& problem, const Schedule& start,
                        const PolishOptions& options, PolishStats* stats) {
  std::vector<Time> best = start.starts();
  PolishStats local;
  if (stats != nullptr) *stats = local;
  // Infeasible input is outside the contract: hand it back untouched.
  // From here on `best` stays feasible, which is what lets a candidate be
  // checked only around its moved tasks.
  if (!feasible(problem, best)) return start;
  MoveChecker checker(problem);
  LexValue bestValue;
  checker.sweep(best, bestValue);  // feasible, so no spike

  // The slots depend on `best` only through tasks that never move (their
  // single slot is their current start), so one list serves every round.
  const std::vector<Slot> slots = candidateSlots(problem, best, options.horizon);
  // slotRange[v] = [first, last) indices of task v's slots.
  std::vector<std::pair<std::size_t, std::size_t>> slotRange(
      problem.numVertices(), {0, 0});
  for (std::size_t i = 0; i < slots.size(); ++i) {
    auto& range = slotRange[slots[i].task.index()];
    if (range.first == range.second) range.first = i;
    range.second = i + 1;
  }

  std::vector<Time> cand = best;
  LexValue value;
  bool improved = true;
  while (improved && local.singleMoves + local.pairMoves < options.maxMoves) {
    improved = false;

    // Tier 1: first-improvement single moves.
    for (const Slot& s : slots) {
      const std::size_t a = s.task.index();
      if (s.at == best[a]) continue;
      cand[a] = s.at;
      if (checker.localOk(a, cand) && checker.sweep(cand, value) &&
          lexBetter(value, bestValue)) {
        best = cand;
        bestValue = value;
        ++local.singleMoves;
        improved = true;
        break;
      }
      cand[a] = best[a];
    }
    if (improved) continue;

    // Tier 2: first-improvement pair moves — the coordinated step single
    // moves cannot take (each half is typically cost-neutral alone). A
    // first move that breaks a constraint with the anchor, or anything
    // with two unmoved tasks, has no feasible partner; one that breaks
    // something with task c can only be mended by moving c.
    if (slots.size() > options.maxPairCandidates) break;
    for (std::size_t i = 0; i < slots.size() && !improved; ++i) {
      const std::size_t a = slots[i].task.index();
      if (slots[i].at == best[a]) continue;
      cand[a] = slots[i].at;
      const MoveChecker::Conflicts conflicts = checker.conflictsOf(a, cand);
      std::size_t lo = i + 1;
      std::size_t hi = slots.size();
      if (conflicts.anchor || conflicts.many) {
        hi = lo;
      } else if (conflicts.only != 0) {
        lo = std::max(lo, slotRange[conflicts.only].first);
        hi = std::max(lo, slotRange[conflicts.only].second);
      }
      for (std::size_t j = lo; j < hi; ++j) {
        const std::size_t b = slots[j].task.index();
        if (b == a || slots[j].at == best[b]) continue;
        cand[b] = slots[j].at;
        if (checker.localOk(b, cand) && checker.sweep(cand, value) &&
            lexBetter(value, bestValue)) {
          best = cand;
          bestValue = value;
          ++local.pairMoves;
          improved = true;
          break;
        }
        cand[b] = best[b];
      }
      cand[a] = best[a];
    }
  }

  if (stats != nullptr) *stats = local;
  return Schedule(&problem, std::move(best));
}

}  // namespace paws
