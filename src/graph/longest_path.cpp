#include "graph/longest_path.hpp"

#include <algorithm>
#include <chrono>

#include "base/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace paws {

namespace {
constexpr EdgeId kNoParent = static_cast<EdgeId>(-1);
// First parent-cycle probe after this many improvements of one vertex;
// later probes escalate geometrically (see nextCheck_).
constexpr std::uint32_t kFirstCycleCheck = 8;
}

LongestPathEngine::LongestPathEngine(const ConstraintGraph& graph)
    : graph_(graph) {}

const LongestPathResult& LongestPathEngine::compute(TaskId source) {
  const bool canIncrement = hasValidRun_ && result_.feasible &&
                            lastSource_ == source &&
                            lastGeneration_ == graph_.generation() &&
                            graph_.numEdges() >= lastEdgeCount_;
  if (canIncrement && graph_.numEdges() == lastEdgeCount_) {
    return result_;  // Nothing changed.
  }
  return run(source, canIncrement);
}

const LongestPathResult& LongestPathEngine::computeFull(TaskId source) {
  return run(source, /*incremental=*/false);
}

LongestPathEngine::Checkpoint LongestPathEngine::checkpoint() {
  ++openCheckpoints_;
  Checkpoint cp;
  cp.undoSize = undoLog_.size();
  cp.edgeCount = graph_.numEdges();
  cp.vertexCount = graph_.numVertices();
  cp.source = lastSource_;
  cp.hadValidRun = hasValidRun_ && result_.feasible;
  return cp;
}

void LongestPathEngine::restore(const Checkpoint& cp) {
  PAWS_CHECK_MSG(openCheckpoints_ > 0, "restore without open checkpoint");
  --openCheckpoints_;
  PAWS_CHECK(cp.undoSize <= undoLog_.size());

  const bool revivable = cp.hadValidRun &&
                         graph_.numEdges() == cp.edgeCount &&
                         graph_.numVertices() == cp.vertexCount &&
                         cp.undoSize >= poisonedBelow_;
  if (revivable) {
    // Pop overwrites newest-first: a vertex touched twice ends at its
    // oldest (checkpoint-time) distance.
    while (undoLog_.size() > cp.undoSize) {
      const Undo& u = undoLog_.back();
      result_.dist[u.vertex] = u.oldDist;
      undoLog_.pop_back();
    }
    result_.feasible = true;
    result_.cycle.clear();
    result_.cycleEdges.clear();
    hasValidRun_ = true;
    lastSource_ = cp.source;
    lastEdgeCount_ = cp.edgeCount;
    lastGeneration_ = graph_.generation();
    if (obs_.metrics != nullptr) obs_.metrics->add("longest_path.restores");
  } else {
    undoLog_.resize(cp.undoSize);
    poisonedBelow_ = std::min(poisonedBelow_, undoLog_.size());
    hasValidRun_ = false;
    if (obs_.metrics != nullptr) {
      obs_.metrics->add("longest_path.restore_fallbacks");
    }
  }
  if (openCheckpoints_ == 0) {
    undoLog_.clear();
    poisonedBelow_ = 0;
  }
}

void LongestPathEngine::release(const Checkpoint& cp) {
  PAWS_CHECK_MSG(openCheckpoints_ > 0, "release without open checkpoint");
  (void)cp;
  --openCheckpoints_;
  if (openCheckpoints_ == 0) {
    // Nobody can restore through these entries anymore.
    undoLog_.clear();
    poisonedBelow_ = 0;
  }
}

const LongestPathResult& LongestPathEngine::run(TaskId source,
                                                bool incremental) {
  // Observed runs are wrapped in a wall-clock span; the unobserved path
  // costs exactly one branch.
  if (!obs_.enabled()) return runImpl(source, incremental);
  const std::int64_t sinkT0 = obs_.trace != nullptr ? obs_.trace->nowNs() : 0;
  const auto start = std::chrono::steady_clock::now();
  const LongestPathResult& r = runImpl(source, incremental);
  const std::int64_t durNs =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  PAWS_TRACE_SPAN(obs_.trace, obs::TraceEventKind::kLongestPath, sinkT0,
                  durNs, incremental ? "incremental" : "full",
                  /*depth=*/0,
                  /*value=*/static_cast<std::int64_t>(graph_.numEdges()));
  if (obs_.metrics != nullptr) {
    obs_.metrics->add("longest_path.runs");
    if (incremental) {
      obs_.metrics->add("longest_path.incremental_runs");
    } else {
      obs_.metrics->add("longest_path.full_runs");
    }
    if (!r.feasible) obs_.metrics->add("longest_path.infeasible_runs");
    obs_.metrics->observe("phase.longest_path.wall_us",
                          static_cast<double>(durNs) / 1000.0);
  }
  return r;
}

const LongestPathResult& LongestPathEngine::runImpl(TaskId source,
                                                    bool incremental) {
  const std::size_t n = graph_.numVertices();
  PAWS_CHECK_MSG(source.index() < n, "source " << source << " out of range");

  result_.feasible = true;
  result_.cycle.clear();
  result_.cycleEdges.clear();

  parentEdge_.assign(n, kNoParent);
  relaxCount_.assign(n, 0);
  inQueue_.assign(n, 0);
  nextCheck_.assign(n, kFirstCycleCheck);
  queue_.clear();
  queue_.reserve(n);

  // Distance overwrites are logged only while a checkpoint is open; a full
  // run rewrites the whole vector, which the log cannot express, so it
  // poisons every entry recorded so far instead (restore() then falls back
  // to invalidation for checkpoints older than this run).
  const bool record = openCheckpoints_ > 0 && incremental;
  if (!incremental && openCheckpoints_ > 0) poisonedBelow_ = undoLog_.size();

  std::size_t firstNewEdge = 0;
  if (incremental) {
    // Keep previous distances; only the tails of freshly added edges can
    // trigger improvements.
    firstNewEdge = lastEdgeCount_;
  } else {
    result_.dist.assign(n, Time::minusInfinity());
    result_.dist[source.index()] = Time::zero();
    queue_.push_back(source);
    inQueue_[source.index()] = 1;
  }

  auto relax = [&](EdgeId eid) -> TaskId {
    const ConstraintEdge& e = graph_.edge(eid);
    const Time du = result_.dist[e.from.index()];
    if (du == Time::minusInfinity()) return TaskId::invalid();
    const Time candidate = du + e.weight;
    if (candidate > result_.dist[e.to.index()]) {
      if (record) {
        undoLog_.push_back(Undo{static_cast<std::uint32_t>(e.to.index()),
                                result_.dist[e.to.index()]});
      }
      result_.dist[e.to.index()] = candidate;
      parentEdge_[e.to.index()] = eid;
      return e.to;
    }
    return TaskId::invalid();
  };

  // Seed: in incremental mode, relax exactly the new edges once.
  if (incremental) {
    for (std::size_t i = firstNewEdge; i < graph_.numEdges(); ++i) {
      const TaskId improved = relax(static_cast<EdgeId>(i));
      if (improved.isValid() && !inQueue_[improved.index()]) {
        inQueue_[improved.index()] = 1;
        queue_.push_back(improved);
      }
    }
  }

  const auto settled = [&]() -> const LongestPathResult& {
    hasValidRun_ = true;
    lastSource_ = source;
    lastGeneration_ = graph_.generation();
    lastEdgeCount_ = graph_.numEdges();
    return result_;
  };

  // Work-list Bellman–Ford. Past |V|+1 improvements a vertex is suspect,
  // but the count alone proves nothing: a work-list improves a vertex
  // once per improving in-edge per lap, so a feasible graph with parallel
  // or dense in-edges can pass it. A parent cycle is a witness; without
  // one, exact rounds decide.
  const std::uint32_t relaxLimit = static_cast<std::uint32_t>(n) + 1;
  std::size_t head = 0;
  while (head < queue_.size()) {
    const TaskId u = queue_[head++];
    inQueue_[u.index()] = 0;
    // Compact the queue occasionally so long runs stay in bounded memory.
    if (head > 4096 && head * 2 > queue_.size()) {
      queue_.erase(queue_.begin(),
                   queue_.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }
    // A dequeued vertex always has a finite distance (vertices are only
    // enqueued when improved), so the tail distance is hoisted and each
    // adjacency entry carries the head and weight inline — the relaxation
    // loop walks contiguous arena chunks without touching the edge pool.
    const Time du = result_.dist[u.index()];
    for (const AdjEntry& ae : graph_.outEdges(u)) {
      const Time candidate = du + ae.weight;
      const std::size_t to = ae.other.index();
      if (candidate <= result_.dist[to]) continue;
      if (record) {
        undoLog_.push_back(
            Undo{static_cast<std::uint32_t>(to), result_.dist[to]});
      }
      result_.dist[to] = candidate;
      parentEdge_[to] = ae.id;
      const std::uint32_t improvements = ++relaxCount_[to];
      if (improvements >= nextCheck_[to]) {
        // A vertex improving this often is suspicious: probe the parent
        // chain for a cycle now instead of pumping all the way to the
        // classic (n+1)-improvement bound — infeasible serializations are
        // the common case during scheduler backtracking, and each extra
        // pump lap re-relaxes the whole downstream subgraph.
        if (improvements > relaxLimit) {
          if (!findParentCycle(ae.other).isValid() && settleByRounds(record)) {
            return settled();
          }
          extractPositiveCycle(ae.other);
          hasValidRun_ = false;
          result_.feasible = false;
          return result_;
        }
        const TaskId onCycle = findParentCycle(ae.other);
        if (onCycle.isValid()) {
          collectCycleAt(onCycle);
          hasValidRun_ = false;
          result_.feasible = false;
          return result_;
        }
        nextCheck_[to] = improvements * 4;
      }
      if (!inQueue_[to]) {
        inQueue_[to] = 1;
        queue_.push_back(ae.other);
      }
    }
  }

  return settled();
}

bool LongestPathEngine::settleByRounds(bool record) {
  const std::size_t n = graph_.numVertices();
  // Every current distance is the length of a real walk from the source,
  // so rounds started from them converge to the exact longest paths within
  // n laps when no positive cycle is reachable.
  std::vector<Time> dist = result_.dist;
  bool changed = true;
  for (std::size_t lap = 0; changed && lap <= n; ++lap) {
    changed = false;
    for (const ConstraintEdge& e : graph_.edges()) {
      const Time du = dist[e.from.index()];
      if (du == Time::minusInfinity() || du + e.weight <= dist[e.to.index()]) {
        continue;
      }
      dist[e.to.index()] = du + e.weight;
      changed = true;
    }
  }
  if (changed) return false;
  for (std::size_t v = 0; v < n; ++v) {
    if (dist[v] == result_.dist[v]) continue;
    if (record) {
      undoLog_.push_back(
          Undo{static_cast<std::uint32_t>(v), result_.dist[v]});
    }
    result_.dist[v] = dist[v];
  }
  return true;
}

void LongestPathEngine::extractPositiveCycle(TaskId overRelaxed) {
  const std::size_t n = graph_.numVertices();
  // Walk parent pointers n steps to guarantee we are standing inside the
  // cycle (the parent chain from an over-relaxed vertex must reach one).
  TaskId x = overRelaxed;
  for (std::size_t i = 0; i < n; ++i) {
    const EdgeId pe = parentEdge_[x.index()];
    if (pe == kNoParent) {
      // Defensive: cannot happen for a genuinely over-relaxed vertex, but a
      // missing parent chain still reports infeasibility without a witness.
      return;
    }
    x = graph_.edge(pe).from;
  }
  collectCycleAt(x);
}

TaskId LongestPathEngine::findParentCycle(TaskId v) {
  const std::size_t n = graph_.numVertices();
  if (walkStamp_.size() != n) walkStamp_.assign(n, 0);
  if (++walkEpoch_ == 0) {  // epoch wrapped: flush stale stamps
    walkStamp_.assign(n, 0);
    walkEpoch_ = 1;
  }
  TaskId x = v;
  for (std::size_t i = 0; i <= n; ++i) {
    if (walkStamp_[x.index()] == walkEpoch_) return x;  // revisit => cycle
    walkStamp_[x.index()] = walkEpoch_;
    const EdgeId pe = parentEdge_[x.index()];
    if (pe == kNoParent) return TaskId::invalid();
    x = graph_.edge(pe).from;
  }
  return TaskId::invalid();
}

void LongestPathEngine::collectCycleAt(TaskId onCycle) {
  // Collect vertices until onCycle repeats.
  std::vector<TaskId> path;
  std::vector<EdgeId> pathEdges;
  TaskId y = onCycle;
  do {
    const EdgeId pe = parentEdge_[y.index()];
    if (pe == kNoParent) return;
    path.push_back(y);
    pathEdges.push_back(pe);
    y = graph_.edge(pe).from;
  } while (y != onCycle);
  path.push_back(onCycle);
  std::reverse(path.begin(), path.end());
  std::reverse(pathEdges.begin(), pathEdges.end());
  result_.cycle = std::move(path);
  result_.cycleEdges = std::move(pathEdges);
}

}  // namespace paws
