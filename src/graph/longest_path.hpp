// SINGLE-SOURCE-LONGEST-PATH over the constraint graph (Fig. 3 of the
// paper calls this as the first step of every TimingScheduler invocation).
//
// Under the edge semantics sigma(to) - sigma(from) >= weight, the tightest
// (earliest) start-time assignment satisfying all constraints is the longest
// path distance from the anchor. A *positive cycle* means the constraint
// system is infeasible — the schedulers backtrack on it, so besides the
// verdict we also extract one offending cycle for diagnostics.
//
// The engine is stateful to support the schedulers' add-edge / recompute /
// rollback loop efficiently in BOTH directions:
//   * after edge *additions* distances can only grow, so relaxation
//     restarts from the new edges against the previous solution
//     (work-list Bellman–Ford);
//   * around a graph *rollback*, the schedulers bracket their trail with
//     checkpoint()/restore(): while a checkpoint is open the engine logs
//     every distance overwrite, and restore() pops that log so the
//     pre-rollback solution is revived instead of recomputing from
//     scratch. A rollback without a matching restore (or any change the
//     log cannot capture — a full rerun, new vertices) still degrades
//     safely to a full recompute via the graph generation counter.
#pragma once

#include <cstdint>
#include <vector>

#include "base/ids.hpp"
#include "base/time.hpp"
#include "graph/constraint_graph.hpp"
#include "obs/context.hpp"

namespace paws {

/// Outcome of a longest-path run.
struct LongestPathResult {
  /// False iff a positive cycle was found (constraints infeasible).
  bool feasible = true;
  /// Longest-path distance per vertex; Time::minusInfinity() when the vertex
  /// is unreachable from the source. Valid only when `feasible`.
  std::vector<Time> dist;
  /// When infeasible: the vertices of one positive cycle, in edge order.
  std::vector<TaskId> cycle;
  /// When infeasible: the edges forming that cycle.
  std::vector<EdgeId> cycleEdges;
};

class LongestPathEngine {
 public:
  /// Binds the engine to `graph`; the graph must outlive the engine.
  explicit LongestPathEngine(const ConstraintGraph& graph);

  /// (Re)computes longest paths from `source`. Automatically picks
  /// incremental relaxation when only edges were added since the previous
  /// feasible run from the same source; otherwise runs from scratch.
  const LongestPathResult& compute(TaskId source);

  /// Forces a from-scratch computation (used by tests and after external
  /// graph surgery the engine cannot observe).
  const LongestPathResult& computeFull(TaskId source);

  // ----- trail-aligned checkpoint / restore ---------------------------
  //
  // Usage, mirroring the ConstraintGraph trail:
  //
  //   auto cp  = graph.checkpoint();
  //   auto ecp = engine.checkpoint();     // start logging overwrites
  //   graph.addEdge(...); engine.compute(...);
  //   ...
  //   graph.rollbackTo(cp);               // graph first,
  //   engine.restore(ecp);                // then the engine
  //
  // or engine.release(ecp) instead of the rollback pair when the edges are
  // kept. checkpoint/release/restore must nest LIFO, exactly like the
  // graph trail. restore() revives the distance solution that was current
  // at checkpoint() time by popping the overwrite log; when the log cannot
  // prove that revival is sound (a full rerun happened in between, the
  // vertex set grew, or the graph is not back at the checkpoint's edge
  // count) it falls back to invalidating the engine, making the next
  // compute() a full run — never wrong, only slower.

  struct Checkpoint {
    std::size_t undoSize = 0;
    std::size_t edgeCount = 0;
    std::size_t vertexCount = 0;
    TaskId source;
    bool hadValidRun = false;
  };

  /// Marks the current solution state and starts delta logging.
  [[nodiscard]] Checkpoint checkpoint();

  /// Reverts the engine to `cp` after the caller rolled the graph back to
  /// the matching trail position. Counts as longest_path.restores when the
  /// solution is revived, longest_path.restore_fallbacks otherwise.
  void restore(const Checkpoint& cp);

  /// Closes `cp` without reverting (the trail edges are being kept).
  void release(const Checkpoint& cp);

  /// Attaches observability hooks: each Bellman–Ford run becomes a
  /// kLongestPath span (label = full/incremental, value = edge count) and
  /// feeds the "longest_path.*" metrics. Hooks are borrowed.
  void setObs(const obs::ObsContext& obs) { obs_ = obs; }

  [[nodiscard]] const LongestPathResult& result() const { return result_; }

 private:
  const LongestPathResult& run(TaskId source, bool incremental);
  const LongestPathResult& runImpl(TaskId source, bool incremental);
  void extractPositiveCycle(TaskId overRelaxed);
  /// Stamped walk up the parent chain from `v`; returns a vertex on a
  /// parent-graph cycle, or invalid if the chain is currently acyclic.
  [[nodiscard]] TaskId findParentCycle(TaskId v);
  /// Fills result_.cycle/cycleEdges by looping the parent chain from a
  /// vertex known to lie on a parent-graph cycle.
  void collectCycleAt(TaskId onCycle);
  /// Exact verdict for a run whose improvement count tripped the (n+1)
  /// bound without a parent-graph cycle: full Bellman–Ford rounds over
  /// every edge, starting from the current distances. On convergence the
  /// distances are installed (logged when `record`) and true is returned;
  /// false (nothing touched) when the rounds still improve after n laps.
  [[nodiscard]] bool settleByRounds(bool record);

  const ConstraintGraph& graph_;
  LongestPathResult result_;
  obs::ObsContext obs_;

  // Scratch state reused across runs. inQueue_ is uint8_t, not bool: the
  // relaxation loop is the hottest in the code base and vector<bool>'s
  // bit-twiddling costs measurably there.
  std::vector<EdgeId> parentEdge_;
  std::vector<std::uint32_t> relaxCount_;
  std::vector<std::uint8_t> inQueue_;
  std::vector<TaskId> queue_;
  // Early positive-cycle detection: when a vertex reaches nextCheck_
  // improvements, walk its parent chain (stamped with walkEpoch_) looking
  // for a cycle. A cycle in the parent graph is always a strictly positive
  // cycle — every parent edge was a strict improvement when assigned, and
  // distances only grow, so a zero-weight cycle cannot close. Checks
  // escalate geometrically per vertex; at the (n+1)-improvement bound a
  // parent cycle or, failing one, settleByRounds() gives the verdict.
  std::vector<std::uint32_t> nextCheck_;
  std::vector<std::uint32_t> walkStamp_;
  std::uint32_t walkEpoch_ = 0;

  // Overwrite log for restore(): (vertex, previous distance), popped LIFO.
  struct Undo {
    std::uint32_t vertex;
    Time oldDist;
  };
  std::vector<Undo> undoLog_;
  std::size_t openCheckpoints_ = 0;
  // Entries below this index predate a full rerun and cannot be replayed;
  // restore() to a checkpoint older than this falls back to invalidation.
  std::size_t poisonedBelow_ = 0;

  // Validity tracking for incremental mode.
  bool hasValidRun_ = false;
  TaskId lastSource_;
  std::uint64_t lastGeneration_ = 0;
  std::size_t lastEdgeCount_ = 0;
};

}  // namespace paws
