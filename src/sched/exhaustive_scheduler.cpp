#include "sched/exhaustive_scheduler.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <span>
#include <unordered_set>
#include <vector>

#include "base/check.hpp"
#include "exec/jobs.hpp"
#include "guard/budget.hpp"
#include "exec/parallel_for.hpp"
#include "exec/pool.hpp"
#include "graph/longest_path.hpp"
#include "obs/incumbents.hpp"
#include "obs/metrics.hpp"
#include "power/profile_engine.hpp"

namespace paws {

namespace {

/// Constraints indexed per task for O(deg) pairwise checks.
struct Pair {
  TaskId other;
  Duration sep;
  bool otherIsFrom;
  bool isMin;
};

std::vector<std::vector<Pair>> buildTouching(const Problem& problem) {
  std::vector<std::vector<Pair>> touching(problem.numVertices());
  for (const TimingConstraint& c : problem.constraints()) {
    const bool isMin = c.kind == TimingConstraint::Kind::kMinSeparation;
    touching[c.from.index()].push_back(Pair{c.to, c.separation, false, isMin});
    touching[c.to.index()].push_back(Pair{c.from, c.separation, true, isMin});
  }
  return touching;
}

/// Static pruning tables, computed once per schedule() call and shared
/// read-only by every worker.
struct PruneTables {
  /// Earliest feasible start per task: the longest path from the anchor
  /// over the user-constraint graph. Any valid assignment satisfies
  /// sigma(v) >= windowLo[v], so smaller starts lead to subtrees without a
  /// single valid leaf. When the constraint system itself has a positive
  /// cycle, windowLo is set past the horizon so every range empties — the
  /// unpruned search would explore and find no valid leaf either.
  std::vector<Time> windowLo;
  /// Latest feasible start per task, from the longest path over the
  /// reversed edges: an original path v -> anchor of weight W forces
  /// sigma(v) <= -W. hasHi marks tasks with any such path; the rest are
  /// bounded by the horizon alone.
  std::vector<Time> windowHi;
  std::vector<std::uint8_t> hasHi;
  /// suffixFloorMwt[k] = sum over tasks i >= k of the minimum energy above
  /// Pmin that placing task i must add to any profile that sits at or
  /// above the background level everywhere:
  ///     d_i * (max(0, bg + p_i - Pmin) - max(0, bg - Pmin)).
  /// The increment of x -> max(0, x - Pmin) is non-decreasing in x, so the
  /// cheapest placement lands on bare background. Size n + 1.
  std::vector<std::int64_t> suffixFloorMwt;
  /// tailFinish[k] = max over tasks i >= k of windowLo[i] + d_i — a lower
  /// bound on the finish time of every completion. Size n + 1.
  std::vector<Time> tailFinish;
  /// prevEquiv[k] = largest j < k interchangeable with task k (0 = none);
  /// symmetry canonicalization raises k's start lower bound to starts[j].
  std::vector<std::uint32_t> prevEquiv;
  /// lastDependent[i] = largest task index whose placement can still read
  /// starts[i]: constraint partners, later same-resource tasks, and later
  /// members of i's symmetry class. Placed tasks with lastDependent <= k
  /// are invisible to every completion past depth k and stay out of the
  /// dominance signature.
  std::vector<std::uint32_t> lastDependent;
};

PruneTables buildPruneTables(const Problem& problem, Time horizon,
                             const std::vector<std::vector<Pair>>& touching) {
  const std::size_t n = problem.numVertices();
  PruneTables t;
  t.windowLo.assign(n, Time::zero());
  t.windowHi.assign(n, Time::zero());
  t.hasHi.assign(n, 0);
  t.suffixFloorMwt.assign(n + 1, 0);
  t.tailFinish.assign(n + 1, Time::minusInfinity());
  t.prevEquiv.assign(n, 0);
  t.lastDependent.assign(n, 0);

  const std::span<const Duration> delays = problem.taskDelays();
  const std::span<const Watts> powers = problem.taskPowers();
  const std::span<const ResourceId> resources = problem.taskResources();

  // Start windows from the user-constraint graph (release + min/max edges
  // only — the exhaustive search adds no serialization edges, it checks
  // resource overlap directly, so these longest paths bound every leaf).
  ConstraintGraph fwdGraph = problem.buildGraph();
  LongestPathEngine fwd(fwdGraph);
  const LongestPathResult& fwdRes = fwd.compute(kAnchorTask);
  ConstraintGraph revGraph(n);
  revGraph.reserveEdges(fwdGraph.numEdges());
  for (const ConstraintEdge& e : fwdGraph.edges()) {
    revGraph.addEdge(e.to, e.from, e.weight, e.kind);
  }
  LongestPathEngine bwd(revGraph);
  const LongestPathResult& bwdRes = bwd.compute(kAnchorTask);
  if (!fwdRes.feasible || !bwdRes.feasible) {
    for (std::size_t i = 1; i < n; ++i) {
      t.windowLo[i] = horizon + Duration(1);
    }
  } else {
    for (std::size_t i = 1; i < n; ++i) {
      t.windowLo[i] = std::max(Time::zero(), fwdRes.dist[i]);
      const Time back = bwdRes.dist[i];
      if (back != Time::minusInfinity()) {
        t.hasHi[i] = 1;
        t.windowHi[i] = Time::zero() - (back - Time::zero());
      }
    }
  }

  // Remaining-task cost floor and critical-path tail finish, accumulated
  // back to front.
  const std::int64_t bgMw = problem.backgroundPower().milliwatts();
  const std::int64_t pminMw = problem.minPower().milliwatts();
  const auto clampPos = [](std::int64_t x) { return x > 0 ? x : 0; };
  for (std::size_t i = n; i-- > 1;) {
    const std::int64_t floorMw =
        clampPos(bgMw + powers[i].milliwatts() - pminMw) -
        clampPos(bgMw - pminMw);
    t.suffixFloorMwt[i] =
        t.suffixFloorMwt[i + 1] + delays[i].ticks() * floorMw;
    t.tailFinish[i] = std::max(t.tailFinish[i + 1], t.windowLo[i] + delays[i]);
  }

  // Interchangeable-task classes for symmetry breaking: identical delay,
  // power and resource, identical constraint profile towards every other
  // task, and no constraint within the pair (swapping mutually-constrained
  // tasks is not an invariance). Swapping starts inside such a class maps
  // valid leaves to valid leaves with the same (cost, finish). Classes are
  // grown with an all-members check so membership is pairwise.
  std::vector<std::vector<std::array<std::int64_t, 4>>> csig(n);
  for (std::size_t i = 1; i < n; ++i) {
    for (const Pair& pr : touching[i]) {
      csig[i].push_back({static_cast<std::int64_t>(pr.other.value()),
                         pr.otherIsFrom ? 1 : 0, pr.isMin ? 1 : 0,
                         pr.sep.ticks()});
    }
    std::sort(csig[i].begin(), csig[i].end());
  }
  const auto constrained = [&touching](std::size_t i, std::size_t j) {
    for (const Pair& pr : touching[i]) {
      if (pr.other.index() == j) return true;
    }
    return false;
  };
  const auto interchangeable = [&](std::size_t i, std::size_t j) {
    return delays[i] == delays[j] && powers[i] == powers[j] &&
           resources[i] == resources[j] && csig[i] == csig[j] &&
           !constrained(i, j);
  };
  std::vector<std::vector<std::uint32_t>> classes;
  for (std::size_t i = 1; i < n; ++i) {
    bool placed = false;
    for (std::vector<std::uint32_t>& cls : classes) {
      bool fitsAll = true;
      for (std::uint32_t m : cls) {
        if (!interchangeable(m, i)) {
          fitsAll = false;
          break;
        }
      }
      if (fitsAll) {
        t.prevEquiv[i] = cls.back();
        cls.push_back(static_cast<std::uint32_t>(i));
        placed = true;
        break;
      }
    }
    if (!placed) classes.push_back({static_cast<std::uint32_t>(i)});
  }
  std::vector<std::uint32_t> lastEquiv(n, 0);
  for (const std::vector<std::uint32_t>& cls : classes) {
    for (std::uint32_t m : cls) lastEquiv[m] = cls.back();
  }

  for (std::size_t i = 1; i < n; ++i) {
    std::uint32_t last = static_cast<std::uint32_t>(i);
    for (const Pair& pr : touching[i]) {
      last = std::max(last, pr.other.value());
    }
    for (std::size_t j = i + 1; j < n; ++j) {
      if (resources[j] == resources[i]) {
        last = std::max(last, static_cast<std::uint32_t>(j));
      }
    }
    t.lastDependent[i] = std::max(last, lastEquiv[i]);
  }
  return t;
}

/// Which prunings a worker applies, plus the shared read-only tables.
struct PruneConfig {
  bool dominance = false;
  bool symmetry = false;
  bool bounds = false;
  const PruneTables* tables = nullptr;
};

/// Canonical state signature for the dominance table: 128 bits mixed from
/// (depth, merged placed-prefix profile, constraint-relevant frontier
/// starts). A collision would silently drop a live subtree; at the table's
/// entry cap the 128-bit birthday bound keeps that probability ~2^-85.
struct Sig {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  bool operator==(const Sig&) const = default;
};
struct SigHash {
  std::size_t operator()(const Sig& s) const {
    return static_cast<std::size_t>(s.a ^ (s.b * 0x9e3779b97f4a7c15ULL));
  }
};

/// Per-worker dominance-table entry cap (16 B per entry): beyond it the
/// table stops growing but keeps serving probes, so memory stays bounded
/// and the search stays deterministic.
constexpr std::size_t kMaxDominanceEntries = std::size_t(1) << 20;

/// State shared by every worker of one search. The cost bound only ever
/// holds costs of *achieved* valid leaves, so it is always >= the optimal
/// cost and the strictly-greater prefix pruning can never cut a leaf tying
/// the final optimum on cost — parallel pruning removes only subtrees the
/// serial reduction would discard anyway, which is what makes the parallel
/// result bit-identical.
/// Why the whole search stopped early; the first worker to trip wins (CAS
/// from kStopNone) so concurrent trips can't overwrite each other's reason.
enum StopCode : std::uint8_t {
  kStopNone = 0,
  kStopNodeBudget = 1,
  kStopDeadline = 2,
  kStopCancelled = 3,
};

struct SearchShared {
  std::atomic<std::int64_t> bestCostMwt{
      std::numeric_limits<std::int64_t>::max()};
  /// Every worker's expanded nodes, added in batches (see
  /// Worker::unflushedNodes_); exact once the workers are gone.
  std::atomic<std::uint64_t> nodesExplored{0};
  std::atomic<std::uint8_t> stop{kStopNone};
  std::uint64_t maxNodes = 0;
  /// Anytime-curve sink (borrowed, may be null). Recorded only on a
  /// successful CAS-min, i.e. when a worker genuinely lowered the global
  /// bound; the log's own monotonicity filter absorbs publication races.
  obs::IncumbentLog* incumbents = nullptr;
  // Aggregated per-worker profile effort (flushed once per worker, not per
  // node — the dfs hot loop makes no per-node atomic read-modify-write).
  std::atomic<std::uint64_t> profileUpdates{0};
  // Aggregated pruning counters, flushed per worker like the profile ones.
  std::atomic<std::uint64_t> prunedDominance{0};
  std::atomic<std::uint64_t> prunedSymmetry{0};
  std::atomic<std::uint64_t> prunedBound{0};

  [[nodiscard]] bool stopped() const {
    return stop.load(std::memory_order_relaxed) != kStopNone;
  }
  /// Latch a stop reason; only the first publisher's reason sticks.
  void publishStop(StopCode code) {
    std::uint8_t expected = kStopNone;
    stop.compare_exchange_strong(expected, code, std::memory_order_relaxed);
  }
};

/// A worker's chunk-local winner: the first leaf in its DFS order that
/// achieves the local lexicographic minimum of (energy cost, finish).
struct LocalBest {
  std::vector<Time> starts;
  Energy cost;
  Time finish;
  bool have = false;
  /// True while `have` reflects a warm-start phantom (empty `starts`)
  /// rather than a leaf this worker reached; cleared on first acceptance.
  bool phantom = false;
};

/// Folds `lb` into `acc` with the same strict-improvement rule the serial
/// DFS uses, so applying it in chunk order (= task-1 start-time order = the
/// serial DFS's outermost loop order) reproduces the serial winner.
void mergeBest(LocalBest& acc, LocalBest&& lb) {
  if (!lb.have) return;
  if (!acc.have || lb.cost < acc.cost ||
      (lb.cost == acc.cost && lb.finish < acc.finish)) {
    acc = std::move(lb);
  }
}

/// One DFS worker over a contiguous range of task-1 start times. Parallel
/// callers hand each worker its own Problem clone; nothing here mutates
/// state shared with other workers except the atomics in SearchShared.
class Worker {
 public:
  Worker(const Problem& problem, const std::vector<std::vector<Pair>>& touching,
         Time horizon, SearchShared& shared, const PruneConfig& prune,
         const guard::RunBudget& budget)
      : problem_(problem),
        touching_(touching),
        horizon_(horizon),
        shared_(shared),
        prune_(prune),
        // Each worker strides its own clock reads: one steady_clock::now()
        // per 1024 expanded nodes keeps deadline latency ~microseconds at
        // search speed while the clean-path overhead stays a branch.
        guard_(budget, 1024),
        prefix_(problem.backgroundPower(), problem.minPower(),
                problem.maxPower()),
        delays_(problem.taskDelays()),
        powers_(problem.taskPowers()),
        resources_(problem.taskResources()),
        starts_(problem.numVertices(), Time::zero()) {}

  ~Worker() {
    // Flush this worker's effort into the shared aggregates.
    shared_.nodesExplored.fetch_add(unflushedNodes_,
                                    std::memory_order_relaxed);
    shared_.profileUpdates.fetch_add(profileUpdates_,
                                     std::memory_order_relaxed);
    shared_.prunedDominance.fetch_add(prunedDominance_,
                                      std::memory_order_relaxed);
    shared_.prunedSymmetry.fetch_add(prunedSymmetry_,
                                     std::memory_order_relaxed);
    shared_.prunedBound.fetch_add(prunedBound_, std::memory_order_relaxed);
  }

  /// Explores task 1's start over [t1Lo, t1Hi] (inclusive, additionally
  /// clamped by the horizon), deeper tasks over the full horizon.
  void search(Time t1Lo, Time t1Hi) {
    t1Lo_ = t1Lo;
    t1Hi_ = t1Hi;
    dfs(1);
  }

  /// Pre-loads the local incumbent with the warm-start phantom
  /// (cost, finish + 1) so the cost-tie finish cut is armed from node 0.
  /// See ExhaustiveOptions::initialIncumbentFinish for the identity proof.
  void seedIncumbent(Energy cost, Time finish) {
    best_.starts.clear();
    best_.cost = cost;
    best_.finish = finish + Duration(1);
    best_.have = true;
    best_.phantom = true;
  }

  LocalBest takeBest() {
    // A phantom no leaf improved on must not escape: it has no starts and
    // only exists to prune. The chunk reports "nothing found" instead,
    // which is merge-identical — any unbeaten phantom is lex-above the
    // global winner, so cold search would discard this chunk's result too.
    if (best_.phantom) return LocalBest{};
    return std::move(best_);
  }

 private:
  void dfs(std::size_t k);
  void leaf();
  /// Incumbent-relative cost/finish pruning for the placed prefix [1..k]
  /// with energy-above `aboveMwt` and span end `prefixFinish`. With
  /// pruneBounds off this is exactly the baseline "prefix already costs
  /// more than the bound" check (uncounted); with it on, the remaining-
  /// task floor and the finish tie-break are added and rejections count
  /// into prunedBound_.
  bool costBoundPrunes(std::size_t k, std::int64_t aboveMwt,
                       Time prefixFinish);
  /// Mixes depth and the constraint-relevant placed starts; the caller
  /// then mixes the prefix-profile fingerprint on top.
  [[nodiscard]] Sig frontierSig(std::size_t k) const;
  /// Probes (and below the cap, populates) the dominance table.
  bool dominated(const Sig& sig);

  const Problem& problem_;
  const std::vector<std::vector<Pair>>& touching_;
  const Time horizon_;
  SearchShared& shared_;
  const PruneConfig prune_;
  guard::RunGuard guard_;
  power::ProfileEngine prefix_;  // profile of the placed tasks 1..k
  std::span<const Duration> delays_;
  std::span<const Watts> powers_;
  std::span<const ResourceId> resources_;
  std::unordered_set<Sig, SigHash> tt_;  // dominance transposition table
  /// Nodes expanded since the last add into shared_.nodesExplored, which
  /// the dfs makes once per kNodeFlushBatch nodes (and the destructor once
  /// more), not once per node.
  std::uint64_t unflushedNodes_ = 0;
  static constexpr std::uint64_t kNodeFlushBatch = 1024;
  std::uint64_t profileUpdates_ = 0;
  std::uint64_t prunedDominance_ = 0;
  std::uint64_t prunedSymmetry_ = 0;
  std::uint64_t prunedBound_ = 0;
  Time t1Lo_;
  Time t1Hi_;
  std::vector<Time> starts_;
  LocalBest best_;
};

bool Worker::costBoundPrunes(std::size_t k, std::int64_t aboveMwt,
                             Time prefixFinish) {
  const std::int64_t bound =
      shared_.bestCostMwt.load(std::memory_order_relaxed);
  if (!prune_.bounds) return aboveMwt > bound;
  const PruneTables& tb = *prune_.tables;
  // The shared bound only ever holds achieved leaf costs (>= the optimal
  // cost), and the floor only discards leaves strictly above it, so a
  // subtree containing the final winner is never cut.
  const std::int64_t costLb = aboveMwt + tb.suffixFloorMwt[k + 1];
  bool pruned = costLb > bound;
  if (!pruned && best_.have) {
    const std::int64_t bestMwt = best_.cost.milliwattTicks();
    if (costLb > bestMwt) {
      // Every leaf below costs strictly more than the local incumbent —
      // none can pass the strict-improvement rule.
      pruned = true;
    } else if (costLb == bestMwt) {
      // Cost can at best tie; the finish lower bound must then beat the
      // incumbent strictly for any leaf below to matter. On the path to
      // the lex-first optimal leaf, best_.finish is strictly larger than
      // that leaf's finish (an equal incumbent would be a lex-earlier
      // optimum), so that path is never cut here.
      const Time finishLb = std::max(prefixFinish, tb.tailFinish[k + 1]);
      pruned = finishLb >= best_.finish;
    }
  }
  if (pruned) ++prunedBound_;
  return pruned;
}

Sig Worker::frontierSig(std::size_t k) const {
  Sig s{0xcbf29ce484222325ULL, 0x9e3779b97f4a7c15ULL};
  power::ProfileEngine::mixHash(s.a, s.b, static_cast<std::uint64_t>(k));
  const PruneTables& tb = *prune_.tables;
  for (std::size_t i = 1; i <= k; ++i) {
    if (tb.lastDependent[i] <= k) continue;
    power::ProfileEngine::mixHash(s.a, s.b, static_cast<std::uint64_t>(i));
    power::ProfileEngine::mixHash(
        s.a, s.b, static_cast<std::uint64_t>(starts_[i].ticks()));
  }
  return s;
}

bool Worker::dominated(const Sig& sig) {
  if (tt_.size() >= kMaxDominanceEntries) {
    const bool hit = tt_.contains(sig);
    if (hit) ++prunedDominance_;
    return hit;
  }
  const bool repeat = !tt_.insert(sig).second;
  if (repeat) ++prunedDominance_;
  return repeat;
}

void Worker::dfs(std::size_t k) {
  if (shared_.stopped()) return;
  const std::size_t n = problem_.numVertices();
  if (k == n) {
    leaf();
    return;
  }
  const Duration delay = delays_[k];
  const Watts power = powers_[k];
  const ResourceId resource = resources_[k];
  Time lo = Time::zero();
  Time hi = horizon_ - delay;  // inclusive upper bound
  if (k == 1) {
    lo = std::max(lo, t1Lo_);
    hi = std::min(hi, t1Hi_);
  }
  const auto rangeSize = [](Time rlo, Time rhi) -> std::int64_t {
    const std::int64_t ticks = (rhi - rlo).ticks() + 1;
    return ticks > 0 ? ticks : 0;
  };
  if (prune_.bounds) {
    // Clamp to the task's static feasibility window; starts outside it
    // violate some user constraint in every completion.
    const PruneTables& tb = *prune_.tables;
    const std::int64_t before = rangeSize(lo, hi);
    lo = std::max(lo, tb.windowLo[k]);
    if (tb.hasHi[k]) hi = std::min(hi, tb.windowHi[k]);
    prunedBound_ += static_cast<std::uint64_t>(before - rangeSize(lo, hi));
  }
  if (prune_.symmetry) {
    const std::uint32_t prev = prune_.tables->prevEquiv[k];
    if (prev != 0) {
      // Canonical order inside a symmetry class: non-decreasing starts in
      // task-index order. The lex-first optimal leaf is the lex-smallest
      // member of its orbit, which is exactly the canonical one.
      const std::int64_t before = rangeSize(lo, hi);
      lo = std::max(lo, starts_[prev]);
      prunedSymmetry_ +=
          static_cast<std::uint64_t>(before - rangeSize(lo, hi));
    }
  }
  for (Time t = lo; t <= hi; t += Duration(1)) {
    // The budget sees every worker's flushed nodes plus this worker's
    // unflushed ones: with one worker, exactly the nodes expanded so far.
    ++unflushedNodes_;
    if (shared_.nodesExplored.load(std::memory_order_relaxed) +
            unflushedNodes_ >
        shared_.maxNodes) {
      shared_.publishStop(kStopNodeBudget);
      return;
    }
    if (unflushedNodes_ == kNodeFlushBatch) {
      shared_.nodesExplored.fetch_add(unflushedNodes_,
                                      std::memory_order_relaxed);
      unflushedNodes_ = 0;
    }
    if (guard_.poll() != guard::StopReason::kNone) {
      shared_.publishStop(guard_.reason() == guard::StopReason::kCancelled
                              ? kStopCancelled
                              : kStopDeadline);
      return;
    }
    starts_[k] = t;

    // Pairwise checks against placed tasks (anchor is placed at 0).
    bool violated = false;
    for (const Pair& pr : touching_[k]) {
      if (pr.other.index() >= k && pr.other != kAnchorTask) continue;
      const Time o = starts_[pr.other.index()];
      const Duration gap = pr.otherIsFrom ? (t - o) : (o - t);
      if (pr.isMin ? gap < pr.sep : gap > pr.sep) {
        violated = true;
        break;
      }
    }
    if (violated) continue;
    const Interval placed(t, t + delay);
    for (std::size_t j = 1; j < k && !violated; ++j) {
      if (resources_[j] != resource) continue;
      const Interval b(starts_[j], starts_[j] + delays_[j]);
      violated = placed.overlaps(b);
    }
    if (violated) continue;

    // Monotone power prunings on the placed prefix: the placement adds
    // task k to the prefix profile inside a checkpoint (one pass over the
    // segments its window touches) and the backtrack restores it. The
    // final profile dominates the prefix pointwise (tasks only add power,
    // and the final span only extends the background), so the prefix's
    // energy above pmin lower-bounds the final energy cost.
    const power::ProfileEngine::Checkpoint placement = prefix_.checkpoint();
    prefix_.addTask(TaskId(static_cast<std::uint32_t>(k)), placed, power);
    profileUpdates_ += 2;  // the placement and its backtrack
    bool pruned = prefix_.hasSpike();
    if (!pruned) {
      pruned = costBoundPrunes(k, prefix_.energyAbove().milliwattTicks(),
                               prefix_.finish());
    }
    if (!pruned && prune_.dominance && k + 1 < n) {
      Sig sig = frontierSig(k);
      prefix_.mixInto(sig.a, sig.b);
      pruned = dominated(sig);
    }
    if (pruned) {
      prefix_.restore(placement);
      continue;
    }
    dfs(k + 1);
    prefix_.restore(placement);
    if (shared_.stopped()) return;
  }
}

void Worker::leaf() {
  // The prefix holds every task's contribution here (k == n), i.e.
  // exactly profileOf(problem_, starts_).
  if (prefix_.hasSpike()) return;
  const Energy cost = prefix_.energyAbove();
  const Time finish = prefix_.finish();
  if (!best_.have || cost < best_.cost ||
      (cost == best_.cost && finish < best_.finish)) {
    best_.starts = starts_;
    best_.cost = cost;
    best_.finish = finish;
    best_.have = true;
    best_.phantom = false;
    // Publish to the shared pruning bound (CAS-min). Relaxed is enough:
    // the bound is a pruning accelerator, and a stale read merely prunes
    // less; every stored value is a genuinely achieved leaf cost.
    std::int64_t cur = shared_.bestCostMwt.load(std::memory_order_relaxed);
    while (cost.milliwattTicks() < cur) {
      if (shared_.bestCostMwt.compare_exchange_weak(
              cur, cost.milliwattTicks(), std::memory_order_relaxed)) {
        if (shared_.incumbents != nullptr) {
          shared_.incumbents->record(cost.milliwattTicks());
        }
        break;
      }
    }
  }
}

}  // namespace

ExhaustiveScheduler::ExhaustiveScheduler(const Problem& problem,
                                         ExhaustiveOptions options)
    : problem_(problem), options_(options) {}

ScheduleResult ExhaustiveScheduler::schedule() {
  ScheduleResult out;
  outcome_ = {};
  const std::size_t n = problem_.numVertices();

  // Horizon default: serial span (sum of delays) plus the largest declared
  // separation — any schedule worth considering for a small instance fits.
  Time horizon;
  if (options_.horizon) {
    horizon = *options_.horizon;
  } else {
    Duration total = Duration::zero();
    for (TaskId v : problem_.taskIds()) total += problem_.task(v).delay;
    Duration maxSep = Duration::zero();
    for (const TimingConstraint& c : problem_.constraints()) {
      maxSep = std::max(maxSep, c.separation);
    }
    horizon = Time::zero() + total + maxSep;
  }

  const std::vector<std::vector<Pair>> touching = buildTouching(problem_);
  PruneTables tables;
  PruneConfig prune;
  prune.tables = &tables;
  if (options_.pruneDominance || options_.pruneSymmetry ||
      options_.pruneBounds) {
    tables = buildPruneTables(problem_, horizon, touching);
    prune.dominance = options_.pruneDominance;
    prune.symmetry = options_.pruneSymmetry;
    prune.bounds = options_.pruneBounds;
  }
  SearchShared shared;
  shared.maxNodes = options_.maxNodes;
  shared.incumbents = options_.obs.incumbents;
  if (options_.initialIncumbent.has_value()) {
    // Warm start: prime the shared cost bound with the caller's known-valid
    // schedule cost (see ExhaustiveOptions::initialIncumbent for why this
    // keeps the result byte-identical). Not published to the incumbent
    // log — only costs achieved by leaves of this search are incumbents.
    shared.bestCostMwt.store(options_.initialIncumbent->milliwattTicks(),
                             std::memory_order_relaxed);
  }
  // With the seed's finish too, each worker's local incumbent can start as
  // the phantom (cost, finish + 1) and arm the cost-tie finish cut from
  // node 0 — the shared bound alone cannot cut cost ties. Identity proof
  // at ExhaustiveOptions::initialIncumbentFinish.
  const bool seedLocal = options_.initialIncumbent.has_value() &&
                         options_.initialIncumbentFinish.has_value();

  // Pin the relative timeout to one absolute deadline here, so every
  // worker (and any caller-nested stage) races the same clock.
  const guard::RunBudget budget = options_.budget.resolved();

  // Number of candidate start times for task 1 — the axis the parallel
  // split partitions.
  std::int64_t numT1 = 0;
  if (n >= 2) {
    numT1 = horizon.ticks() - problem_.task(TaskId(1)).delay.ticks() + 1;
  }

  const std::size_t jobs = exec::resolveJobs(options_.jobs);
  LocalBest best;
  if (jobs <= 1 || numT1 < 2) {
    // Serial: one worker over the whole range, on the calling thread.
    Worker w(problem_, touching, horizon, shared, prune, budget);
    if (seedLocal) {
      w.seedIncumbent(*options_.initialIncumbent,
                      *options_.initialIncumbentFinish);
    }
    w.search(Time::zero(), horizon);
    best = w.takeBest();
  } else {
    // More chunks than workers so an uneven subtree doesn't serialize the
    // tail; the chunk boundaries depend only on (numT1, jobs).
    const std::size_t numChunks = static_cast<std::size_t>(
        std::min<std::int64_t>(numT1, static_cast<std::int64_t>(jobs) * 4));
    exec::Pool pool(jobs);
    std::vector<LocalBest> results = exec::parallelMap(
        pool, numChunks, [&](std::size_t i) -> LocalBest {
          const std::int64_t lo =
              numT1 * static_cast<std::int64_t>(i) /
              static_cast<std::int64_t>(numChunks);
          const std::int64_t hi =
              numT1 * static_cast<std::int64_t>(i + 1) /
                  static_cast<std::int64_t>(numChunks) -
              1;
          const Problem clone = problem_;  // worker-private scratch
          Worker w(clone, touching, horizon, shared, prune, budget);
          if (seedLocal) {
            w.seedIncumbent(*options_.initialIncumbent,
                            *options_.initialIncumbentFinish);
          }
          w.search(Time::zero() + Duration(lo), Time::zero() + Duration(hi));
          return w.takeBest();
        });
    // Ordered reduction: chunk index order is task-1 start-time order, the
    // serial DFS's outermost loop — first winner on ties, like the DFS.
    for (LocalBest& lb : results) mergeBest(best, std::move(lb));
    if (options_.obs.metrics != nullptr) {
      pool.exportMetrics(*options_.obs.metrics);
    }
  }

  outcome_.nodesExplored =
      shared.nodesExplored.load(std::memory_order_relaxed);
  outcome_.prunedDominance =
      shared.prunedDominance.load(std::memory_order_relaxed);
  outcome_.prunedSymmetry =
      shared.prunedSymmetry.load(std::memory_order_relaxed);
  outcome_.prunedBound = shared.prunedBound.load(std::memory_order_relaxed);
  const auto stop =
      static_cast<StopCode>(shared.stop.load(std::memory_order_relaxed));
  outcome_.provenOptimal = stop == kStopNone;
  outcome_.stopReason = stop == kStopDeadline    ? guard::StopReason::kDeadline
                        : stop == kStopCancelled ? guard::StopReason::kCancelled
                                                 : guard::StopReason::kNone;
  if (options_.obs.metrics != nullptr) {
    options_.obs.metrics->add("exhaustive.nodes", outcome_.nodesExplored);
    options_.obs.metrics->add("exhaustive.pruned_dominance",
                              outcome_.prunedDominance);
    options_.obs.metrics->add("exhaustive.pruned_symmetry",
                              outcome_.prunedSymmetry);
    options_.obs.metrics->add("exhaustive.pruned_bound",
                              outcome_.prunedBound);
    options_.obs.metrics->add(
        "profile.incremental_updates",
        shared.profileUpdates.load(std::memory_order_relaxed));
    // The prefix profile is never rebuilt; the key stays so run reports
    // keep their shape.
    options_.obs.metrics->add("profile.rebuilds", 0);
    if (stop == kStopDeadline) {
      options_.obs.metrics->add("guard.deadline_trips", 1);
    } else if (stop == kStopCancelled) {
      options_.obs.metrics->add("guard.cancels", 1);
    }
  }

  if (outcome_.stopReason != guard::StopReason::kNone) {
    // Anytime result: the best incumbent found before the trip, flagged so
    // callers know it is not proven optimal.
    out.status = SchedStatus::kDeadlineExceeded;
    out.message = stop == kStopCancelled
                      ? "search cancelled"
                      : "wall-clock deadline exceeded";
    if (best.have) {
      out.schedule = Schedule(&problem_, best.starts);
      out.message += "; returning best incumbent (not proven optimal)";
      if (options_.obs.metrics != nullptr) {
        options_.obs.metrics->add("guard.incumbent_returned", 1);
      }
    } else {
      out.message += " before any valid schedule was found";
    }
    return out;
  }

  if (!best.have) {
    out.status = stop == kStopNodeBudget ? SchedStatus::kBudgetExhausted
                                         : SchedStatus::kPowerInfeasible;
    out.message = stop == kStopNodeBudget
                      ? "node budget exhausted before any valid schedule"
                      : "no valid schedule within the horizon";
    return out;
  }
  out.status = SchedStatus::kOk;
  out.schedule = Schedule(&problem_, best.starts);
  return out;
}

}  // namespace paws
