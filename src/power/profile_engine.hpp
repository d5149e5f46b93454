// ProfileEngine — a MUTABLE power profile with O(log n + touched segments)
// delta updates, incrementally maintained aggregates, and a trail-aligned
// checkpoint/restore undo log.
//
// PowerProfileBuilder rebuilds the whole piecewise-constant profile with an
// O(n log n) event sort; that was fine for one-shot evaluation but every
// scheduler's inner loop evaluates *moves*: delay one task, ask "still no
// spike? did utilization improve? what does the placed prefix cost?", and
// usually undo. This engine is the power-side twin of the rollback-aware
// LongestPathEngine (PR 2): the schedulers mutate it with addTask /
// removeTask / moveTask deltas instead of rebuilding, read every
// accept/reject quantity from cached aggregates in O(1)..O(log n), and
// bracket tentative mutations with checkpoint()/restore() exactly like the
// ConstraintGraph trail.
//
// Representation: a sorted breakpoint map `begin -> level` over [0, finish)
// (level includes the constant background draw), plus
//   * a multiset of task contribution end times (finish = max, matching
//     PowerProfileBuilder's span rule, which counts zero-power tasks);
//   * running integrals: total energy, energy above Pmin (the paper's
//     Ec_sigma(Pmin)), energy capped at Pmin (the utilization numerator);
//   * ordered sets of spike-segment (> Pmax) and gap-segment (< Pmin)
//     begin times — the first-spike / first-gap cursors;
//   * a start-time index of task intervals for activeAt() stabbing queries
//     (window-bounded by the largest task length seen).
//
// Thresholds are fixed per engine (background, Pmin, Pmax are constructor
// parameters): the schedulers always evaluate against the problem's own
// budgets, and fixing them is what makes the integrals maintainable as
// running sums. All arithmetic is the same fixed-point Time/Watts/Energy
// math the builder uses, so every aggregate is bit-identical to a fresh
// PowerProfileBuilder rebuild — the determinism contract the equivalence
// and property tests pin down.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "base/ids.hpp"
#include "base/interval.hpp"
#include "base/time.hpp"
#include "base/units.hpp"
#include "power/profile.hpp"

namespace paws {
class Problem;
}  // namespace paws

namespace paws::obs {
class MetricsRegistry;
}  // namespace paws::obs

namespace paws::power {

class ProfileEngine {
 public:
  ProfileEngine(Watts background, Watts pmin, Watts pmax);

  // ----- mutation ------------------------------------------------------

  /// Adds task `v`'s contribution of `watts` over `interval`. Mirrors
  /// PowerProfileBuilder::add: empty intervals and zero powers still extend
  /// the span to interval.end() but change no level. `v` must not be
  /// present.
  void addTask(TaskId v, Interval interval, Watts watts);

  /// Removes task `v`'s contribution entirely; `v` must be present.
  void removeTask(TaskId v);

  /// Moves task `v`'s interval to begin at `newStart` (same length, same
  /// power); `v` must be present.
  void moveTask(TaskId v, Time newStart);

  /// Clears everything and re-seeds from a start-time assignment (one
  /// contribution per real task, like profileOf). Counts as one rebuild.
  /// Must not be called while a checkpoint is open.
  void rebuild(const Problem& problem, const std::vector<Time>& starts);

  /// Empties the engine (no tasks, zero span). Must not be called while a
  /// checkpoint is open.
  void clear();

  // ----- queries (all served from cached state) ------------------------

  [[nodiscard]] Time finish() const { return finish_; }
  [[nodiscard]] bool hasTask(TaskId v) const;
  [[nodiscard]] Interval taskInterval(TaskId v) const;

  /// Instantaneous power at t; zero outside [0, finish). O(log n).
  [[nodiscard]] Watts valueAt(Time t) const;

  /// Highest instantaneous level (0 for an empty span). O(segments) —
  /// peak is a reporting quantity, not a scheduler inner-loop one, so it
  /// is not worth a per-mutation level-count index.
  [[nodiscard]] Watts peak() const;

  [[nodiscard]] Energy totalEnergy() const { return total_; }
  /// Ec(Pmin) = integral of max(0, P(t) - Pmin) dt. O(1).
  [[nodiscard]] Energy energyAbove() const { return above_; }
  /// Integral of min(P(t), Pmin) dt. O(1).
  [[nodiscard]] Energy energyCapped() const { return capped_; }
  /// rho(Pmin), with PowerProfile::utilization's conventions. O(1).
  [[nodiscard]] double utilization() const;

  /// Earliest t >= from with P(t) > Pmax. O(log n).
  [[nodiscard]] std::optional<Time> firstSpike(
      Time from = Time::minusInfinity()) const;
  /// Earliest t >= from with P(t) < Pmin. O(log n).
  [[nodiscard]] std::optional<Time> firstGap(Time from = Time::zero()) const;

  /// Maximal intervals with P(t) < Pmin, in time order — identical to
  /// PowerProfile::gaps(pmin). O(gap segments * log n).
  [[nodiscard]] std::vector<Interval> gaps() const;

  /// Tasks whose interval contains t, in increasing id order — the
  /// active-interval index behind MaxPowerScheduler's victim scans.
  /// O(log n + candidates in the stabbing window).
  [[nodiscard]] std::vector<TaskId> activeAt(Time t) const;

  /// Materializes the current profile with merged equal-power neighbours —
  /// byte-identical to PowerProfileBuilder::build on the same
  /// contributions. O(n).
  [[nodiscard]] PowerProfile snapshot() const;

  // ----- trail-aligned checkpoint / restore ----------------------------
  //
  // Same contract as LongestPathEngine: open a frame before tentative
  // mutations, restore() to undo them exactly (LIFO), release() to keep
  // them. Frames nest; rebuild()/clear() are forbidden while any frame is
  // open (the log could not replay across them). Mutations outside any
  // open frame are not logged.

  struct Checkpoint {
    std::size_t undoSize = 0;
  };

  [[nodiscard]] Checkpoint checkpoint();
  void restore(const Checkpoint& cp);
  void release(const Checkpoint& cp);

  // ----- observability -------------------------------------------------

  /// Adds the engine's effort counters to `registry`:
  ///   profile.rebuilds             full re-seeds (rebuild() calls)
  ///   profile.incremental_updates  addTask/removeTask/moveTask deltas
  ///   profile.restores             checkpoint frames undone
  void exportMetrics(obs::MetricsRegistry& registry) const;

  [[nodiscard]] std::uint64_t rebuilds() const { return rebuilds_; }
  [[nodiscard]] std::uint64_t incrementalUpdates() const { return updates_; }
  [[nodiscard]] std::uint64_t restores() const { return restores_; }

 private:
  struct Entry {
    Interval interval;
    Watts watts;
    bool present = false;
  };

  void addContribution(TaskId v, Interval interval, Watts watts, bool log);
  void removeContribution(TaskId v, bool log);
  /// Adds `delta` to every segment level in [b, e); b and e must already be
  /// breakpoints (or the span end).
  void applyDelta(Time b, Time e, Watts delta);
  /// Ensures a breakpoint at t (0 < t < finish) by splitting the segment
  /// containing it.
  void splitAt(Time t);
  /// Removes the breakpoint at t when its level equals its predecessor's.
  void coalesceAt(Time t);
  /// Grows the span to `newEnd`, appending a background-level segment.
  void extendTo(Time newEnd);
  /// Shrinks the span to `newEnd`; everything at/after newEnd must already
  /// be back at background level.
  void shrinkTo(Time newEnd);
  [[nodiscard]] Duration segmentLength(
      std::map<Time, Watts>::const_iterator it) const;
  /// Adds/removes one segment instance to the spike/gap cursors (no
  /// energy change — used by split/coalesce too).
  void registerSegment(Time begin, Watts level);
  void unregisterSegment(Time begin, Watts level);
  /// Adds (or subtracts) one segment's contribution to the running
  /// integrals.
  void energyDelta(Watts level, Duration length, bool add);

  const Watts background_;
  const Watts pmin_;
  const Watts pmax_;

  Time finish_ = Time::zero();
  std::map<Time, Watts> level_;                   // segment begin -> level
  std::multiset<Time> ends_;                      // all contribution ends
  Energy total_;
  Energy above_;
  Energy capped_;
  std::set<Time> spikeStarts_;                    // segment begins > pmax
  std::set<Time> gapStarts_;                      // segment begins < pmin
  std::multimap<Time, TaskId> byStart_;           // active-interval index
  Duration maxTaskLength_ = Duration::zero();     // stabbing window bound
  std::vector<Entry> tasks_;                      // indexed by TaskId

  struct Undo {
    enum class Op : std::uint8_t { kAdd, kRemove };
    Op op;
    TaskId task;
    Interval interval;
    Watts watts;
  };
  std::vector<Undo> undoLog_;
  std::size_t openCheckpoints_ = 0;

  std::uint64_t rebuilds_ = 0;
  std::uint64_t updates_ = 0;
  std::uint64_t restores_ = 0;
};

}  // namespace paws::power
