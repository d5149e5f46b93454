// ProfileEngine — a MUTABLE power profile: one flat, merged (begin, level)
// segment list with incrementally maintained aggregates and a
// checkpoint/restore undo log.
//
// PowerProfileBuilder rebuilds the whole piecewise-constant profile with an
// O(n log n) event sort; that is fine for one-shot evaluation, but every
// scheduler's inner loop evaluates *moves*: delay one task, ask "still no
// spike? did utilization improve? what does the placed prefix cost?", and
// usually undo. This engine is the power-side twin of the rollback-aware
// LongestPathEngine: the max-power and min-power schedulers mutate it with
// addTask / removeTask / moveTask and bracket tentative mutations with
// checkpoint()/restore() exactly like the ConstraintGraph trail; the
// exhaustive search opens a checkpoint and adds one task per placement,
// and restores it on backtrack.
//
// Representation: the merged segments covering [0, finish), each holding
// its level (background draw included) up to the next segment's begin,
// plus a per-task array of intervals and powers. A mutation rebuilds only
// the window it touches, in one pass over the segments it overlaps (plus
// one neighbour on each side, where equal levels can merge). The same pass
// updates the cached aggregates: the finish (empty and zero-power tasks
// still extend it, matching PowerProfileBuilder's span rule), Ec(Pmin) and
// the number of segments above Pmax; the tasks' summed energy, kept beside
// them, turns Ec(Pmin) into the capped integral behind rho(Pmin). A
// mutation made inside an open checkpoint saves the stretch it replaced,
// so restore() splices it back.
//
// Thresholds are fixed per engine (background, Pmin, Pmax are constructor
// parameters): the schedulers always evaluate against the problem's own
// budgets, and fixing them is what makes the integrals maintainable as
// running sums. All arithmetic is the same fixed-point Time/Watts/Energy
// math the builder uses, so the segments and every aggregate are
// bit-identical to a fresh PowerProfileBuilder rebuild — the determinism
// contract tests/properties/profile_engine_properties_test.cpp pins down.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "base/ids.hpp"
#include "base/interval.hpp"
#include "base/time.hpp"
#include "base/units.hpp"

namespace paws {
class Problem;
}  // namespace paws

namespace paws::power {

class ProfileEngine {
 public:
  /// One merged piece: the level holds from `begin` to the next segment's
  /// begin (or the finish). Levels include the background draw.
  struct Segment {
    Time begin;
    Watts level;
  };

  ProfileEngine(Watts background, Watts pmin, Watts pmax);

  // ----- mutation ------------------------------------------------------

  /// Adds task `v`'s contribution of `watts` over `interval`. Mirrors
  /// PowerProfileBuilder::add: empty intervals and zero powers still extend
  /// the span to interval.end() but change no level; any other
  /// contribution must start at/after 0. `v` must not be present.
  void addTask(TaskId v, Interval interval, Watts watts);

  /// Removes task `v`'s contribution entirely; `v` must be present.
  void removeTask(TaskId v);

  /// Moves task `v`'s interval to begin at `newStart` (same length, same
  /// power); `v` must be present. One update, over the hull of the old and
  /// new intervals.
  void moveTask(TaskId v, Time newStart);

  /// Clears everything and re-seeds from a start-time assignment (one
  /// contribution per real task, like profileOf). Counts as one rebuild.
  /// Must not be called while a checkpoint is open.
  void rebuild(const Problem& problem, const std::vector<Time>& starts);

  // ----- queries -------------------------------------------------------

  /// The merged segments, covering [0, finish) in time order.
  [[nodiscard]] std::span<const Segment> segments() const {
    return {segs_.data(), count_};
  }
  [[nodiscard]] Time finish() const { return finish_; }
  [[nodiscard]] Interval taskInterval(TaskId v) const;

  /// Instantaneous power at t; zero outside [0, finish). O(log segments).
  [[nodiscard]] Watts valueAt(Time t) const;

  /// Ec(Pmin) = integral of max(0, P(t) - Pmin) dt. O(1).
  [[nodiscard]] Energy energyAbove() const { return above_; }
  /// rho(Pmin), with PowerProfile::utilization's conventions. O(1).
  [[nodiscard]] double utilization() const;

  /// True when some instant of the span draws more than Pmax. O(1).
  [[nodiscard]] bool hasSpike() const { return spikes_ > 0; }
  /// Earliest t >= from with P(t) > Pmax — PowerProfile::firstSpike. O(1)
  /// without spikes, else a scan from the segment holding `from`.
  [[nodiscard]] std::optional<Time> firstSpike(
      Time from = Time::minusInfinity()) const;

  /// Maximal intervals with P(t) < Pmin, in time order — identical to
  /// PowerProfile::gaps(pmin). One scan of the segments.
  [[nodiscard]] std::vector<Interval> gaps() const;

  /// Tasks whose interval contains t, in increasing id order — the victim
  /// set of MaxPowerScheduler. One scan of the per-task array.
  [[nodiscard]] std::vector<TaskId> activeAt(Time t) const;

  /// One step of the two-stream 64-bit mix used for search-state
  /// fingerprints (FNV-1a-style streams with distinct constants; 128 bits
  /// total so accidental collisions are out of reach for any realistic
  /// search).
  static constexpr void mixHash(std::uint64_t& h1, std::uint64_t& h2,
                                std::uint64_t x) {
    h1 = (h1 ^ x) * 0x100000001b3ULL;
    h2 = (h2 ^ (x + 0x9e3779b97f4a7c15ULL)) * 0xc2b2ae3d27d4eb4fULL;
  }

  /// Mixes the profile into the two streams: the finish, then each
  /// segment's (begin, level). Segments are merged, so the fingerprint is
  /// a pure function of the profile as a function of time.
  void mixInto(std::uint64_t& h1, std::uint64_t& h2) const;

  // ----- trail-aligned checkpoint / restore ----------------------------
  //
  // Same contract as LongestPathEngine: open a frame before tentative
  // mutations, restore() to undo them exactly (LIFO), release() to keep
  // them. Frames nest; rebuild() is forbidden while any frame is open (the
  // log could not replay across it). Mutations outside any open frame are
  // not logged.

  struct Checkpoint {
    std::size_t undoSize = 0;
  };

  [[nodiscard]] Checkpoint checkpoint() {
    ++openCheckpoints_;
    return Checkpoint{undoCount_};
  }
  void restore(const Checkpoint& cp);
  void release(const Checkpoint& cp);

  // ----- effort counters (published by the schedulers as profile.*) ----

  /// Full re-seeds (rebuild() calls).
  [[nodiscard]] std::uint64_t rebuilds() const { return rebuilds_; }
  /// addTask/removeTask/moveTask calls that changed a task.
  [[nodiscard]] std::uint64_t incrementalUpdates() const { return updates_; }
  /// Checkpoint frames undone.
  [[nodiscard]] std::uint64_t restores() const { return restores_; }

 private:
  /// A task's interval [begin, end), its power, and whether it is in the
  /// profile.
  struct Entry {
    Time begin;
    Time end;
    Watts watts;
    bool present = false;
  };

  /// Gives task `v` the entry (present, [begin, end), watts): rebuilds the
  /// window its old and new contributions and the span change touch, and
  /// logs the replaced stretch when `log` and a frame is open. The caller
  /// says whether `v` is present, so an addition (every placement of the
  /// exhaustive search) compiles without the removal half.
  template <bool kWasPresent>
  void update(TaskId v, bool present, Time begin, Time end, Watts watts,
              bool log);
  /// Replaces segments [at, at + count) with the `n` segments at `with`.
  void splice(std::size_t at, std::size_t count, const Segment* with,
              std::size_t n);

  const Watts background_;
  const Watts pmin_;
  const Watts pmax_;

  Time finish_ = Time::zero();
  Energy above_;
  Energy taskEnergy_;        // sum of watts * length over present tasks
  std::uint32_t spikes_ = 0;  // segments above Pmax
  // The buffers below only grow, so no mutation allocates once the
  // profile has reached its largest size.
  std::vector<Segment> segs_;  // the profile: [0, count_)
  std::size_t count_ = 0;
  std::vector<Entry> tasks_;   // indexed by TaskId

  /// One logged mutation: the aggregates and task `task`'s entry before
  /// it, and the stretch [at, at + inserted) of the segments that replaced
  /// `removed` segments now saved at the end of saved_.
  struct Undo {
    Time finish;
    Energy above;
    Energy taskEnergy;
    std::uint32_t spikes = 0;
    std::uint32_t at = 0;
    std::uint32_t removed = 0;
    std::uint32_t inserted = 0;
    TaskId task;
    Entry entry;
  };
  std::vector<Undo> undo_;       // logged mutations: [0, undoCount_)
  std::size_t undoCount_ = 0;
  std::vector<Segment> saved_;   // the stretches they replaced:
  std::size_t savedCount_ = 0;   // [0, savedCount_)
  std::vector<Segment> window_;  // a mutation's rebuilt stretch
  std::size_t openCheckpoints_ = 0;

  std::uint64_t rebuilds_ = 0;
  std::uint64_t updates_ = 0;
  std::uint64_t restores_ = 0;
};

}  // namespace paws::power
