// PrefixProfile — the placed-prefix power profile of a depth-first search,
// as a stack: push adds the next task's contribution, pop undoes the most
// recent push.
//
// The exhaustive search places tasks in a fixed order and undoes them in
// LIFO order, so its prefix profile never needs a general delete. The
// profile is one flat, merged (begin, level) segment list. A push touches
// only the contribution's window: one linear pass over the segments it
// overlaps (plus one neighbour on each side, where equal levels can merge)
// rebuilds that stretch and yields the change in the energy above Pmin
// and in the spike flag; the finish is a max. The replaced stretch is
// saved, so a pop splices it back and restores the cached aggregates.
// Memory is the current list plus the stretches the open pushes replaced,
// so a deep search does not hold a full profile copy per depth.
//
// The profile always equals PowerProfileBuilder::build of the same
// contributions as a function of time: the same merged segments, the same
// finish (empty and zero-power contributions still extend the span), the
// same fixed-point energy above Pmin and the same "some level above Pmax"
// verdict (tests/properties/prefix_profile_properties_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "base/interval.hpp"
#include "base/time.hpp"
#include "base/units.hpp"

namespace paws::power {

class PrefixProfile {
 public:
  /// One merged piece: the level holds from `begin` to the next segment's
  /// begin (or the finish). Levels include the background draw.
  struct Segment {
    Time begin;
    Watts level;
  };

  /// The empty profile (depth 0: no contributions, zero span) under fixed
  /// background and thresholds.
  PrefixProfile(Watts background, Watts pmin, Watts pmax);

  /// Adds `watts` over `interval`. Mirrors PowerProfileBuilder::add: an
  /// empty interval or a zero power only extends the span to
  /// interval.end(); any other contribution must start at/after 0. Powers
  /// must not be negative (task powers never are).
  void push(Interval interval, Watts watts);

  /// Undoes the most recent push; depth() must be positive.
  void pop();

  /// Number of contributions pushed and not popped.
  [[nodiscard]] std::size_t depth() const { return undo_.size(); }
  [[nodiscard]] Time finish() const { return finish_; }
  /// Ec(Pmin) = integral of max(0, P(t) - Pmin) dt over [0, finish).
  [[nodiscard]] Energy energyAbove() const { return above_; }
  /// True when some instant of the span draws more than Pmax.
  [[nodiscard]] bool hasSpike() const { return spike_; }
  /// The merged segments, covering [0, finish) in time order.
  [[nodiscard]] std::span<const Segment> segments() const {
    return {segs_.data(), count_};
  }

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

 private:
  /// What one push changed: the aggregates before it, and the stretch
  /// [at, at + inserted) of segs_ that replaced `removed` segments now
  /// saved at the end of saved_.
  struct Undo {
    Time finish;
    Energy above;
    bool spike = false;
    std::size_t at = 0;
    std::size_t removed = 0;
    std::size_t inserted = 0;
  };

  /// Replaces segments [at, at + count) with the `n` segments at `with`.
  void splice(std::size_t at, std::size_t count, const Segment* with,
              std::size_t n);

  const Watts background_;
  const Watts pmin_;
  const Watts pmax_;
  Time finish_ = Time::zero();
  Energy above_;
  bool spike_ = false;
  // Buffers only grow, so no push or pop allocates once the search has
  // reached its deepest profile.
  std::vector<Segment> segs_;    // the current profile: [0, count_)
  std::size_t count_ = 0;
  std::vector<Segment> saved_;   // stretches open pushes replaced
  std::size_t savedCount_ = 0;
  std::vector<Undo> undo_;       // one per open push
  std::vector<Segment> window_;  // a push's rebuilt stretch
};

}  // namespace paws::power
