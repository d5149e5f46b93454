// Power profiles P_sigma(t) and the paper's power properties (Section 4.2).
//
// A profile is the system-level instantaneous power drawn while a schedule
// executes: the sum of every active task's power plus the constant
// background draw. It is piecewise constant with breakpoints only at task
// starts/ends, so we store it as sorted half-open segments and evaluate all
// integrals exactly in fixed point:
//
//   * energy cost     Ec_sigma(Pmin)  = integral of max(0, P(t) - Pmin) dt
//     (energy that must come from the costly source, e.g. battery);
//   * min-power utilization rho_sigma(Pmin)
//                     = integral of min(P(t), Pmin) dt / (Pmin * tau)
//     (fraction of the free energy actually consumed);
//   * power spikes: maximal intervals with P(t) > Pmax (hard violations);
//   * power gaps:   maximal intervals with P(t) < Pmin (soft violations).
#pragma once

#include <iosfwd>
#include <optional>
#include <vector>

#include "base/interval.hpp"
#include "base/time.hpp"
#include "base/units.hpp"

namespace paws {

/// One piecewise-constant piece of a profile.
struct PowerSegment {
  Interval interval;
  Watts power;
};

class PowerProfile;

/// Accumulates (interval, power) contributions and produces a profile.
class PowerProfileBuilder {
 public:
  /// Adds a contribution of `power` over `interval` (empty intervals and
  /// zero powers are legal and ignored at build time).
  void add(Interval interval, Watts power);

  /// Builds the profile over [0, end) where `end` is the latest contribution
  /// end (or 0 if none). `background` is added across the whole span.
  [[nodiscard]] PowerProfile build(Watts background = Watts::zero()) const;

 private:
  struct Event {
    Time at;
    Watts delta;
  };
  std::vector<Event> events_;
  Time maxEnd_ = Time::zero();
};

class PowerProfile {
 public:
  PowerProfile() = default;

  /// Segments in increasing time order; contiguous (no holes), covering
  /// [0, finish), with equal-power neighbours merged.
  [[nodiscard]] const std::vector<PowerSegment>& segments() const {
    return segments_;
  }

  /// End of the profile span (the schedule finish time tau).
  [[nodiscard]] Time finish() const { return finish_; }
  [[nodiscard]] bool empty() const { return segments_.empty(); }

  /// Instantaneous power at time t; zero outside [0, finish).
  [[nodiscard]] Watts valueAt(Time t) const;

  /// Highest instantaneous power (zero for an empty profile).
  [[nodiscard]] Watts peak() const;

  /// Total energy = integral of P(t) dt over the whole span.
  [[nodiscard]] Energy totalEnergy() const;

  /// Energy cost Ec(Pmin): integral of max(0, P(t) - pmin) dt.
  [[nodiscard]] Energy energyAbove(Watts pmin) const;

  /// Ec restricted to `window` (for attributing cost to mission phases or
  /// unrolled loop iterations).
  [[nodiscard]] Energy energyAboveWithin(Watts pmin, Interval window) const;

  /// Integral of min(P(t), cap) dt — the free energy actually used.
  [[nodiscard]] Energy energyCappedAt(Watts cap) const;

  /// rho(Pmin) in [0, 1]; defined as 1 when pmin == 0 or the span is empty
  /// (conventional energy minimization is the Pmin = 0 special case).
  [[nodiscard]] double utilization(Watts pmin) const;

  /// Maximal intervals where P(t) > pmax (hard max-power violations).
  [[nodiscard]] std::vector<Interval> spikes(Watts pmax) const;

  /// Earliest time t >= `from` with P(t) > pmax, if any. The default
  /// `from` covers the whole span; schedulers repairing a mid-flight plan
  /// pass the repair instant so unfixable historical spikes are tolerated.
  [[nodiscard]] std::optional<Time> firstSpike(
      Watts pmax, Time from = Time::minusInfinity()) const;

  /// Maximal intervals where P(t) < pmin (soft min-power violations).
  [[nodiscard]] std::vector<Interval> gaps(Watts pmin) const;

  /// Earliest time t with P(t) < pmin at or after `from`, if any.
  [[nodiscard]] std::optional<Time> firstGap(Watts pmin,
                                             Time from = Time::zero()) const;

  /// Largest instantaneous power change across any breakpoint (power
  /// jitter — the secondary motivation for the min power constraint).
  [[nodiscard]] Watts maxStep() const;

 private:
  friend class PowerProfileBuilder;
  std::vector<PowerSegment> segments_;
  Time finish_ = Time::zero();
};

std::ostream& operator<<(std::ostream& os, const PowerProfile& profile);

}  // namespace paws
