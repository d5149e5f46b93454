#include "power/profile.hpp"

#include <algorithm>
#include <ostream>

#include "base/check.hpp"

namespace paws {

void PowerProfileBuilder::add(Interval interval, Watts power) {
  if (interval.empty() || power.isZero()) {
    if (interval.end() > maxEnd_) maxEnd_ = interval.end();
    return;
  }
  PAWS_CHECK_MSG(interval.begin() >= Time::zero(),
                 "profile contributions must start at/after 0, got "
                     << interval.begin());
  events_.push_back(Event{interval.begin(), power});
  events_.push_back(Event{interval.end(), -power});
  if (interval.end() > maxEnd_) maxEnd_ = interval.end();
}

PowerProfile PowerProfileBuilder::build(Watts background) const {
  PowerProfile profile;
  profile.finish_ = maxEnd_;
  if (maxEnd_ <= Time::zero()) return profile;

  std::vector<Event> events = events_;
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.at < b.at; });

  Watts level = background;
  Time cursor = Time::zero();
  std::size_t i = 0;
  auto emit = [&profile](Time from, Time to, Watts power) {
    if (to <= from) return;
    if (!profile.segments_.empty() &&
        profile.segments_.back().power == power &&
        profile.segments_.back().interval.end() == from) {
      // Merge with the previous equal-power segment.
      profile.segments_.back().interval =
          Interval(profile.segments_.back().interval.begin(), to);
      return;
    }
    profile.segments_.push_back(PowerSegment{Interval(from, to), power});
  };

  while (i < events.size()) {
    const Time at = events[i].at;
    emit(cursor, std::min(at, maxEnd_), level);
    Watts delta;
    while (i < events.size() && events[i].at == at) {
      delta += events[i].delta;
      ++i;
    }
    level += delta;
    cursor = std::max(cursor, std::min(at, maxEnd_));
  }
  emit(cursor, maxEnd_, level);
  return profile;
}

Watts PowerProfile::valueAt(Time t) const {
  if (t < Time::zero() || t >= finish_) return Watts::zero();
  // Binary search over contiguous segments.
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), t,
      [](Time t, const PowerSegment& s) { return t < s.interval.end(); });
  if (it == segments_.end() || !it->interval.contains(t)) return Watts::zero();
  return it->power;
}

Watts PowerProfile::peak() const {
  Watts best = Watts::zero();
  for (const PowerSegment& s : segments_) best = std::max(best, s.power);
  return best;
}

Energy PowerProfile::totalEnergy() const {
  Energy total;
  for (const PowerSegment& s : segments_) {
    total += s.power * s.interval.length();
  }
  return total;
}

Energy PowerProfile::energyAbove(Watts pmin) const {
  Energy total;
  for (const PowerSegment& s : segments_) {
    if (s.power > pmin) total += (s.power - pmin) * s.interval.length();
  }
  return total;
}

Energy PowerProfile::energyAboveWithin(Watts pmin, Interval window) const {
  Energy total;
  for (const PowerSegment& s : segments_) {
    if (s.power <= pmin) continue;
    const Interval overlap = s.interval.intersect(window);
    if (!overlap.empty()) total += (s.power - pmin) * overlap.length();
  }
  return total;
}

Energy PowerProfile::energyCappedAt(Watts cap) const {
  Energy total;
  for (const PowerSegment& s : segments_) {
    total += std::min(s.power, cap) * s.interval.length();
  }
  return total;
}

double PowerProfile::utilization(Watts pmin) const {
  if (pmin <= Watts::zero() || finish_ <= Time::zero()) return 1.0;
  const Energy available = pmin * (finish_ - Time::zero());
  return energyCappedAt(pmin).ratioOf(available);
}

std::vector<Interval> PowerProfile::spikes(Watts pmax) const {
  std::vector<Interval> result;
  for (const PowerSegment& s : segments_) {
    if (s.power <= pmax) continue;
    if (!result.empty() && result.back().end() == s.interval.begin()) {
      result.back() = Interval(result.back().begin(), s.interval.end());
    } else {
      result.push_back(s.interval);
    }
  }
  return result;
}

std::optional<Time> PowerProfile::firstSpike(Watts pmax, Time from) const {
  for (const PowerSegment& s : segments_) {
    if (s.interval.end() <= from) continue;
    if (s.power > pmax) return std::max(s.interval.begin(), from);
  }
  return std::nullopt;
}

std::vector<Interval> PowerProfile::gaps(Watts pmin) const {
  std::vector<Interval> result;
  for (const PowerSegment& s : segments_) {
    if (s.power >= pmin) continue;
    if (!result.empty() && result.back().end() == s.interval.begin()) {
      result.back() = Interval(result.back().begin(), s.interval.end());
    } else {
      result.push_back(s.interval);
    }
  }
  return result;
}

std::optional<Time> PowerProfile::firstGap(Watts pmin, Time from) const {
  for (const PowerSegment& s : segments_) {
    if (s.interval.end() <= from) continue;
    if (s.power < pmin) return std::max(s.interval.begin(), from);
  }
  return std::nullopt;
}

Watts PowerProfile::maxStep() const {
  Watts best = Watts::zero();
  Watts prev = Watts::zero();
  for (const PowerSegment& s : segments_) {
    const Watts step = s.power > prev ? s.power - prev : prev - s.power;
    best = std::max(best, step);
    prev = s.power;
  }
  // Final drop back to zero at the end of the span.
  best = std::max(best, prev);
  return best;
}

std::ostream& operator<<(std::ostream& os, const PowerProfile& profile) {
  os << "profile{";
  for (std::size_t i = 0; i < profile.segments().size(); ++i) {
    if (i) os << ", ";
    const PowerSegment& s = profile.segments()[i];
    os << s.interval << '=' << s.power;
  }
  return os << '}';
}

}  // namespace paws
