#include "power/prefix_profile.hpp"

#include <algorithm>

#include "base/check.hpp"

namespace paws::power {

PrefixProfile::PrefixProfile(Watts background, Watts pmin, Watts pmax)
    : background_(background), pmin_(pmin), pmax_(pmax) {}

void PrefixProfile::push(Interval interval, Watts watts) {
  const bool adds = !interval.empty() && !watts.isZero();
  if (adds) {
    PAWS_CHECK_MSG(interval.begin() >= Time::zero(),
                   "profile contributions must start at/after 0, got "
                       << interval.begin());
    PAWS_CHECK_MSG(watts > Watts::zero(),
                   "prefix contributions must draw power, got " << watts);
  }
  const Time newEnd = std::max(finish_, interval.end());
  // The window the contribution raises; a contribution that changes no
  // level gets a window no segment reaches.
  const Time lo = adds ? interval.begin() : newEnd;
  const Time hi = adds ? interval.end() : newEnd;

  // Rebuild from the segment holding the instant before `lo` through the
  // first segment starting at/after `hi` — or to the end when the span
  // grows. Equal levels can only meet at the window's edges, and these
  // two neighbours cover both.
  const auto beginsBefore = [](const Segment& s, Time t) {
    return s.begin < t;
  };
  const Segment* const live = segs_.data();
  std::size_t first = static_cast<std::size_t>(
      std::lower_bound(live, live + count_, lo, beginsBefore) - live);
  if (first > 0) --first;
  const std::size_t atHi = static_cast<std::size_t>(
      std::lower_bound(live + first, live + count_, hi, beginsBefore) - live);
  const std::size_t stop =
      newEnd > finish_ || atHi == count_ ? count_ : atHi + 1;

  // A push adds at most two breakpoints (the window's edges, or the old
  // finish and `lo` when the contribution lies past it).
  if (window_.size() < stop - first + 2) window_.resize(stop - first + 2);
  if (segs_.size() < count_ + 2) segs_.resize(2 * count_ + 2);
  if (saved_.size() < savedCount_ + (stop - first)) {
    saved_.resize(2 * (savedCount_ + (stop - first)));
  }
  std::size_t rebuilt = 0;
  Energy added;
  Energy removed;
  bool spike = false;
  const auto emit = [&](Time b, Time e, Watts level) {
    if (e <= b) return;
    if (level > pmin_) added += (level - pmin_) * (e - b);
    spike = spike || level > pmax_;
    if (rebuilt == 0 || window_[rebuilt - 1].level != level) {
      window_[rebuilt++] = Segment{b, level};
    }
  };
  // A piece [b, e) of the old profile, split at the window [lo, hi).
  const auto piece = [&](Time b, Time e, Watts level) {
    emit(b, std::min(e, lo), level);
    emit(std::max(b, lo), std::min(e, hi), level + watts);
    emit(std::max(b, hi), e, level);
  };
  for (std::size_t i = first; i < stop; ++i) {
    const Time b = segs_[i].begin;
    const Time e = i + 1 < count_ ? segs_[i + 1].begin : finish_;
    const Watts level = segs_[i].level;
    if (level > pmin_) removed += (level - pmin_) * (e - b);
    piece(b, e, level);
  }
  piece(finish_, newEnd, background_);  // span growth, at background

  undo_.push_back(Undo{finish_, above_, spike_, first, stop - first, rebuilt});
  std::copy(segs_.data() + first, segs_.data() + stop,
            saved_.data() + savedCount_);
  savedCount_ += stop - first;
  splice(first, stop - first, window_.data(), rebuilt);
  finish_ = newEnd;
  above_ = above_ - removed + added;
  // Levels only rise, so a spike stays a spike.
  spike_ = spike_ || spike;
}

void PrefixProfile::pop() {
  PAWS_CHECK(!undo_.empty());
  const Undo u = undo_.back();
  undo_.pop_back();
  savedCount_ -= u.removed;
  splice(u.at, u.inserted, saved_.data() + savedCount_, u.removed);
  finish_ = u.finish;
  above_ = u.above;
  spike_ = u.spike;
}

void PrefixProfile::splice(std::size_t at, std::size_t count,
                           const Segment* with, std::size_t n) {
  // segs_ has room: a push grows the list by at most two segments, and a
  // pop only returns it to a length it had.
  Segment* const data = segs_.data();
  if (n > count) {
    std::copy_backward(data + at + count, data + count_,
                       data + count_ + (n - count));
  } else if (n < count) {
    std::copy(data + at + count, data + count_, data + at + n);
  }
  std::copy(with, with + n, data + at);
  count_ = count_ - count + n;
}

void PrefixProfile::mixInto(std::uint64_t& h1, std::uint64_t& h2) const {
  mixHash(h1, h2, static_cast<std::uint64_t>(finish_.ticks()));
  for (const Segment& s : segments()) {
    mixHash(h1, h2, static_cast<std::uint64_t>(s.begin.ticks()));
    mixHash(h1, h2, static_cast<std::uint64_t>(s.level.milliwatts()));
  }
}

}  // namespace paws::power
