#include "power/profile_engine.hpp"

#include <algorithm>
#include <array>

#include "base/check.hpp"
#include "model/problem.hpp"

namespace paws::power {

namespace {

bool changesLevel(Time begin, Time end, Watts watts) {
  return begin < end && !watts.isZero();
}

}  // namespace

ProfileEngine::ProfileEngine(Watts background, Watts pmin, Watts pmax)
    : background_(background), pmin_(pmin), pmax_(pmax) {}

// ----- mutation ----------------------------------------------------------

template <bool kWasPresent>
void ProfileEngine::update(TaskId v, bool present, Time begin, Time end,
                           Watts watts, bool log) {
  if constexpr (!kWasPresent) {
    if (v.index() >= tasks_.size()) tasks_.resize(v.index() + 1);
    PAWS_CHECK_MSG(!tasks_[v.index()].present,
                   "task " << v.value() << " already in the profile");
  }
  Entry& slot = tasks_[v.index()];
  const Time wasBegin = kWasPresent ? slot.begin : Time();
  const Time wasEnd = kWasPresent ? slot.end : Time();
  const Watts wasWatts = kWasPresent ? slot.watts : Watts();
  const bool removes = kWasPresent && changesLevel(wasBegin, wasEnd, wasWatts);
  const bool adds = present && changesLevel(begin, end, watts);
  if (adds) {
    PAWS_CHECK_MSG(begin >= Time::zero(),
                   "profile contributions must start at/after 0, got "
                       << begin);
  }

  // The change as pieces: lift[j] holds up to upTo[j] (from the previous
  // piece's end); the last piece never ends. A move keeps its length and
  // power, so its two windows cancel wherever they overlap.
  std::array<Time, 5> upTo;
  std::array<Watts, 5> lift;
  std::size_t cuts = 0;
  if (removes && adds) {
    const bool right = wasBegin < begin;
    const Time early = right ? wasBegin : begin;
    const Time late = right ? begin : wasBegin;
    const Duration length = end - begin;
    upTo = {early, std::min(early + length, late),
            std::max(early + length, late), late + length, Time::max()};
    lift[1] = right ? -watts : watts;
    lift[3] = -lift[1];
    cuts = 4;
  } else if (removes || adds) {
    upTo = {removes ? wasBegin : begin, removes ? wasEnd : end, Time::max()};
    lift[1] = removes ? -wasWatts : watts;
    cuts = 2;
  } else {
    upTo[0] = upTo[1] = Time::max();
  }

  // The span is max(0, latest end over present tasks). It only shrinks
  // when `v` held it and now ends earlier (or leaves).
  const Time spanEnd = present ? end : Time::minusInfinity();
  Time newFinish = std::max(finish_, spanEnd);
  if (kWasPresent && wasEnd == finish_ && spanEnd < finish_) {
    newFinish = std::max(Time::zero(), spanEnd);
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      if (i != v.index() && tasks_[i].present) {
        newFinish = std::max(newFinish, tasks_[i].end);
      }
    }
  }

  // Rebuild from the segment holding the instant before the window through
  // the first segment starting at/after its end — or through the last
  // segment when the span changes. Equal levels can only meet at the
  // window's edges, and these two neighbours cover both. A change that
  // moves no level gets a window at the span end.
  Time lo = cuts > 0 ? upTo[0] : newFinish;
  const Time hi = cuts > 0 ? upTo[cuts - 1] : newFinish;
  if (newFinish != finish_) lo = std::min({lo, finish_, newFinish});
  const auto beginsBefore = [](const Segment& s, Time t) {
    return s.begin < t;
  };
  const Segment* live = segs_.data();
  std::size_t first = static_cast<std::size_t>(
      std::lower_bound(live, live + count_, lo, beginsBefore) - live);
  if (first > 0) --first;
  const std::size_t atHi = static_cast<std::size_t>(
      std::lower_bound(live + first, live + count_, hi, beginsBefore) - live);
  const std::size_t stop =
      newFinish != finish_ || atHi == count_ ? count_ : atHi + 1;

  // Each cut and the span's growth add at most one segment.
  const std::size_t room = stop - first + 1 + cuts;
  if (window_.size() < room) window_.resize(2 * room);
  if (segs_.size() < count_ + room) segs_.resize(2 * (count_ + room));
  live = segs_.data();

  // One pass: the old stretch's Ec and spikes out, the rebuilt stretch's
  // in. Each old segment in the window, then the span's growth at
  // background, is clipped to the new span and split at the cuts; an
  // addition has two, so it splits each piece in three directly.
  Energy aboveOut;
  Energy aboveIn;
  std::uint32_t spikesOut = 0;
  std::uint32_t spikesIn = 0;
  std::size_t rebuilt = 0;
  std::size_t s = 0;
  for (std::size_t i = first; i <= stop; ++i) {
    Time b = finish_;
    Time e = newFinish;
    Watts level = background_;
    if (i < stop) {
      b = live[i].begin;
      e = i + 1 < count_ ? live[i + 1].begin : finish_;
      level = live[i].level;
      if (level > pmin_) aboveOut += (level - pmin_) * (e - b);
      if (level > pmax_) ++spikesOut;
      e = std::min(e, newFinish);
    }
    const auto emit = [&](Time x, Time y, Watts piece) {
      if (y <= x) return;
      if (piece > pmin_) aboveIn += (piece - pmin_) * (y - x);
      if (rebuilt == 0 || window_[rebuilt - 1].level != piece) {
        window_[rebuilt++] = Segment{x, piece};
        if (piece > pmax_) ++spikesIn;
      }
    };
    if constexpr (!kWasPresent) {
      emit(b, std::min(e, upTo[0]), level);
      emit(std::max(b, upTo[0]), std::min(e, upTo[1]), level + lift[1]);
      emit(std::max(b, upTo[1]), e, level);
    } else {
      while (b < e) {
        while (upTo[s] <= b) ++s;
        const Time cut = std::min(e, upTo[s]);
        emit(b, cut, level + lift[s]);
        b = cut;
      }
    }
  }

  if (log && openCheckpoints_ > 0) {
    if (undo_.size() == undoCount_) undo_.resize(2 * undoCount_ + 8);
    Undo& u = undo_[undoCount_++];
    u.finish = finish_;
    u.above = above_;
    u.taskEnergy = taskEnergy_;
    u.spikes = spikes_;
    u.at = static_cast<std::uint32_t>(first);
    u.removed = static_cast<std::uint32_t>(stop - first);
    u.inserted = static_cast<std::uint32_t>(rebuilt);
    u.task = v;
    u.entry = Entry{wasBegin, wasEnd, wasWatts, kWasPresent};
    if (saved_.size() < savedCount_ + (stop - first)) {
      saved_.resize(2 * (savedCount_ + (stop - first)));
    }
    std::copy(live + first, live + stop, saved_.data() + savedCount_);
    savedCount_ += stop - first;
  }
  splice(first, stop - first, window_.data(), rebuilt);
  finish_ = newFinish;
  above_ = above_ - aboveOut + aboveIn;
  spikes_ = spikes_ - spikesOut + spikesIn;
  if (removes) taskEnergy_ = taskEnergy_ - wasWatts * (wasEnd - wasBegin);
  if (adds) taskEnergy_ += watts * (end - begin);
  slot.begin = begin;
  slot.end = end;
  slot.watts = watts;
  slot.present = present;
}

void ProfileEngine::splice(std::size_t at, std::size_t count,
                           const Segment* with, std::size_t n) {
  // segs_ has room: update() grows it first, and a restore only returns
  // the list to a length it had.
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

void ProfileEngine::addTask(TaskId v, Interval interval, Watts watts) {
  ++updates_;
  update<false>(v, /*present=*/true, interval.begin(), interval.end(), watts,
                /*log=*/true);
}

void ProfileEngine::removeTask(TaskId v) {
  PAWS_CHECK(v.index() < tasks_.size() && tasks_[v.index()].present);
  ++updates_;
  const Entry& entry = tasks_[v.index()];
  update<true>(v, /*present=*/false, entry.begin, entry.end, entry.watts,
               /*log=*/true);
}

void ProfileEngine::moveTask(TaskId v, Time newStart) {
  PAWS_CHECK(v.index() < tasks_.size() && tasks_[v.index()].present);
  const Entry& entry = tasks_[v.index()];
  if (newStart == entry.begin) return;
  ++updates_;
  update<true>(v, /*present=*/true, newStart,
               newStart + (entry.end - entry.begin), entry.watts,
               /*log=*/true);
}

void ProfileEngine::rebuild(const Problem& problem,
                            const std::vector<Time>& starts) {
  PAWS_CHECK_MSG(openCheckpoints_ == 0,
                 "ProfileEngine::rebuild with an open checkpoint");
  ++rebuilds_;
  finish_ = Time::zero();
  above_ = Energy::zero();
  taskEnergy_ = Energy::zero();
  spikes_ = 0;
  count_ = 0;
  tasks_.assign(problem.numVertices(), Entry{});
  // In start order each window begins at or after every earlier start, so
  // seeding only ever rewrites the tail of the list.
  std::vector<TaskId> order = problem.taskIds();
  std::sort(order.begin(), order.end(), [&starts](TaskId a, TaskId b) {
    return starts[a.index()] < starts[b.index()];
  });
  for (const TaskId v : order) {
    const Task& task = problem.task(v);
    const Time start = starts[v.index()];
    update<false>(v, /*present=*/true, start, start + task.delay, task.power,
                  /*log=*/false);
  }
}

// ----- queries -----------------------------------------------------------

Interval ProfileEngine::taskInterval(TaskId v) const {
  PAWS_CHECK(v.index() < tasks_.size() && tasks_[v.index()].present);
  return Interval(tasks_[v.index()].begin, tasks_[v.index()].end);
}

Watts ProfileEngine::valueAt(Time t) const {
  if (t < Time::zero() || t >= finish_) return Watts::zero();
  const auto live = segments();
  const auto it =
      std::upper_bound(live.begin(), live.end(), t,
                       [](Time x, const Segment& s) { return x < s.begin; });
  return std::prev(it)->level;
}

double ProfileEngine::utilization() const {
  if (pmin_ <= Watts::zero() || finish_ <= Time::zero()) return 1.0;
  const Energy available = pmin_ * (finish_ - Time::zero());
  // min(P, Pmin) = P - max(0, P - Pmin), and every contribution lies inside
  // [0, finish): the capped integral is the total energy minus Ec(Pmin).
  const Energy total = background_ * (finish_ - Time::zero()) + taskEnergy_;
  return (total - above_).ratioOf(available);
}

std::optional<Time> ProfileEngine::firstSpike(Time from) const {
  if (spikes_ == 0 || from >= finish_) return std::nullopt;
  // Start at the segment holding `from` (the first one before the span).
  const auto live = segments();
  auto it =
      std::upper_bound(live.begin(), live.end(), from,
                       [](Time x, const Segment& s) { return x < s.begin; });
  if (it != live.begin()) --it;
  for (; it != live.end(); ++it) {
    if (it->level > pmax_) return std::max(it->begin, from);
  }
  return std::nullopt;
}

std::vector<Interval> ProfileEngine::gaps() const {
  std::vector<Interval> result;
  for (std::size_t i = 0; i < count_; ++i) {
    if (segs_[i].level >= pmin_) continue;
    const Time begin = segs_[i].begin;
    const Time end = i + 1 < count_ ? segs_[i + 1].begin : finish_;
    if (!result.empty() && result.back().end() == begin) {
      result.back() = Interval(result.back().begin(), end);
    } else {
      result.emplace_back(begin, end);
    }
  }
  return result;
}

std::vector<TaskId> ProfileEngine::activeAt(Time t) const {
  std::vector<TaskId> result;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (tasks_[i].present && tasks_[i].begin <= t && t < tasks_[i].end) {
      result.emplace_back(static_cast<std::uint32_t>(i));
    }
  }
  return result;
}

void ProfileEngine::mixInto(std::uint64_t& h1, std::uint64_t& h2) const {
  mixHash(h1, h2, static_cast<std::uint64_t>(finish_.ticks()));
  for (const Segment& s : segments()) {
    mixHash(h1, h2, static_cast<std::uint64_t>(s.begin.ticks()));
    mixHash(h1, h2, static_cast<std::uint64_t>(s.level.milliwatts()));
  }
}

// ----- checkpoint / restore ----------------------------------------------

void ProfileEngine::restore(const Checkpoint& cp) {
  PAWS_CHECK(openCheckpoints_ > 0);
  PAWS_CHECK(undoCount_ >= cp.undoSize);
  while (undoCount_ > cp.undoSize) {
    const Undo& u = undo_[--undoCount_];
    savedCount_ -= u.removed;
    splice(u.at, u.inserted, saved_.data() + savedCount_, u.removed);
    finish_ = u.finish;
    above_ = u.above;
    taskEnergy_ = u.taskEnergy;
    spikes_ = u.spikes;
    tasks_[u.task.index()] = u.entry;
  }
  --openCheckpoints_;
  ++restores_;
  if (openCheckpoints_ == 0) {
    undoCount_ = 0;
    savedCount_ = 0;
  }
}

void ProfileEngine::release(const Checkpoint& cp) {
  PAWS_CHECK(openCheckpoints_ > 0);
  PAWS_CHECK(undoCount_ >= cp.undoSize);
  --openCheckpoints_;
  if (openCheckpoints_ == 0) {
    undoCount_ = 0;
    savedCount_ = 0;
  }
}

}  // namespace paws::power
