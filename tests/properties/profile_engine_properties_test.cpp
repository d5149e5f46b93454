// Property test for power::ProfileEngine, the one power profile every
// scheduler mutates. After every operation it must equal a
// PowerProfileBuilder rebuild of the live contributions: the merged
// segments, the finish, Ec(Pmin), rho(Pmin), the first spike from several
// origins, the gap list, point values and the active-task set — and its
// search fingerprint must equal the sequence the dominance signature has
// always mixed over a built profile (mixProfile below, kept as the oracle).
// Two kinds of sequence drive it, one test each:
//   * add/remove/move inside nested checkpoint frames, each closed by
//     restore or release — the max-power and min-power schedulers' shape
//     (RandomOpSequencesMatchFullRebuild);
//   * LIFO placements — a checkpoint plus addTask per placement, restore
//     per backtrack — the exhaustive search's push/pop prefix profile, one
//     sequence in fifty at least 300 deep (RandomPushPopMatchesBuilder).
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "base/interval.hpp"
#include "power/profile.hpp"
#include "power/profile_engine.hpp"

namespace paws {
namespace {

using power::ProfileEngine;

/// Live contributions by task id, so activeAt's id order falls out.
using Live = std::map<std::uint32_t, std::pair<Interval, Watts>>;

std::uint32_t nextRand(std::uint32_t& state) {
  std::uint32_t x = state;
  x ^= x << 13;
  x ^= x >> 17;
  x ^= x << 5;
  return state = x;
}

/// The fingerprint of a built profile: finish, then each merged segment's
/// (begin, level).
void mixProfile(const PowerProfile& p, std::uint64_t& h1, std::uint64_t& h2) {
  ProfileEngine::mixHash(h1, h2, static_cast<std::uint64_t>(p.finish().ticks()));
  for (const PowerSegment& s : p.segments()) {
    ProfileEngine::mixHash(
        h1, h2, static_cast<std::uint64_t>(s.interval.begin().ticks()));
    ProfileEngine::mixHash(h1, h2,
                           static_cast<std::uint64_t>(s.power.milliwatts()));
  }
}

struct Thresholds {
  Watts background;
  Watts pmin;
  Watts pmax;
};

struct Coverage {
  std::uint64_t placements = 0;
  std::uint64_t backtracks = 0;
  std::uint64_t zeroDelay = 0;
  std::uint64_t zeroPower = 0;
  std::uint64_t pastFinish = 0;
  std::uint64_t spikes = 0;
  std::uint64_t abovePmin = 0;
};

/// Every query the engine answers, checked against a full rebuild. Probe
/// points are drawn from `rng`.
void expectMatchesBuilder(const ProfileEngine& engine, const Live& live,
                          const Thresholds& th, std::uint32_t& rng,
                          Coverage& cov) {
  PowerProfileBuilder builder;
  for (const auto& [id, contribution] : live) {
    builder.add(contribution.first, contribution.second);
  }
  const PowerProfile built = builder.build(th.background);

  ASSERT_EQ(engine.finish(), built.finish());
  ASSERT_EQ(engine.energyAbove(), built.energyAbove(th.pmin));
  ASSERT_EQ(engine.utilization(), built.utilization(th.pmin));
  ASSERT_EQ(engine.hasSpike(), built.firstSpike(th.pmax).has_value());

  // Exact merged segment list.
  const auto segments = engine.segments();
  ASSERT_EQ(segments.size(), built.segments().size());
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const PowerSegment& want = built.segments()[i];
    const Time end =
        i + 1 < segments.size() ? segments[i + 1].begin : engine.finish();
    ASSERT_EQ(segments[i].begin, want.interval.begin()) << "segment " << i;
    ASSERT_EQ(end, want.interval.end()) << "segment " << i;
    ASSERT_EQ(segments[i].level, want.power) << "segment " << i;
  }

  const std::int64_t span = engine.finish().ticks();
  const std::vector<Time> froms = {
      Time::minusInfinity(),
      Time(0),
      Time(1),
      Time(static_cast<std::int64_t>(nextRand(rng) % (span + 6))),
      Time(span - 1),
      Time(span),
  };
  for (const Time from : froms) {
    ASSERT_EQ(engine.firstSpike(from), built.firstSpike(th.pmax, from))
        << "firstSpike from " << from.ticks();
  }
  ASSERT_EQ(engine.gaps(), built.gaps(th.pmin));

  // Point probes: value and the active-task set.
  for (int probe = 0; probe < 6; ++probe) {
    const Time t(static_cast<std::int64_t>(nextRand(rng) % (span + 5)) - 2);
    ASSERT_EQ(engine.valueAt(t), built.valueAt(t)) << "t=" << t.ticks();
    std::vector<TaskId> expected;
    for (const auto& [id, contribution] : live) {
      if (contribution.first.contains(t)) expected.emplace_back(id);
    }
    ASSERT_EQ(engine.activeAt(t), expected) << "t=" << t.ticks();
  }

  std::uint64_t a1 = 0xcbf29ce484222325ULL, a2 = 0x9e3779b97f4a7c15ULL;
  std::uint64_t b1 = a1, b2 = a2;
  engine.mixInto(a1, a2);
  mixProfile(built, b1, b2);
  ASSERT_EQ(a1, b1);
  ASSERT_EQ(a2, b2);

  if (engine.hasSpike()) ++cov.spikes;
  if (engine.energyAbove() > Energy::zero()) ++cov.abovePmin;
}

/// The schedulers' shape: add/remove/move, with mutations inside nested
/// frames that restore() undoes exactly or release() keeps.
void runFrameSequence(std::uint32_t seed, Coverage& cov) {
  std::uint32_t rng = seed;
  Thresholds th;
  th.background = Watts::fromMilliwatts(nextRand(rng) % 3 * 500);
  th.pmin = Watts::fromMilliwatts(1000 + nextRand(rng) % 4000);
  th.pmax = th.pmin + Watts::fromMilliwatts(nextRand(rng) % 5000);
  ProfileEngine engine(th.background, th.pmin, th.pmax);
  Live live;

  const std::uint32_t numIds = 6 + nextRand(rng) % 6;
  std::uint32_t nextId = 1;

  const auto randomInterval = [&rng] {
    const Time begin(static_cast<std::int64_t>(nextRand(rng) % 30));
    const Duration len(static_cast<std::int64_t>(nextRand(rng) % 8));
    return Interval(begin, begin + len);  // occasionally empty (len 0)
  };
  const auto randomWatts = [&rng] {
    // Zero power now and then: must still extend the span.
    const std::uint32_t mw = nextRand(rng) % 5;
    return Watts::fromMilliwatts(static_cast<std::int64_t>(mw) * 900);
  };
  const auto doAdd = [&] {
    // Now and then re-add a task id that is not in the profile (one that
    // was removed, or whose addition a restore undid).
    std::uint32_t id = nextId;
    const std::uint32_t reuse = 1 + nextRand(rng) % nextId;
    if (nextRand(rng) % 3 == 0 && reuse < nextId && !live.contains(reuse)) {
      id = reuse;
    } else {
      ++nextId;
    }
    const Interval iv = randomInterval();
    const Watts w = randomWatts();
    engine.addTask(TaskId(id), iv, w);
    live.emplace(id, std::make_pair(iv, w));
  };
  const auto doRemove = [&] {
    if (live.empty()) return;
    auto it = live.begin();
    std::advance(it, nextRand(rng) % live.size());
    engine.removeTask(TaskId(it->first));
    live.erase(it);
  };
  const auto doMove = [&] {
    if (live.empty()) return;
    auto it = live.begin();
    std::advance(it, nextRand(rng) % live.size());
    const Time newStart(static_cast<std::int64_t>(nextRand(rng) % 30));
    engine.moveTask(TaskId(it->first), newStart);
    it->second.first = Interval(newStart, newStart + it->second.first.length());
  };
  const auto check = [&] {
    expectMatchesBuilder(engine, live, th, rng, cov);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "frame sequence seed " << seed;
    }
  };

  for (std::uint32_t i = 0; i < numIds / 2; ++i) doAdd();
  check();

  struct Frame {
    ProfileEngine::Checkpoint cp;
    Live live;
  };
  std::vector<Frame> stack;
  for (int op = 0; op < 80 && !::testing::Test::HasFatalFailure(); ++op) {
    const std::uint32_t pick = nextRand(rng) % 12;
    if (pick < 3 && stack.size() < 5) {
      // Open a frame, then mutate inside it.
      stack.push_back(Frame{engine.checkpoint(), live});
      const std::uint32_t ops = 1 + nextRand(rng) % 3;
      for (std::uint32_t j = 0; j < ops; ++j) {
        const std::uint32_t inner = nextRand(rng) % 3;
        if (inner == 0) {
          doAdd();
        } else if (inner == 1) {
          doRemove();
        } else {
          doMove();
        }
      }
    } else if (pick < 5 && !stack.empty()) {
      // Undo the innermost frame exactly.
      engine.restore(stack.back().cp);
      live = std::move(stack.back().live);
      stack.pop_back();
    } else if (pick == 5 && !stack.empty()) {
      // Keep the innermost frame's mutations.
      engine.release(stack.back().cp);
      stack.pop_back();
    } else if (pick < 8) {
      doAdd();
    } else if (pick < 10) {
      doRemove();
    } else {
      doMove();
    }
    check();
  }

  // Unwind the remaining frames, checking at every level.
  while (!stack.empty() && !::testing::Test::HasFatalFailure()) {
    engine.restore(stack.back().cp);
    live = std::move(stack.back().live);
    stack.pop_back();
    check();
  }
}

/// The exhaustive search's shape: task k is placed at depth k inside its
/// own checkpoint, and a backtrack restores the innermost placement.
void runPlacementSequence(std::uint32_t seq, Coverage& cov) {
  std::uint32_t rng = 0x9e3779b9u ^ (seq * 2654435761u);
  nextRand(rng);
  std::uint32_t probeRng = seq;
  // Background 0 in a third of the sequences; thresholds drawn so levels
  // cross Pmin often and Pmax sometimes.
  Thresholds th;
  th.background = Watts::fromMilliwatts(
      seq % 3 == 0 ? 0 : static_cast<std::int64_t>(nextRand(rng) % 900));
  th.pmin = th.background + Watts::fromMilliwatts(nextRand(rng) % 2500);
  th.pmax = th.pmin + Watts::fromMilliwatts(500 + nextRand(rng) % 5000);
  ProfileEngine engine(th.background, th.pmin, th.pmax);
  Live live;
  std::vector<ProfileEngine::Checkpoint> placements;

  // One sequence in fifty runs deep, so the list, the undo log and the
  // saved stretches grow well past their first allocations.
  const bool deep = seq % 50 == 0;
  const std::uint32_t ops =
      deep ? 600 + nextRand(rng) % 200 : 8 + nextRand(rng) % 40;
  const std::size_t maxDepth = deep ? 300 : 12;
  for (std::uint32_t op = 0; op < ops; ++op) {
    const bool place = live.empty() ||
                       (live.size() < maxDepth && nextRand(rng) % 100 < 65);
    if (place) {
      const std::int64_t finish = engine.finish().ticks();
      std::int64_t start = 0;
      if (nextRand(rng) % 4 == 0) {
        start = finish + 1 + nextRand(rng) % 6;  // past the current end
      } else {
        start = nextRand(rng) % static_cast<std::uint32_t>(finish + 6);
      }
      const std::int64_t delay =
          nextRand(rng) % 7 == 0 ? 0 : 1 + nextRand(rng) % 8;
      const Watts watts = Watts::fromMilliwatts(
          nextRand(rng) % 7 == 0 ? 0 : 100 + nextRand(rng) % 3000);
      const Interval interval(Time(start), Time(start + delay));
      cov.zeroDelay += delay == 0;
      cov.zeroPower += watts.isZero();
      cov.pastFinish += start > finish;
      const auto id = static_cast<std::uint32_t>(live.size() + 1);
      placements.push_back(engine.checkpoint());
      engine.addTask(TaskId(id), interval, watts);
      live.emplace(id, std::make_pair(interval, watts));
      ++cov.placements;
    } else {
      engine.restore(placements.back());
      placements.pop_back();
      live.erase(std::prev(live.end()));
      ++cov.backtracks;
    }
    expectMatchesBuilder(engine, live, th, probeRng, cov);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "placement sequence " << seq << " op " << op;
    }
  }
}

TEST(ProfileEnginePropertiesTest, RandomOpSequencesMatchFullRebuild) {
  Coverage frames;
  for (std::uint32_t seed = 1; seed <= 25; ++seed) {
    runFrameSequence(seed, frames);
    if (HasFatalFailure()) return;
  }
}

// The prefix profile of the exhaustive search: pushes are placements, pops
// are backtracks.
TEST(PrefixProfileProperties, RandomPushPopMatchesBuilder) {
  Coverage cov;
  for (std::uint32_t seq = 1; seq <= 2400; ++seq) {
    runPlacementSequence(seq, cov);
    if (HasFatalFailure()) return;
  }
  // The draws above really exercised every edge the profile must mirror.
  EXPECT_GT(cov.placements, 20000u);
  EXPECT_GT(cov.backtracks, 5000u);
  EXPECT_GT(cov.zeroDelay, 1000u);
  EXPECT_GT(cov.zeroPower, 1000u);
  EXPECT_GT(cov.pastFinish, 1000u);
  EXPECT_GT(cov.spikes, 1000u);
  EXPECT_GT(cov.abovePmin, 1000u);
}

TEST(ProfileEnginePropertiesTest, EmptyAndSpanOnlyTasks) {
  ProfileEngine engine(Watts::fromMilliwatts(400), Watts::fromMilliwatts(300),
                       Watts::fromMilliwatts(350));
  EXPECT_EQ(engine.finish(), Time::zero());
  EXPECT_TRUE(engine.segments().empty());
  EXPECT_FALSE(engine.hasSpike());

  // A zero-delay task only stretches the span, at background — which here
  // is already above Pmax.
  const auto cp = engine.checkpoint();
  engine.addTask(TaskId(1), Interval(Time(5), Time(5)),
                 Watts::fromMilliwatts(900));
  EXPECT_EQ(engine.finish(), Time(5));
  ASSERT_EQ(engine.segments().size(), 1u);
  EXPECT_EQ(engine.segments()[0].level, Watts::fromMilliwatts(400));
  EXPECT_TRUE(engine.hasSpike());
  EXPECT_EQ(engine.firstSpike(), Time(0));
  EXPECT_EQ(engine.energyAbove(), Energy::fromMilliwattTicks(100 * 5));

  engine.restore(cp);
  EXPECT_EQ(engine.finish(), Time::zero());
  EXPECT_TRUE(engine.segments().empty());
  EXPECT_FALSE(engine.hasSpike());
  EXPECT_EQ(engine.energyAbove(), Energy::zero());
}

TEST(ProfileEnginePropertiesTest, MetricsCountersTrackOps) {
  ProfileEngine engine(Watts::zero(), Watts::fromWatts(1.0),
                       Watts::fromWatts(10.0));
  engine.addTask(TaskId(1), Interval(Time(0), Time(5)),
                 Watts::fromWatts(2.0));
  engine.addTask(TaskId(2), Interval(Time(3), Time(8)),
                 Watts::fromWatts(3.0));
  EXPECT_EQ(engine.incrementalUpdates(), 2u);
  const auto cp = engine.checkpoint();
  engine.moveTask(TaskId(1), Time(6));
  EXPECT_EQ(engine.incrementalUpdates(), 3u);
  engine.restore(cp);
  EXPECT_EQ(engine.restores(), 1u);
  EXPECT_EQ(engine.taskInterval(TaskId(1)), Interval(Time(0), Time(5)));
  EXPECT_EQ(engine.rebuilds(), 0u);
}

}  // namespace
}  // namespace paws
