// Property test for power::PrefixProfile, the exhaustive search's
// push/pop prefix profile: after any sequence of pushes and pops, it must
// equal a PowerProfileBuilder rebuild of the live contributions (merged
// segments, finish, Ec(Pmin), the Pmax spike verdict), and its fingerprint
// must equal the sequence the dominance signature has always mixed over a
// built profile (mixProfile below, kept here as the oracle).
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "base/interval.hpp"
#include "power/prefix_profile.hpp"
#include "power/profile.hpp"

namespace paws {
namespace {

using power::PrefixProfile;

std::uint32_t nextRand(std::uint32_t& state) {
  std::uint32_t x = state;
  x ^= x << 13;
  x ^= x >> 17;
  x ^= x << 5;
  return state = x;
}

/// The two-stream mix step of the search's state fingerprint.
constexpr void mixHash(std::uint64_t& h1, std::uint64_t& h2, std::uint64_t x) {
  h1 = (h1 ^ x) * 0x100000001b3ULL;
  h2 = (h2 ^ (x + 0x9e3779b97f4a7c15ULL)) * 0xc2b2ae3d27d4eb4fULL;
}

/// The fingerprint of a built profile: finish, then each merged segment's
/// (begin, level).
void mixProfile(const PowerProfile& p, std::uint64_t& h1, std::uint64_t& h2) {
  mixHash(h1, h2, static_cast<std::uint64_t>(p.finish().ticks()));
  for (const PowerSegment& s : p.segments()) {
    mixHash(h1, h2, static_cast<std::uint64_t>(s.interval.begin().ticks()));
    mixHash(h1, h2, static_cast<std::uint64_t>(s.power.milliwatts()));
  }
}

struct Coverage {
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  std::uint64_t zeroDelay = 0;
  std::uint64_t zeroPower = 0;
  std::uint64_t pastFinish = 0;
  std::uint64_t spikes = 0;
  std::uint64_t abovePmin = 0;
};

void expectMatchesBuilder(
    const PrefixProfile& profile,
    const std::vector<std::pair<Interval, Watts>>& live, Watts background,
    Watts pmin, Watts pmax, Coverage& cov) {
  PowerProfileBuilder builder;
  for (const auto& [interval, watts] : live) builder.add(interval, watts);
  const PowerProfile built = builder.build(background);

  ASSERT_EQ(profile.depth(), live.size());
  ASSERT_EQ(profile.finish(), built.finish());
  ASSERT_EQ(profile.energyAbove(), built.energyAbove(pmin));
  ASSERT_EQ(profile.hasSpike(), built.firstSpike(pmax).has_value());

  const auto segments = profile.segments();
  ASSERT_EQ(segments.size(), built.segments().size());
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const PowerSegment& want = built.segments()[i];
    const Time end =
        i + 1 < segments.size() ? segments[i + 1].begin : profile.finish();
    ASSERT_EQ(segments[i].begin, want.interval.begin()) << "segment " << i;
    ASSERT_EQ(end, want.interval.end()) << "segment " << i;
    ASSERT_EQ(segments[i].level, want.power) << "segment " << i;
  }

  std::uint64_t a1 = 0xcbf29ce484222325ULL, a2 = 0x9e3779b97f4a7c15ULL;
  std::uint64_t b1 = a1, b2 = a2;
  profile.mixInto(a1, a2);
  mixProfile(built, b1, b2);
  ASSERT_EQ(a1, b1);
  ASSERT_EQ(a2, b2);

  if (profile.hasSpike()) ++cov.spikes;
  if (profile.energyAbove() > Energy::zero()) ++cov.abovePmin;
}

TEST(PrefixProfileProperties, RandomPushPopMatchesBuilder) {
  constexpr std::uint32_t kSequences = 2400;
  Coverage cov;
  for (std::uint32_t seq = 1; seq <= kSequences; ++seq) {
    std::uint32_t rng = 0x9e3779b9u ^ (seq * 2654435761u);
    nextRand(rng);
    // Background 0 in a third of the sequences; thresholds drawn so levels
    // cross Pmin often and Pmax sometimes.
    const Watts background = Watts::fromMilliwatts(
        seq % 3 == 0 ? 0 : static_cast<std::int64_t>(nextRand(rng) % 900));
    const Watts pmin =
        background + Watts::fromMilliwatts(nextRand(rng) % 2500);
    const Watts pmax =
        pmin + Watts::fromMilliwatts(500 + nextRand(rng) % 5000);
    PrefixProfile profile(background, pmin, pmax);
    std::vector<std::pair<Interval, Watts>> live;

    // One sequence in fifty runs deep, so the list and the saved stretches
    // grow well past their first allocations.
    const bool deep = seq % 50 == 0;
    const std::uint32_t ops =
        deep ? 600 + nextRand(rng) % 200 : 8 + nextRand(rng) % 40;
    const std::size_t maxDepth = deep ? 300 : 12;
    for (std::uint32_t op = 0; op < ops; ++op) {
      const bool push = live.empty() || (live.size() < maxDepth &&
                                         nextRand(rng) % 100 < 65);
      if (push) {
        const std::int64_t finish = profile.finish().ticks();
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
        profile.push(interval, watts);
        live.emplace_back(interval, watts);
        ++cov.pushes;
      } else {
        profile.pop();
        live.pop_back();
        ++cov.pops;
      }
      expectMatchesBuilder(profile, live, background, pmin, pmax, cov);
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "sequence " << seq << " op " << op;
      }
    }
  }
  // The draws above really exercised every edge the profile must mirror.
  EXPECT_GT(cov.pushes, 20000u);
  EXPECT_GT(cov.pops, 5000u);
  EXPECT_GT(cov.zeroDelay, 1000u);
  EXPECT_GT(cov.zeroPower, 1000u);
  EXPECT_GT(cov.pastFinish, 1000u);
  EXPECT_GT(cov.spikes, 1000u);
  EXPECT_GT(cov.abovePmin, 1000u);
}

TEST(PrefixProfileProperties, EmptyAndSpanOnlyPushes) {
  PrefixProfile profile(Watts::fromMilliwatts(400),
                        Watts::fromMilliwatts(300),
                        Watts::fromMilliwatts(350));
  EXPECT_EQ(profile.depth(), 0u);
  EXPECT_EQ(profile.finish(), Time::zero());
  EXPECT_TRUE(profile.segments().empty());
  EXPECT_FALSE(profile.hasSpike());

  // A zero-delay task only stretches the span, at background — which here
  // is already above Pmax.
  profile.push(Interval(Time(5), Time(5)), Watts::fromMilliwatts(900));
  EXPECT_EQ(profile.finish(), Time(5));
  ASSERT_EQ(profile.segments().size(), 1u);
  EXPECT_EQ(profile.segments()[0].level, Watts::fromMilliwatts(400));
  EXPECT_TRUE(profile.hasSpike());
  EXPECT_EQ(profile.energyAbove(), Energy::fromMilliwattTicks(100 * 5));

  profile.pop();
  EXPECT_EQ(profile.depth(), 0u);
  EXPECT_EQ(profile.finish(), Time::zero());
  EXPECT_FALSE(profile.hasSpike());
  EXPECT_EQ(profile.energyAbove(), Energy::zero());
}

}  // namespace
}  // namespace paws
