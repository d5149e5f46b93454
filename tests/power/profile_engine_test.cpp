#include "power/profile_engine.hpp"

#include <gtest/gtest.h>

#include "base/interval.hpp"

namespace paws::power {
namespace {

Watts mw(std::int64_t milliwatts) { return Watts::fromMilliwatts(milliwatts); }

TEST(ProfileEngineTest, EmptyEngineMatchesEmptyProfile) {
  ProfileEngine engine(mw(500), mw(2000), mw(8000));
  EXPECT_EQ(engine.finish(), Time::zero());
  EXPECT_TRUE(engine.segments().empty());
  EXPECT_EQ(engine.energyAbove(), Energy());
  EXPECT_EQ(engine.utilization(), 1.0);
  EXPECT_FALSE(engine.hasSpike());
  EXPECT_FALSE(engine.firstSpike().has_value());
  EXPECT_TRUE(engine.gaps().empty());
  EXPECT_TRUE(engine.activeAt(Time(0)).empty());
}

TEST(ProfileEngineTest, AddRemoveRoundTripsToEmpty) {
  ProfileEngine engine(mw(0), mw(1000), mw(5000));
  engine.addTask(TaskId(1), Interval(Time(2), Time(6)), mw(3000));
  engine.addTask(TaskId(2), Interval(Time(4), Time(9)), mw(2500));
  EXPECT_EQ(engine.finish(), Time(9));
  EXPECT_EQ(engine.valueAt(Time(5)), mw(5500));
  EXPECT_EQ(engine.valueAt(Time(1)), mw(0));
  ASSERT_TRUE(engine.firstSpike().has_value());
  EXPECT_EQ(*engine.firstSpike(), Time(4));

  engine.removeTask(TaskId(2));
  engine.removeTask(TaskId(1));
  EXPECT_EQ(engine.finish(), Time::zero());
  EXPECT_EQ(engine.energyAbove(), Energy());
  EXPECT_TRUE(engine.segments().empty());
}

TEST(ProfileEngineTest, ZeroPowerAndEmptyTasksExtendSpan) {
  // PowerProfileBuilder counts empty/zero-power contributions toward the
  // span; the engine must agree.
  ProfileEngine engine(mw(100), mw(1000), mw(5000));
  engine.addTask(TaskId(1), Interval(Time(3), Time(3)), mw(4000));  // empty
  EXPECT_EQ(engine.finish(), Time(3));
  EXPECT_EQ(engine.valueAt(Time(1)), mw(100));  // background only
  engine.addTask(TaskId(2), Interval(Time(0), Time(7)), mw(0));  // zero power
  EXPECT_EQ(engine.finish(), Time(7));
  ASSERT_EQ(engine.segments().size(), 1u);  // background only
  EXPECT_EQ(engine.segments()[0].level, mw(100));
  // Zero-power tasks are still active for the interval index.
  EXPECT_EQ(engine.activeAt(Time(2)), std::vector<TaskId>{TaskId(2)});
  // Removing the long zero task shrinks the span back.
  engine.removeTask(TaskId(2));
  EXPECT_EQ(engine.finish(), Time(3));
}

TEST(ProfileEngineTest, MoveTaskMatchesRemoveThenAdd) {
  ProfileEngine engine(mw(0), mw(1000), mw(9000));
  engine.addTask(TaskId(1), Interval(Time(0), Time(4)), mw(2000));
  engine.addTask(TaskId(2), Interval(Time(2), Time(5)), mw(3000));
  engine.moveTask(TaskId(2), Time(6));
  EXPECT_EQ(engine.taskInterval(TaskId(2)), Interval(Time(6), Time(9)));
  EXPECT_EQ(engine.finish(), Time(9));
  EXPECT_EQ(engine.valueAt(Time(3)), mw(2000));
  EXPECT_EQ(engine.valueAt(Time(7)), mw(3000));
  // The hole the move opened, [4, 6) at background 0 < pmin, is a gap.
  const std::vector<Interval> expected = {Interval(Time(4), Time(6))};
  EXPECT_EQ(engine.gaps(), expected);
}

TEST(ProfileEngineTest, GapsMergeContiguousSegments) {
  ProfileEngine engine(mw(0), mw(2500), mw(9000));
  engine.addTask(TaskId(1), Interval(Time(0), Time(2)), mw(3000));
  engine.addTask(TaskId(2), Interval(Time(4), Time(6)), mw(3000));
  // [2,4) is at background 0 < pmin; distinct breakpoints inside the hole
  // must still merge into one gap interval.
  engine.addTask(TaskId(3), Interval(Time(2), Time(3)), mw(1000));
  const auto gaps = engine.gaps();
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps.front(), Interval(Time(2), Time(4)));
}

TEST(ProfileEngineTest, CheckpointRestoreNestsLifo) {
  ProfileEngine engine(mw(0), mw(1000), mw(9000));
  engine.addTask(TaskId(1), Interval(Time(0), Time(5)), mw(2000));

  const auto outer = engine.checkpoint();
  engine.moveTask(TaskId(1), Time(3));
  engine.addTask(TaskId(2), Interval(Time(1), Time(2)), mw(4000));

  const auto inner = engine.checkpoint();
  engine.removeTask(TaskId(1));
  EXPECT_TRUE(engine.activeAt(Time(4)).empty());
  engine.restore(inner);
  EXPECT_EQ(engine.taskInterval(TaskId(1)), Interval(Time(3), Time(8)));

  engine.restore(outer);
  EXPECT_EQ(engine.taskInterval(TaskId(1)), Interval(Time(0), Time(5)));
  EXPECT_EQ(engine.activeAt(Time(1)), std::vector<TaskId>{TaskId(1)});
  EXPECT_EQ(engine.finish(), Time(5));
  EXPECT_EQ(engine.restores(), 2u);
}

TEST(ProfileEngineTest, ReleaseKeepsMutations) {
  ProfileEngine engine(mw(0), mw(1000), mw(9000));
  engine.addTask(TaskId(1), Interval(Time(0), Time(5)), mw(2000));
  const auto cp = engine.checkpoint();
  engine.moveTask(TaskId(1), Time(2));
  engine.release(cp);
  EXPECT_EQ(engine.taskInterval(TaskId(1)), Interval(Time(2), Time(7)));
}

TEST(ProfileEngineTest, ActiveAtSortsByTaskId) {
  ProfileEngine engine(mw(0), mw(1000), mw(9000));
  engine.addTask(TaskId(9), Interval(Time(0), Time(10)), mw(100));
  engine.addTask(TaskId(3), Interval(Time(2), Time(8)), mw(100));
  engine.addTask(TaskId(5), Interval(Time(4), Time(6)), mw(100));
  const std::vector<TaskId> expected = {TaskId(3), TaskId(5), TaskId(9)};
  EXPECT_EQ(engine.activeAt(Time(5)), expected);
  EXPECT_EQ(engine.activeAt(Time(9)), std::vector<TaskId>{TaskId(9)});
  EXPECT_TRUE(engine.activeAt(Time(10)).empty());  // half-open intervals
  EXPECT_TRUE(engine.activeAt(Time(-1)).empty());
}

}  // namespace
}  // namespace paws::power
