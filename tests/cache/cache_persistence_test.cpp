// Persistence hardening for ScheduleCache: truncated, corrupt, and
// newer-schema cache files must produce a *structured* skip — a false
// return with a descriptive error and a cache.load_* count — never an
// abort, a throw, or a poisoned cache. The byte-chopping loop is the
// regression net: every prefix of a valid file must be survivable.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "cache/schedule_cache.hpp"

namespace paws::cache {
namespace {

class PersistenceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test and process: ctest -j runs every test of
    // this fixture as its own process at once.
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("paws_persist_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / ScheduleCache::kFileName()).string();
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  void writeFile(const std::string& body) {
    std::ofstream out(path_, std::ios::trunc | std::ios::binary);
    ASSERT_TRUE(out);
    out << body;
  }

  /// A valid two-entry schema-1 file produced by save() itself.
  std::string goldenFile() {
    ScheduleCache cache(8, 1);
    CacheEntry a;
    a.scheduleText = "schedule \"x\" of \"p\" {\n}\n";
    a.costMwt = 42;
    a.finish = Time(7);
    a.structuralHash = 0xfeed;
    cache.insert(CacheKey{0xabc, 0x1}, a);
    CacheEntry b;
    b.scheduleText = "t";
    cache.insert(CacheKey{0xdef, 0x1}, b);
    std::string error;
    EXPECT_TRUE(cache.save(path_, &error)) << error;
    return readFile();
  }

  std::string readFile() {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(PersistenceFixture, FailedSaveLeavesThePreviousFileIntact) {
  const std::string previous = goldenFile();
  // A directory squatting on the temp name fails the save before its
  // rename, even for root, as a crash mid-write would cut it short.
  const std::filesystem::path squatter =
      path_ + ".tmp." + std::to_string(::getpid());
  std::filesystem::create_directories(squatter);
  ScheduleCache replacement(8, 1);
  CacheEntry e;
  e.scheduleText = "other";
  replacement.insert(CacheKey{0x123, 0x2}, e);
  std::string error;
  EXPECT_FALSE(replacement.save(path_, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(readFile(), previous);
  ScheduleCache reloaded;
  ASSERT_TRUE(reloaded.load(path_, &error)) << error;
  EXPECT_EQ(reloaded.size(), 2u);

  // With the way clear the save replaces the file and leaves no temp.
  std::filesystem::remove(squatter);
  ASSERT_TRUE(replacement.save(path_, &error)) << error;
  EXPECT_FALSE(std::filesystem::exists(squatter));
  ScheduleCache replaced;
  ASSERT_TRUE(replaced.load(path_, &error)) << error;
  EXPECT_EQ(replaced.size(), 1u);
}

TEST_F(PersistenceFixture, EveryByteChoppedPrefixIsAStructuredSkip) {
  const std::string golden = goldenFile();
  ASSERT_GT(golden.size(), 100u);
  // Chop at every prefix length: each truncation either parses to a
  // (possibly partial) load or is rejected with an error — no aborts, no
  // stale entries surviving into the next attempt's count.
  for (std::size_t cut = 0; cut < golden.size(); ++cut) {
    writeFile(golden.substr(0, cut));
    ScheduleCache cache;
    std::string error = "sentinel";
    const bool ok = cache.load(path_, &error);
    const CacheStats s = cache.stats();
    if (ok) {
      EXPECT_LE(cache.size(), 2u) << "cut=" << cut;
    } else {
      EXPECT_FALSE(error.empty()) << "cut=" << cut;
      EXPECT_EQ(s.loadRejectedFiles, 1u) << "cut=" << cut;
      EXPECT_EQ(cache.size(), 0u) << "cut=" << cut;
    }
  }
}

TEST_F(PersistenceFixture, NewerSchemaIsRejectedNotGuessedAt) {
  writeFile("{\"schema\": 2, \"entries\": [{\"problem_hash\": \"1\","
            " \"options_fp\": \"1\", \"schedule\": \"s\"}]}\n");
  ScheduleCache cache;
  std::string error;
  EXPECT_FALSE(cache.load(path_, &error));
  EXPECT_NE(error.find("schema"), std::string::npos);
  EXPECT_EQ(cache.stats().loadRejectedFiles, 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(PersistenceFixture, MalformedEntriesSkipWhileHealthyOnesLoad) {
  writeFile(R"({"schema": 1, "entries": [
    {"problem_hash": "abc", "options_fp": "1", "schedule": "good"},
    {"problem_hash": "xyzzy!", "options_fp": "1", "schedule": "bad hex"},
    {"problem_hash": "abc"},
    "not even an object",
    {"problem_hash": 123, "options_fp": "1", "schedule": "key not string"},
    {"problem_hash": "def", "options_fp": "1", "schedule": "also good"}
  ]})");
  ScheduleCache cache;
  std::string error;
  EXPECT_TRUE(cache.load(path_, &error)) << error;
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().loadSkippedEntries, 4u);
  EXPECT_EQ(cache.stats().loadRejectedFiles, 0u);
  EXPECT_NE(cache.lookup(CacheKey{0xabc, 0x1}), nullptr);
  EXPECT_NE(cache.lookup(CacheKey{0xdef, 0x1}), nullptr);
}

TEST_F(PersistenceFixture, OverlongHexKeyIsSkippedNotTruncated) {
  writeFile(R"({"schema": 1, "entries": [
    {"problem_hash": "00000000000000000a", "options_fp": "1",
     "schedule": "17 hex digits"}
  ]})");
  ScheduleCache cache;
  EXPECT_TRUE(cache.load(path_));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().loadSkippedEntries, 1u);
}

TEST_F(PersistenceFixture, DamagedStructuralHashDegradesToNoNearMissIndex) {
  writeFile(R"({"schema": 1, "entries": [
    {"problem_hash": "abc", "options_fp": "1", "schedule": "s",
     "structural_hash": "zz-not-hex"}
  ]})");
  ScheduleCache cache;
  EXPECT_TRUE(cache.load(path_));
  // Entry still serves by exact key; only the near-miss index is lost.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().loadSkippedEntries, 0u);
  EXPECT_NE(cache.lookup(CacheKey{0xabc, 0x1}), nullptr);
}

TEST_F(PersistenceFixture, LoadCountersReachTheMetricsRegistry) {
  writeFile("][");
  ScheduleCache cache;
  EXPECT_FALSE(cache.load(path_));
  obs::MetricsRegistry registry;
  cache.exportMetrics(registry);
  EXPECT_EQ(registry.counter("cache.load_rejected_files"), 1u);
  EXPECT_EQ(registry.counter("cache.load_skipped_entries"), 0u);
}

TEST_F(PersistenceFixture, BinaryGarbageNeverAborts) {
  std::string noise;
  noise.reserve(4096);
  // Deterministic pseudo-noise covering all byte values incl. NULs.
  std::uint32_t x = 0x9e3779b9u;
  for (int i = 0; i < 4096; ++i) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    noise.push_back(static_cast<char>(x & 0xff));
  }
  writeFile(noise);
  ScheduleCache cache;
  std::string error;
  EXPECT_FALSE(cache.load(path_, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(cache.stats().loadRejectedFiles, 1u);
}

}  // namespace
}  // namespace paws::cache
