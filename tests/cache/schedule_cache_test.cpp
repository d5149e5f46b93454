#include "cache/schedule_cache.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace paws::cache {
namespace {

CacheEntry entryWith(const std::string& text, std::int64_t cost) {
  CacheEntry e;
  e.scheduleText = text;
  e.costMwt = cost;
  e.finish = Time(cost);
  e.structuralHash = 7;
  e.stats.longestPathRuns = 3;
  e.nodesExplored = 11;
  return e;
}

TEST(ScheduleCacheTest, MissThenHit) {
  ScheduleCache cache;
  const CacheKey key{1, 2};
  EXPECT_EQ(cache.lookup(key), nullptr);
  cache.insert(key, entryWith("s", 5));
  const auto hit = cache.lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->scheduleText, "s");
  EXPECT_EQ(hit->costMwt, 5);
  EXPECT_EQ(hit->stats.longestPathRuns, 3u);
  EXPECT_EQ(hit->nodesExplored, 11u);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 1u);
}

TEST(ScheduleCacheTest, PeekIsNotTraffic) {
  ScheduleCache cache;
  const CacheKey key{1, 2};
  EXPECT_EQ(cache.peek(key), nullptr);
  cache.insert(key, entryWith("s", 5));
  EXPECT_NE(cache.peek(key), nullptr);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
}

TEST(ScheduleCacheTest, LruEvictsTheColdestEntry) {
  ScheduleCache cache(/*capacity=*/2, /*shards=*/1);
  cache.insert(CacheKey{1, 0}, entryWith("a", 1));
  cache.insert(CacheKey{2, 0}, entryWith("b", 2));
  // Touch "a" so "b" is the LRU victim when "c" arrives.
  EXPECT_NE(cache.lookup(CacheKey{1, 0}), nullptr);
  cache.insert(CacheKey{3, 0}, entryWith("c", 3));
  EXPECT_NE(cache.lookup(CacheKey{1, 0}), nullptr);
  EXPECT_EQ(cache.lookup(CacheKey{2, 0}), nullptr);
  EXPECT_NE(cache.lookup(CacheKey{3, 0}), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ScheduleCacheTest, InsertOverwritesInPlace) {
  ScheduleCache cache(2, 1);
  cache.insert(CacheKey{1, 0}, entryWith("old", 1));
  cache.insert(CacheKey{1, 0}, entryWith("new", 9));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.lookup(CacheKey{1, 0})->scheduleText, "new");
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ScheduleCacheTest, LookupSharesTheStoredEntryAndSurvivesOverwrite) {
  ScheduleCache cache(/*capacity=*/1, /*shards=*/1);
  CacheEntry e = entryWith("old", 1);
  e.startsByName = {{"a", 0}, {"b", 4}};
  cache.insert(CacheKey{1, 0}, e);
  // Every probe hands out the stored entry itself, not a copy.
  const std::shared_ptr<const CacheEntry> held = cache.lookup(CacheKey{1, 0});
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(cache.peek(CacheKey{1, 0}).get(), held.get());
  EXPECT_EQ(cache.lookupStructural(7, 0).get(), held.get());
  EXPECT_EQ(held.use_count(), 2);  // the cache's pointer and ours

  // An overwrite swaps the pointer: the reader's entry stays whole.
  cache.insert(CacheKey{1, 0}, entryWith("new", 9));
  EXPECT_EQ(held->scheduleText, "old");
  EXPECT_EQ(held->costMwt, 1);
  EXPECT_EQ(held->startsByName.size(), 2u);
  EXPECT_EQ(held.use_count(), 1);
  const std::shared_ptr<const CacheEntry> fresh = cache.lookup(CacheKey{1, 0});
  ASSERT_NE(fresh, nullptr);
  EXPECT_NE(fresh.get(), held.get());
  EXPECT_EQ(fresh->scheduleText, "new");

  // So does an eviction.
  cache.insert(CacheKey{2, 0}, entryWith("other", 3));
  EXPECT_EQ(cache.lookup(CacheKey{1, 0}), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(fresh->scheduleText, "new");
  EXPECT_EQ(fresh->costMwt, 9);
}

TEST(ScheduleCacheTest, StructuralIndexFindsNearMisses) {
  ScheduleCache cache;
  CacheEntry e = entryWith("s", 5);
  e.structuralHash = 42;
  cache.insert(CacheKey{100, 7}, e);
  // Same skeleton + options, any canonical hash.
  const auto hit = cache.lookupStructural(42, 7);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->scheduleText, "s");
  // Different options fingerprint: no candidate.
  EXPECT_EQ(cache.lookupStructural(42, 8), nullptr);
  // Structural probes are not hit/miss traffic.
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(ScheduleCacheTest, ConcurrentMixedTrafficIsSafe) {
  ScheduleCache cache(256, 8);
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&cache, t] {
      for (std::uint64_t i = 0; i < 500; ++i) {
        const CacheKey key{(static_cast<std::uint64_t>(t) << 32) | (i % 64),
                           0};
        cache.insert(key, entryWith("s", static_cast<std::int64_t>(i)));
        (void)cache.lookup(key);
        (void)cache.lookupStructural(7, 0);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_LE(cache.size(), 256u);
  EXPECT_EQ(cache.stats().insertions, 8u * 500u);
}

TEST(ScheduleCacheTest, SaveLoadRoundTripsEntriesAndRecency) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("paws_cache_test_" + std::to_string(::getpid()) + ".json"))
          .string();
  {
    ScheduleCache cache(8, 1);
    CacheEntry e = entryWith("schedule \"x\" of \"p\" {\n}\n", 123);
    e.provenOptimal = true;
    e.stats.backtracks = 2;
    e.stats.improvements = 4;
    cache.insert(CacheKey{0xabcdef, 0x123}, e);
    cache.insert(CacheKey{0x111, 0x123}, entryWith("t", 9));
    std::string error;
    ASSERT_TRUE(cache.save(path, &error)) << error;
  }
  ScheduleCache cache(8, 1);
  std::string error;
  ASSERT_TRUE(cache.load(path, &error)) << error;
  EXPECT_EQ(cache.size(), 2u);
  // Loading is bookkeeping: run-traffic stats start at zero.
  EXPECT_EQ(cache.stats().insertions, 0u);
  const auto hit = cache.lookup(CacheKey{0xabcdef, 0x123});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->scheduleText, "schedule \"x\" of \"p\" {\n}\n");
  EXPECT_EQ(hit->costMwt, 123);
  EXPECT_TRUE(hit->provenOptimal);
  EXPECT_EQ(hit->stats.backtracks, 2u);
  EXPECT_EQ(hit->stats.improvements, 4u);
  EXPECT_EQ(hit->nodesExplored, 11u);
  // Structural index is rebuilt from the loaded entries.
  EXPECT_NE(cache.lookupStructural(7, 0x123), nullptr);
  std::remove(path.c_str());
}

TEST(ScheduleCacheTest, LoadMissingFileIsACleanColdStart) {
  ScheduleCache cache;
  std::string error = "sentinel";
  EXPECT_FALSE(cache.load("/nonexistent/paws_cache.json", &error));
  EXPECT_TRUE(error.empty());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ScheduleCacheTest, LoadRejectsGarbageWithoutCrashing) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("paws_cache_garbage_" + std::to_string(::getpid()) + ".json"))
          .string();
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{not json", f);
    std::fclose(f);
  }
  ScheduleCache cache;
  std::string error;
  EXPECT_FALSE(cache.load(path, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(cache.size(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace paws::cache
