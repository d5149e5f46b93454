#include "cache/schedule_cache.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace paws::cache {

namespace {

/// Hashes render as fixed-width hex strings: JSON numbers round-trip
/// through doubles in sloppy readers, and the report format already made
/// this choice for problem_hash.
std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Strict hex: false on empty, overlong, or non-hex input — a corrupt key
/// must skip its entry, not silently alias to key 0.
bool parseHex64(std::string_view s, std::uint64_t& out) {
  if (s.empty() || s.size() > 16) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return false;
    }
    v = (v << 4) | static_cast<std::uint64_t>(digit);
  }
  out = v;
  return true;
}

/// Defensive cap on persisted entries: a multi-gigabyte cache file should
/// degrade to a partial load, not an allocation storm.
constexpr std::size_t kMaxLoadEntries = 100000;

}  // namespace

ScheduleCache::ScheduleCache(std::size_t capacity, std::size_t shards)
    : numShards_(shards == 0 ? 1 : shards),
      capacityPerShard_((capacity == 0 ? 1 : capacity + numShards_ - 1) /
                        numShards_),
      shards_(std::make_unique<Shard[]>(numShards_)) {
  if (capacityPerShard_ == 0) capacityPerShard_ = 1;
}

std::shared_ptr<const CacheEntry> ScheduleCache::lookup(const CacheKey& key) {
  Shard& shard = shardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->second;
}

std::shared_ptr<const CacheEntry> ScheduleCache::peek(
    const CacheKey& key) const {
  Shard& shard = shardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return nullptr;
  return it->second->second;
}

void ScheduleCache::insert(const CacheKey& key, CacheEntry entry) {
  const std::uint64_t structuralHash = entry.structuralHash;
  auto stored = std::make_shared<const CacheEntry>(std::move(entry));
  // A replaced or evicted entry is freed after the shard lock, unless a
  // reader still holds it.
  std::shared_ptr<const CacheEntry> released;
  {
    Shard& shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      released = std::exchange(it->second->second, std::move(stored));
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      if (shard.map.size() >= capacityPerShard_) {
        shard.map.erase(shard.lru.back().first);
        released = std::move(shard.lru.back().second);
        shard.lru.pop_back();
        evictions_.fetch_add(1, std::memory_order_relaxed);
      }
      shard.lru.emplace_front(key, std::move(stored));
      shard.map.emplace(key, shard.lru.begin());
    }
    insertions_.fetch_add(1, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(structMu_);
  structIndex_[CacheKey{structuralHash, key.optionsFp}] = key;
}

std::shared_ptr<const CacheEntry> ScheduleCache::lookupStructural(
    std::uint64_t structuralHash, std::uint64_t optionsFp) {
  CacheKey primary;
  {
    std::lock_guard<std::mutex> lock(structMu_);
    auto it = structIndex_.find(CacheKey{structuralHash, optionsFp});
    if (it == structIndex_.end()) return nullptr;
    primary = it->second;
  }
  Shard& shard = shardFor(primary);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(primary);
  if (it == shard.map.end()) return nullptr;  // evicted since indexed
  return it->second->second;
}

CacheStats ScheduleCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.revalidations = revalidations_.load(std::memory_order_relaxed);
  s.warmStarts = warmStarts_.load(std::memory_order_relaxed);
  s.loadRejectedFiles = loadRejectedFiles_.load(std::memory_order_relaxed);
  s.loadSkippedEntries = loadSkippedEntries_.load(std::memory_order_relaxed);
  return s;
}

std::size_t ScheduleCache::size() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < numShards_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    total += shards_[i].map.size();
  }
  return total;
}

void ScheduleCache::exportMetrics(obs::MetricsRegistry& registry) const {
  const CacheStats s = stats();
  registry.add("cache.hits", s.hits);
  registry.add("cache.misses", s.misses);
  registry.add("cache.insertions", s.insertions);
  registry.add("cache.evictions", s.evictions);
  registry.add("cache.revalidations", s.revalidations);
  registry.add("cache.warm_starts", s.warmStarts);
  registry.add("cache.load_rejected_files", s.loadRejectedFiles);
  registry.add("cache.load_skipped_entries", s.loadSkippedEntries);
}

bool ScheduleCache::save(const std::string& path, std::string* error) const {
  std::ostringstream os;
  os << "{\n  \"schema\": 1,\n  \"entries\": [";
  bool first = true;
  // Oldest first per shard, so load()'s insert order recreates recency.
  for (std::size_t i = 0; i < numShards_; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.lru.rbegin(); it != shard.lru.rend(); ++it) {
      const CacheKey& key = it->first;
      const CacheEntry& e = *it->second;
      if (!first) os << ",";
      first = false;
      os << "\n    {\"problem_hash\": "
         << obs::json::escaped(hex64(key.problemHash))
         << ", \"options_fp\": " << obs::json::escaped(hex64(key.optionsFp))
         << ", \"structural_hash\": "
         << obs::json::escaped(hex64(e.structuralHash))
         << ", \"cost_mwt\": " << e.costMwt
         << ", \"finish\": " << e.finish.ticks()
         << ", \"proven_optimal\": " << (e.provenOptimal ? "true" : "false")
         << ", \"lp_runs\": " << e.stats.longestPathRuns
         << ", \"backtracks\": " << e.stats.backtracks
         << ", \"delays\": " << e.stats.delays
         << ", \"locks\": " << e.stats.locks
         << ", \"recursions\": " << e.stats.recursions
         << ", \"scans\": " << e.stats.scans
         << ", \"improvements\": " << e.stats.improvements
         << ", \"nodes\": " << e.nodesExplored
         << ", \"schedule\": " << obs::json::escaped(e.scheduleText) << "}";
    }
  }
  os << "\n  ]\n}\n";

  // Crash safety: the new document goes to a sibling temp file, reaches
  // the disk (fsync), and only then replaces `path` in one rename. A kill
  // at any point leaves either the old file or the new one, never a
  // truncated mix.
  const std::string body = os.str();
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    if (error != nullptr) *error = "cannot open " + tmp + " for writing";
    return false;
  }
  std::size_t written = 0;
  while (written < body.size()) {
    const ssize_t n =
        ::write(fd, body.data() + written, body.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    written += static_cast<std::size_t>(n);
  }
  const bool synced = written == body.size() && ::fsync(fd) == 0;
  if (::close(fd) != 0 || !synced) {
    ::unlink(tmp.c_str());
    if (error != nullptr) *error = "short write to " + tmp;
    return false;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    if (error != nullptr) *error = "cannot replace " + path;
    return false;
  }
  return true;
}

bool ScheduleCache::load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) error->clear();
    return false;  // no cache file yet: the normal cold start
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    loadRejectedFiles_.fetch_add(1, std::memory_order_relaxed);
    if (error != nullptr) *error = "read error on cache file " + path;
    return false;
  }
  const obs::json::ParseResult parsed = obs::json::parse(buffer.str());
  if (!parsed.ok || !parsed.value.isObject()) {
    loadRejectedFiles_.fetch_add(1, std::memory_order_relaxed);
    if (error != nullptr) {
      *error = "unparseable cache file " + path +
               (parsed.ok ? "" : ": " + parsed.error);
    }
    return false;
  }
  const obs::json::Value* schema = parsed.value.find("schema");
  if (schema == nullptr || schema->asInt() != 1) {
    // Wrong *or newer* schema: refuse the whole file rather than guess at
    // fields a future writer may have re-defined.
    loadRejectedFiles_.fetch_add(1, std::memory_order_relaxed);
    if (error != nullptr) *error = "unknown cache schema in " + path;
    return false;
  }
  const obs::json::Value* entries = parsed.value.find("entries");
  if (entries == nullptr || !entries->isArray()) return true;  // empty
  std::size_t loaded = 0;
  for (const obs::json::Value& v : entries->items) {
    if (loaded >= kMaxLoadEntries) {
      loadSkippedEntries_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const obs::json::Value* ph = v.isObject() ? v.find("problem_hash") : nullptr;
    const obs::json::Value* fp = v.isObject() ? v.find("options_fp") : nullptr;
    const obs::json::Value* text = v.isObject() ? v.find("schedule") : nullptr;
    CacheKey key;
    if (ph == nullptr || fp == nullptr || text == nullptr ||
        !ph->isString() || !fp->isString() || !text->isString() ||
        !parseHex64(ph->asString(), key.problemHash) ||
        !parseHex64(fp->asString(), key.optionsFp)) {
      // Malformed entry: a structured skip, never a failed load.
      loadSkippedEntries_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    CacheEntry e;
    e.scheduleText = text->asString();
    if (const auto* f = v.find("structural_hash")) {
      // Key fields gate the entry; a damaged structural hash only costs
      // the near-miss index, so degrade it to "absent" instead of
      // skipping an otherwise-servable entry.
      if (!parseHex64(f->asString(), e.structuralHash)) e.structuralHash = 0;
    }
    if (const auto* f = v.find("cost_mwt")) e.costMwt = f->asInt();
    if (const auto* f = v.find("finish")) e.finish = Time(f->asInt());
    if (const auto* f = v.find("proven_optimal")) {
      e.provenOptimal = f->asBool();
    }
    if (const auto* f = v.find("lp_runs")) e.stats.longestPathRuns = f->asUint();
    if (const auto* f = v.find("backtracks")) e.stats.backtracks = f->asUint();
    if (const auto* f = v.find("delays")) e.stats.delays = f->asUint();
    if (const auto* f = v.find("locks")) e.stats.locks = f->asUint();
    if (const auto* f = v.find("recursions")) e.stats.recursions = f->asUint();
    if (const auto* f = v.find("scans")) e.stats.scans = f->asUint();
    if (const auto* f = v.find("improvements")) {
      e.stats.improvements = f->asUint();
    }
    if (const auto* f = v.find("nodes")) e.nodesExplored = f->asUint();
    insert(key, std::move(e));
    ++loaded;
  }
  // Loading is bookkeeping, not traffic: leave hit/miss/insertion stats at
  // their pre-load values so the CLI reports only this run's activity.
  insertions_.fetch_sub(loaded, std::memory_order_relaxed);
  return true;
}

}  // namespace paws::cache
