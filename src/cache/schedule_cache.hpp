// ScheduleCache — thread-safe sharded-LRU store of solved schedules.
//
// The reuse-over-resolve half of the pawsd story: repeated traffic (the
// same problem scheduled again — next CLI invocation, next mission
// iteration, next batch file) is served from here in microseconds instead
// of re-running search. Keys are `(canonical problem hash, options
// fingerprint)` from cache/canonical.hpp; values carry the schedule as
// `.paws` schedule text — rebindable by task *name* against any Problem
// instance with the same canonical form, whatever its declaration order —
// plus the solve's cost/finish/provenOptimal verdict and a small effort
// snapshot so cache hits reprint the same numbers the original solve did.
//
// Concurrency: the map is split into shards, each guarded by its own
// mutex around an intrusive LRU list — `pawsc` batch workers on the
// paws::exec pool hit different shards mostly contention-free. Entries
// are immutable and shared: a probe returns the stored pointer (one
// reference count under the shard lock, no copy), and an insert swaps in
// a new pointer, so a reader still holding the old entry keeps it whole
// through overwrites and evictions. Stats are relaxed atomics. A secondary structural index (structural hash →
// primary key) powers the near-miss path; it is best-effort and may point
// at evicted entries, in which case the probe simply misses.
//
// Persistence (`--cache-dir`): save()/load() round-trip every live entry
// through a single JSON file so successive CLI invocations hit too. The
// format is versioned ("schema": 1); unreadable files or entries are
// skipped, never fatal — a corrupt cache costs time, not correctness
// (served entries are re-validated against the querying problem anyway,
// see cached_solve.cpp). save() replaces the file atomically (temp file,
// fsync, rename), so a crash mid-flush keeps the previous file whole.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/hash.hpp"
#include "base/time.hpp"
#include "obs/metrics.hpp"
#include "sched/result.hpp"

namespace paws::cache {

struct CacheKey {
  std::uint64_t problemHash = 0;  ///< CanonicalForm::hash
  std::uint64_t optionsFp = 0;    ///< optionsFingerprint(...)
  [[nodiscard]] bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
  [[nodiscard]] std::size_t operator()(const CacheKey& k) const noexcept {
    return static_cast<std::size_t>(k.problemHash ^
                                    (k.optionsFp * kFnv1a64Prime));
  }
};

struct CacheEntry {
  /// io::scheduleToText() output; rebinds by task name via parseSchedule.
  std::string scheduleText;
  /// Pre-split (task name, start ticks) pairs — the same assignment as
  /// `scheduleText`, kept so an in-process exact hit can rebind by name
  /// lookup instead of re-parsing the text. In-memory only: save() does
  /// not persist it (the text is the durable form), so entries loaded
  /// from disk carry an empty vector and fall back to parseSchedule.
  std::vector<std::pair<std::string, std::int64_t>> startsByName;
  /// Schedule::energyCost(pmin) of the cached solve, in milliwatt-ticks.
  std::int64_t costMwt = 0;
  Time finish = Time::zero();
  /// True only for exhaustive solves that completed within their budgets.
  bool provenOptimal = false;
  /// CanonicalForm::structuralHash of the producing problem.
  std::uint64_t structuralHash = 0;
  // Effort snapshot of the producing solve, so a hit reports the numbers
  // the original solve did (batch rows print lp-runs, `pawsc schedule`
  // prints the whole effort block, benches read nodesExplored).
  SchedulerStats stats;
  std::uint64_t nodesExplored = 0;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Near-miss structural hits served through revalidation/repair.
  std::uint64_t revalidations = 0;
  /// Cold solves that ran with a cache/heuristic-seeded incumbent.
  std::uint64_t warmStarts = 0;
  /// Persisted files refused whole (unparseable, wrong/newer schema,
  /// stream error) — each is a structured skip, never an abort.
  std::uint64_t loadRejectedFiles = 0;
  /// Individual persisted entries dropped during a load (missing fields,
  /// bad hex keys, wrong types, over the entry cap).
  std::uint64_t loadSkippedEntries = 0;
};

class ScheduleCache {
 public:
  /// `capacity` entries total across `shards` shards (both clamped to at
  /// least 1; capacity is rounded up to a multiple of the shard count).
  explicit ScheduleCache(std::size_t capacity = 4096,
                         std::size_t shards = 8);

  /// Exact-key probe; counts a hit or a miss and refreshes LRU recency.
  /// Null on a miss.
  [[nodiscard]] std::shared_ptr<const CacheEntry> lookup(const CacheKey& key);

  /// Exact-key probe that is NOT request traffic: no hit/miss counted, no
  /// recency refresh. Used by the warm-start seed probe, which is an
  /// optimization inside one request, not a second request.
  [[nodiscard]] std::shared_ptr<const CacheEntry> peek(
      const CacheKey& key) const;

  /// Inserts or overwrites (replacing the stored pointer, never the entry
  /// it points to); evicts the least-recently-used entry of the target
  /// shard when it is full.
  void insert(const CacheKey& key, CacheEntry entry);

  /// Near-miss probe: an entry whose *structural* hash matches, under the
  /// same options fingerprint, whatever its full canonical hash. Does not
  /// count toward hits/misses (the caller records a revalidation when the
  /// candidate actually serves) and does not refresh recency.
  [[nodiscard]] std::shared_ptr<const CacheEntry> lookupStructural(
      std::uint64_t structuralHash, std::uint64_t optionsFp);

  // Outcome counters owned by the resolver's logic, kept here so one
  // object aggregates the whole story across batch workers.
  void noteRevalidation() {
    revalidations_.fetch_add(1, std::memory_order_relaxed);
  }
  void noteWarmStart() { warmStarts_.fetch_add(1, std::memory_order_relaxed); }

  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] std::size_t size() const;

  /// Folds the stats into `registry` as cache.* counters (cache.hits,
  /// cache.misses, cache.insertions, cache.evictions, cache.revalidations,
  /// cache.warm_starts, cache.load_rejected_files,
  /// cache.load_skipped_entries) — the --obs-summary / RunReport surface.
  void exportMetrics(obs::MetricsRegistry& registry) const;

  /// Writes every live entry as one JSON document, crash-safely: into the
  /// sibling temp file `<path>.tmp.<pid>`, fsync'ed, then renamed over
  /// `path`. Returns false (with `*error` set when non-null) on I/O
  /// failure, leaving any previous file at `path` untouched.
  bool save(const std::string& path, std::string* error = nullptr) const;
  /// Merges entries from `path` into the cache (oldest first, so recency
  /// survives a round trip). Missing file => false with empty error: a
  /// cold cache directory is the normal first-run state. A truncated,
  /// corrupt, or newer-schema file => false with a descriptive error and
  /// a loadRejectedFiles count — a structured skip the caller may log and
  /// continue past; load() itself never throws or aborts. Malformed
  /// individual entries inside a parseable file are dropped and counted
  /// in loadSkippedEntries while the healthy remainder still loads.
  bool load(const std::string& path, std::string* error = nullptr);

  /// File name used inside a --cache-dir directory.
  [[nodiscard]] static const char* kFileName() { return "paws_cache.json"; }

 private:
  using Slot = std::pair<CacheKey, std::shared_ptr<const CacheEntry>>;
  struct Shard {
    mutable std::mutex mu;
    /// Most-recent entry at the front.
    std::list<Slot> lru;
    std::unordered_map<CacheKey, std::list<Slot>::iterator, CacheKeyHash> map;
  };

  [[nodiscard]] Shard& shardFor(const CacheKey& key) const {
    return shards_[CacheKeyHash{}(key) % numShards_];
  }

  std::size_t numShards_;
  std::size_t capacityPerShard_;
  std::unique_ptr<Shard[]> shards_;

  mutable std::mutex structMu_;
  /// (structuralHash, optionsFp) -> most recent primary key.
  std::unordered_map<CacheKey, CacheKey, CacheKeyHash> structIndex_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> revalidations_{0};
  std::atomic<std::uint64_t> warmStarts_{0};
  std::atomic<std::uint64_t> loadRejectedFiles_{0};
  std::atomic<std::uint64_t> loadSkippedEntries_{0};
};

}  // namespace paws::cache
