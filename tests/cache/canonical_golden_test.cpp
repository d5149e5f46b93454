// Cache-key goldens: the canonical form must hash exactly as the string-
// rendering canonicalizer of commit 798ae98 did, or every persisted cache
// would silently turn into misses.
//
// tests/cache/golden/canonical_keys.txt pins the kKeyOnly hash, the kFull
// hash and the structural hash of examples/data, the paper example and
// 500 generated problems (4-24 tasks) — with batteries and modes,
// positive-cycle instances (name-only task order), and quoted task names
// that sort below the anchor's "@" ("1x", " a", "!b", "@" itself).
// tests/cache/golden/parent_cache.json is a cache file that commit's
// ScheduleCache::save wrote after solving a fixed set of problems: every
// entry must load and serve as an exact hit with the same schedule text.
//
// Both files are written, not compared, when PAWS_RECORD_GOLDEN names an
// output directory; regenerate them only for an intended key change
// (which also needs a cache schema bump), or after adding an example file
// (then the keys of every other problem must come out unchanged).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cached_solve.hpp"
#include "cache/canonical.hpp"
#include "gen/random_problem.hpp"
#include "io/parser.hpp"
#include "io/schedule_io.hpp"
#include "model/paper_example.hpp"
#include "obs/json.hpp"

namespace paws::cache {
namespace {

namespace fs = std::filesystem;

const fs::path kGoldenDir = fs::path(PAWS_TEST_DATA_DIR) / "cache/golden";

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The same problem with tasks and resources renamed: ids, costs,
/// constraints, limits, battery and modes carry over unchanged.
Problem renamed(const Problem& p, std::size_t salt) {
  // Quoted spellings on both sides of '@' (0x40), and "@" itself, which
  // renders exactly like the anchor endpoint.
  static const char* const kTaskNames[] = {
      "@", "1x", " a", "!b", "?q", "@z", "0", "#h", "A", "a b", "~t", "_u"};
  Problem q(p.name());
  for (ResourceId r : p.resourceIds()) {
    q.addResource((salt % 2 == 0 ? " " : "") + p.resource(r).name);
  }
  std::size_t k = salt;
  for (TaskId v : p.taskIds()) {
    const Task& t = p.task(v);
    const std::size_t slot = k++ % std::size(kTaskNames);
    std::string name = kTaskNames[slot];
    if (v.index() > std::size(kTaskNames)) name += std::to_string(v.index());
    const TaskId id = q.addTask(name, t.delay, t.power, t.resource);
    if (t.criticality > 0) q.setCriticality(id, t.criticality);
  }
  for (const TimingConstraint& c : p.constraints()) {
    if (c.kind == TimingConstraint::Kind::kMinSeparation) {
      q.minSeparation(c.from, c.to, c.separation);
    } else {
      q.maxSeparation(c.from, c.to, c.separation);
    }
  }
  q.setMaxPower(p.maxPower());
  q.setMinPower(p.minPower());
  q.setBackgroundPower(p.backgroundPower());
  if (p.battery().has_value()) q.setBattery(*p.battery());
  for (const SystemMode& mode : p.modes()) q.addMode(mode);
  return q;
}

Problem generated(std::size_t i) {
  GeneratorConfig cfg;
  cfg.seed = static_cast<std::uint32_t>(7000 + i);
  cfg.numTasks = 4 + i % 21;
  cfg.numResources = 1 + i % 4;
  cfg.injectContradiction = i % 10 == 3;  // positive cycle
  cfg.powerFeasible = i % 6 != 0;
  cfg.backgroundPower =
      Watts::fromMilliwatts(static_cast<std::int64_t>(i % 3) * 250);
  Problem p = generateRandomProblem(cfg).problem;
  if (i % 3 == 1) {
    // Anchor constraints, whose "@" endpoint sorts among the task names.
    p.release(TaskId(1), Time(static_cast<std::int64_t>(i % 5)));
    p.deadline(TaskId(static_cast<std::uint32_t>(p.numTasks())),
               Time(100000));
  }
  if (i % 8 == 5) {
    for (TaskId v : p.taskIds()) {
      if (v.index() % 3 == 0) {
        p.setCriticality(v, static_cast<std::uint8_t>(1 + v.index() % 4));
      }
    }
  }
  if (i % 7 == 0) {
    BatteryTraits traits;
    traits.bands = {{Watts::fromMilliwatts(2000), 1250},
                    {Watts::fromMilliwatts(6000), 1600}};
    traits.recoverablePermille = static_cast<std::int64_t>(i % 400);
    traits.recoveryRate = Watts::fromMilliwatts(500);
    p.setBattery(traits);
  }
  if (i % 9 == 0) {
    p.addMode(SystemMode{"nominal", 255, 100, 100});
    p.addMode(SystemMode{"survival", static_cast<std::uint8_t>(i % 3), 90, 0});
  }
  if (i % 5 == 1) return renamed(p, i);
  return p;
}

std::vector<std::pair<std::string, Problem>> keyedProblems() {
  std::vector<std::pair<std::string, Problem>> out;
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(PAWS_EXAMPLES_DIR)) {
    files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& f : files) {
    io::ParseResult r = io::parseProblemFile(f.string());
    EXPECT_TRUE(r.ok()) << f;
    if (r.ok()) out.emplace_back("data/" + f.filename().string(), *r.problem);
  }
  out.emplace_back("paper_example", makePaperExampleProblem());
  for (std::size_t i = 0; i < 500; ++i) {
    out.emplace_back("gen/" + std::to_string(i), generated(i));
  }
  return out;
}

std::string keyLine(const std::string& label, const Problem& p) {
  const CanonicalForm keyOnly = canonicalize(p, CanonicalParts::kKeyOnly);
  const CanonicalForm full = canonicalize(p, CanonicalParts::kFull);
  return label + " " + hex(keyOnly.hash) + " " + hex(full.hash) + " " +
         hex(full.structuralHash);
}

TEST(CanonicalGoldenTest, KeysMatchTheStringRenderer) {
  const auto problems = keyedProblems();
  if (const char* dir = std::getenv("PAWS_RECORD_GOLDEN")) {
    std::ofstream out(fs::path(dir) / "canonical_keys.txt");
    for (const auto& [label, p] : problems) out << keyLine(label, p) << "\n";
    GTEST_SKIP() << "recorded " << problems.size() << " keys into " << dir;
  }
  std::ifstream in(kGoldenDir / "canonical_keys.txt");
  ASSERT_TRUE(in);
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);) expected.push_back(line);
  ASSERT_EQ(expected.size(), problems.size());
  for (std::size_t i = 0; i < problems.size(); ++i) {
    EXPECT_EQ(keyLine(problems[i].first, problems[i].second), expected[i]);
  }
}

/// The solves whose results the golden cache file holds. An `optimal`
/// miss also caches its pipeline warm-start seed, hence the pairs.
struct Solve {
  Problem problem;
  std::string scheduler;
};

std::vector<Solve> cachedSolves() {
  std::vector<Solve> solves;
  for (auto& [label, p] : keyedProblems()) {
    if (label.rfind("data/", 0) == 0) {
      solves.push_back({p, "pipeline"});
      solves.push_back({p, "serial"});
      solves.push_back({p, "list"});
    }
  }
  for (std::size_t i : {1u, 5u, 7u, 9u, 14u, 21u}) {
    solves.push_back({generated(i), "pipeline"});
  }
  for (std::size_t i : {0u, 21u, 42u}) {  // 4-task instances
    solves.push_back({generated(i), "optimal"});
    solves.push_back({generated(i), "pipeline"});
  }
  return solves;
}

SolveSpec specFor(const Solve& s) {
  SolveSpec spec;
  spec.scheduler = s.scheduler;
  spec.trials = 4;
  spec.jobs = 1;
  return spec;
}

TEST(ParentCacheFileTest, EveryEntryServesAsAnExactHit) {
  const std::vector<Solve> solves = cachedSolves();
  if (const char* dir = std::getenv("PAWS_RECORD_GOLDEN")) {
    ScheduleCache cache;
    for (const Solve& s : solves) {
      (void)solveThroughCache(&cache, s.problem, specFor(s));
    }
    std::string error;
    ASSERT_TRUE(cache.save((fs::path(dir) / "parent_cache.json").string(),
                           &error))
        << error;
    GTEST_SKIP() << "recorded " << cache.size() << " entries into " << dir;
  }

  const std::string path = (kGoldenDir / "parent_cache.json").string();
  std::ifstream in(path);
  ASSERT_TRUE(in);
  std::ostringstream body;
  body << in.rdbuf();
  const obs::json::ParseResult file = obs::json::parse(body.str());
  ASSERT_TRUE(file.ok) << file.error;
  std::map<std::pair<std::string, std::string>, std::string> stored;
  for (const obs::json::Value& e : file.value.find("entries")->items) {
    stored[{e.find("problem_hash")->asString(),
            e.find("options_fp")->asString()}] =
        e.find("schedule")->asString();
  }
  ASSERT_GE(stored.size(), 12u);

  ScheduleCache cache;
  std::string error;
  ASSERT_TRUE(cache.load(path, &error)) << error;
  ASSERT_EQ(cache.size(), stored.size());

  std::size_t served = 0;
  for (const Solve& s : solves) {
    const SolveSpec spec = specFor(s);
    const CacheKey key = exactKey(s.problem, spec);
    const auto it =
        stored.find({hex(key.problemHash), hex(key.optionsFp)});
    if (it == stored.end()) continue;  // never inserted (invalid answer)
    SolveInfo info;
    const std::optional<ScheduleResult> hit =
        tryServeExact(cache, s.problem, key, &info);
    ASSERT_TRUE(hit.has_value()) << s.problem.name() << " / " << s.scheduler;
    EXPECT_TRUE(info.cacheHit);
    EXPECT_EQ(io::scheduleToText(*hit->schedule, s.scheduler), it->second)
        << s.problem.name() << " / " << s.scheduler;
    stored.erase(it);
    ++served;
  }
  EXPECT_TRUE(stored.empty()) << stored.size() << " entries matched no solve";
  EXPECT_EQ(cache.stats().hits, served);
  EXPECT_EQ(cache.stats().misses, 0u);
}

}  // namespace
}  // namespace paws::cache
