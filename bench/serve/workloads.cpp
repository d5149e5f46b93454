// Workload generation and reference answers (the untimed prep phase).
//
// Every input is a pure function of (workload, --seed): problems come from
// paws::gen, are rendered with io::problemToText, and the daemon receives
// only those bytes.
//
// Admission: random instances have a heavy tail (a few percent of 8–24-task
// problems need 10^4–10^5 timing backtracks and run for 0.1–1 s), which
// would make throughput a lottery over seeds. A candidate is admitted only
// when its scheduler finishes it under tight backtrack / delay / node
// limits. A run that stays under the limits takes the same search path as
// the default-limit run pawsd does, so admission is deterministic and its
// result is the request's reference answer: exactly what
// cache::solveThroughCache returns on a miss. Requests whose answer depends
// on the cache's state (near-miss variants, the persisted hit_replay
// entries) are instead solved through solveThroughCache on a benchmark-
// owned cache fed in the order pawsd sees them. Every reference passes
// io::parseSchedule and the ScheduleValidator before it is used.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "base/check.hpp"
#include "base/hash.hpp"
#include "bench.hpp"
#include "cache/cached_solve.hpp"
#include "fault/rng.hpp"
#include "gen/random_problem.hpp"
#include "io/parser.hpp"
#include "io/schedule_io.hpp"
#include "io/writer.hpp"
#include "sched/exhaustive_scheduler.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/power_aware_scheduler.hpp"
#include "sched/serial_scheduler.hpp"
#include "serve/frame.hpp"
#include "serve/protocol.hpp"
#include "validate/validator.hpp"

namespace bench {

namespace {

using paws::fault::SplitMix64;
using paws::fault::mixSeed;

// Admission limits (see file header). Admitted pipeline solves take at
// most ~2 ms at 24 tasks, serial ones ~0.3 ms, optimal ones ~15 ms.
constexpr std::uint64_t kMaxBacktracks = 32;
constexpr std::uint64_t kMaxDelays = 128;
constexpr std::uint64_t kMaxSerialBacktracks = 64;
constexpr std::uint64_t kMaxExhaustiveNodes = 50000;

constexpr std::int64_t kOptimalTimeoutMs = 60000;

constexpr std::uint64_t kProblemSalt = 0x70726f626c656dULL;   // "problem"
constexpr std::uint64_t kScheduleSalt = 0x7363686564ULL;      // "sched"
constexpr std::uint64_t kArrivalSalt = 0x617272697665ULL;     // "arrive"
constexpr std::uint64_t kPickSalt = 0x7069636bULL;            // "pick"
constexpr std::uint64_t kVariantSalt = 0x76617269616e74ULL;   // "variant"

/// Length of each measured phase on the seed commit: the open phase's
/// arrivals span it, and the closed phase's fixed count lasted about as
/// long.
constexpr double kPhaseSeconds = 10;

/// Calibrated sizing of one workload (README.md, "Sizing"). `closedRps` is
/// the seed commit's closed-phase throughput, used only to give the closed
/// phase a fixed request count that lasts about kPhaseSeconds; `rate`, the
/// open-phase arrival rate R, is 20% of it.
struct Sizing {
  double rate;
  double closedRps;
};

Sizing sizingOf(const std::string& name) {
  if (name == "hit_replay") return {3300, 16500};
  if (name == "cold_unique") return {600, 3000};
  if (name == "near_miss") return {1200, 6000};
  return {144, 720};  // optimal_small
}

/// Runs fn(t) on `threads` threads and joins them all.
void runThreads(std::size_t threads,
                const std::function<void(std::size_t)>& fn) {
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(fn, t);
  for (std::thread& th : pool) th.join();
}

paws::Problem generateProblem(std::uint64_t seed, std::size_t minTasks,
                              std::size_t maxTasks) {
  SplitMix64 rng(seed);
  paws::GeneratorConfig config;
  config.seed = static_cast<std::uint32_t>(rng.next() & 0xffffffffULL);
  config.numTasks = minTasks + static_cast<std::size_t>(
                                   rng.next() % (maxTasks - minTasks + 1));
  config.numResources = 2 + static_cast<std::size_t>(rng.next() % 3);
  return paws::generateRandomProblem(config).problem;
}

/// `text` with its first `"<name>"` renamed to `"<name>_c<copy>"`.
std::string renamed(std::string_view text, const std::string& name,
                    std::uint32_t copy) {
  const std::size_t at = text.find('"' + name + '"');
  PAWS_CHECK(at != std::string_view::npos);
  const std::size_t end = at + 1 + name.size();
  std::string out(text.substr(0, end));
  out += "_c" + std::to_string(copy);
  out += text.substr(end);
  return out;
}

/// The reference schedule text of a cold solve that stays under the
/// admission limits, or nullopt (file header). Never throws: a CheckError
/// from the library rejects the candidate.
std::optional<std::string> admit(const paws::Problem& problem,
                                 const std::string& scheduler) {
  std::optional<paws::ScheduleResult> r;
  try {
    if (scheduler == "list") {
      r = paws::ListScheduler(problem).schedule();
    } else if (scheduler == "serial") {
      paws::TimingOptions options;
      options.maxBacktracks = kMaxSerialBacktracks;
      r = paws::SerialScheduler(problem, options).schedule();
      if (r->stats.backtracks >= kMaxSerialBacktracks) return std::nullopt;
    } else {
      // pipeline; for optimal also the admission of its warm-start seed.
      paws::PowerAwareOptions options;
      options.minPower.maxPower.timing.maxBacktracks = kMaxBacktracks;
      options.minPower.maxPower.maxDelays = kMaxDelays;
      r = paws::PowerAwareScheduler(problem, options).schedule();
      if (!r->ok() || r->stats.backtracks >= kMaxBacktracks ||
          r->stats.delays >= kMaxDelays) {
        return std::nullopt;
      }
      if (scheduler == "optimal") {
        paws::ExhaustiveOptions exhaustive;
        exhaustive.maxNodes = kMaxExhaustiveNodes;
        paws::ExhaustiveScheduler search(problem, exhaustive);
        r = search.schedule();
        if (!search.outcome().provenOptimal) return std::nullopt;
      }
    }
  } catch (const paws::CheckError&) {
    return std::nullopt;
  }
  // The list baseline ignores max separations, and pawsd serves its
  // violating schedules as `ok` (the cache, which re-validates, never hits
  // them): only validator-clean answers are admitted, for every scheduler.
  if (!r->ok() ||
      !paws::ScheduleValidator(problem).validate(*r->schedule).valid()) {
    return std::nullopt;
  }
  std::string text = paws::io::scheduleToText(*r->schedule, scheduler);
  const paws::io::ScheduleParseResult reparsed =
      paws::io::parseSchedule(text, problem);
  if (!reparsed.ok() ||
      !paws::ScheduleValidator(problem).validate(*reparsed.schedule).valid()) {
    return std::nullopt;
  }
  return text;
}

Slot makeSlot(const std::string& problemText, const std::string& scheduler,
              const std::string& problemName, std::string referenceText) {
  paws::serve::Request request;
  request.scheduler = scheduler;
  request.timeoutMs = scheduler == "optimal" ? kOptimalTimeoutMs : 0;
  request.problemText = problemText;
  Slot s;
  s.wire = paws::serve::encodeFrame(paws::serve::FrameType::kRequest,
                                    paws::serve::formatRequest(request));
  s.nameEnd = s.wire.find('"' + problemName + '"') + 1 + problemName.size();
  s.problemName = problemName;
  s.digest = textDigest(referenceText);
  s.referenceText = std::move(referenceText);
  return s;
}

/// Admits `count` slots in parallel; slot i is drawn from its own candidate
/// stream, so the result does not depend on thread timing.
std::vector<Slot> admitSlots(
    std::size_t count, std::uint64_t seed, std::size_t minTasks,
    std::size_t maxTasks,
    const std::function<std::string(std::size_t)>& schedulerOf) {
  std::vector<Slot> out(count);
  std::atomic<std::size_t> next{0};
  runThreads(kClients, [&](std::size_t) {
    for (std::size_t i = next++; i < count; i = next++) {
      const std::string scheduler = schedulerOf(i);
      for (std::uint64_t attempt = 0;; ++attempt) {
        const std::string text = paws::io::problemToText(generateProblem(
            mixSeed(seed, i * 1000003 + attempt, kProblemSalt), minTasks,
            maxTasks));
        // Admit what pawsd will see: the parsed text, not the generator's
        // object (declaration order can steer the heuristics).
        const paws::io::ParseResult parsed = paws::io::parseProblem(text);
        if (!parsed.ok()) continue;
        if (std::optional<std::string> reference =
                admit(*parsed.problem, scheduler)) {
          out[i] = makeSlot(text, scheduler, parsed.problem->name(),
                            std::move(*reference));
          break;
        }
      }
    }
  });
  return out;
}

Req reqFor(const Workload& w, std::uint32_t slot, std::uint32_t copy) {
  const Slot& s = w.slots[slot];
  const std::uint64_t digest =
      copy == 0 ? s.digest
                : textDigest(renamed(s.referenceText, s.problemName, copy));
  return {slot, copy, digest};
}

/// solveThroughCache exactly as pawsd calls it, on a benchmark-owned cache.
class Oracle {
 public:
  /// Error prefix of a request the workload must not send because pawsd
  /// would fail it too. Such a call inserted nothing, so the caller may
  /// draw another request instead.
  static constexpr std::string_view kRejected = "oracle: rejected: ";

  explicit Oracle(std::size_t capacity) : cache_(capacity) {}

  paws::cache::ScheduleCache& cache() { return cache_; }

  /// Solves one request (thread-safe); the answer's text lands in *text.
  bool solve(std::string_view wire, std::string* text,
             paws::cache::SolveInfo* info, std::string* error) {
    const paws::serve::ParseRequestResult request =
        paws::serve::parseRequest(wire.substr(paws::serve::kHeaderBytes));
    const paws::io::ParseResult problem =
        paws::io::parseProblem(request.request.problemText);
    if (!request.ok || !problem.ok()) {
      *error = "oracle: unparseable request";
      return false;
    }
    const paws::cache::SolveSpec spec = specFor(request.request);
    paws::ScheduleResult result;
    try {
      result = paws::cache::solveThroughCache(&cache_, *problem.problem, spec,
                                              info);
    } catch (const paws::CheckError& e) {
      *error = std::string(kRejected) + "library check failed: " + e.what();
      return false;
    }
    if (!result.ok() || info->stopReason != paws::guard::StopReason::kNone) {
      *error = std::string(kRejected) + "no clean solve";
      return false;
    }
    *text = paws::io::scheduleToText(*result.schedule, spec.scheduler);
    const paws::io::ScheduleParseResult reparsed =
        paws::io::parseSchedule(*text, *problem.problem);
    if (!reparsed.ok() || !paws::ScheduleValidator(*problem.problem)
                               .validate(*reparsed.schedule)
                               .valid()) {
      *error = "oracle: answer fails the ScheduleValidator";
      return false;
    }
    return true;
  }

  /// Solves an admitted slot and checks the answer against its reference.
  bool solveSlot(const Slot& slot, std::string* error) {
    std::string text;
    paws::cache::SolveInfo info;
    if (!solve(slot.wire, &text, &info, error)) return false;
    if (textDigest(text) != slot.digest) {
      *error = "oracle: " + slot.problemName +
               " differs from its admission reference";
      return false;
    }
    return true;
  }

 private:
  paws::cache::ScheduleCache cache_;
};

/// Runs `fn(i)` for i in [0, count) on kClients threads; false (with the
/// first error) when any call fails.
bool parallelChecked(std::size_t count,
                     const std::function<bool(std::size_t, std::string*)>& fn,
                     std::string* error) {
  std::atomic<std::size_t> next{0};
  std::atomic<bool> ok{true};
  std::mutex mu;
  runThreads(kClients, [&](std::size_t) {
    std::string local;
    for (std::size_t i = next++; i < count && ok; i = next++) {
      if (!fn(i, &local)) {
        ok = false;
        std::lock_guard<std::mutex> lock(mu);
        if (error->empty()) *error = local;
      }
    }
  });
  return ok;
}

/// Seeded Poisson arrivals at `w.rate`.
void makeArrivals(Workload& w, std::uint64_t seed) {
  SplitMix64 rng(mixSeed(seed, 0, kArrivalSalt));
  double t = 0;
  w.openDue.clear();
  for (std::size_t i = 0; i < w.open.size(); ++i) {
    // 53 random bits -> u in (0, 1].
    const double u =
        (static_cast<double>(rng.next() >> 11) + 1.0) / 9007199254740992.0;
    t += -std::log(u) / w.rate;
    w.openDue.push_back(t);
  }
}

struct PhaseSizes {
  std::size_t open = 0;
  std::size_t closed = 0;
};

PhaseSizes phaseSizes(const WorkloadSpec& spec) {
  if (spec.smoke) return {40, 40};
  const Sizing s = sizingOf(spec.name);
  return {static_cast<std::size_t>(std::llround(s.rate * kPhaseSeconds)),
          static_cast<std::size_t>(std::llround(s.closedRps * kPhaseSeconds))};
}

/// Measured request i goes into the open list while i < sizes.open and
/// the closed list after.
void deal(Workload& w, const PhaseSizes& sizes,
          const std::function<Req(std::size_t)>& reqOf) {
  for (std::size_t i = 0; i < sizes.open + sizes.closed; ++i) {
    (i < sizes.open ? w.open : w.closed).push_back(reqOf(i));
  }
}

// ---------------------------------------------------------------------------
// hit_replay: 2048 distinct pipeline/list problems, every measured request
// an exact hit; half the entries are loaded from a prep-written cache file
// (so they rebind by re-parsing schedule text), half are solved by the
// daemon's own warm-up (so they rebind from in-memory starts).

bool prepareHitReplay(const WorkloadSpec& spec, Workload& w,
                      std::string* error) {
  const std::size_t distinct = spec.smoke ? 64 : 2048;
  const std::size_t half = distinct / 2;
  w.slots = admitSlots(distinct, spec.seed, 8, 16, [&](std::size_t i) {
    SplitMix64 pick(mixSeed(spec.seed, i, kScheduleSalt));
    return pick.next() % 4 == 0 ? "list" : "pipeline";
  });

  // The persisted half: solved through a throwaway cache and saved the way
  // a drained pawsd saves it.
  Oracle writer(w.cacheCapacity);
  if (!parallelChecked(
          half,
          [&](std::size_t i, std::string* e) {
            return writer.solveSlot(w.slots[i], e);
          },
          error)) {
    return false;
  }
  const std::filesystem::path dir =
      std::filesystem::path(spec.runDir) / "hit_replay_cache";
  std::filesystem::create_directories(dir);
  w.cacheFile = (dir / paws::cache::ScheduleCache::kFileName()).string();
  if (!writer.cache().save(w.cacheFile, error)) return false;
  for (std::size_t i = 0; i < half; ++i) w.slots[i].loaded = true;

  for (std::size_t i = half; i < distinct; ++i) {
    w.warmup.push_back(reqFor(w, static_cast<std::uint32_t>(i), 0));
  }
  SplitMix64 pick(mixSeed(spec.seed, 0, kPickSalt));
  const PhaseSizes sizes = phaseSizes(spec);
  deal(w, sizes, [&](std::size_t) {
    return reqFor(w, static_cast<std::uint32_t>(pick.next() % distinct), 0);
  });
  w.expectWarmup = {0, distinct - half, 0};
  w.expectOpen = {sizes.open, 0, 0};
  w.expectClosed = {sizes.closed, 0, 0};
  return true;
}

// ---------------------------------------------------------------------------
// cold_unique: never-repeated 8–24-task problems, 70% pipeline / 15% list /
// 15% serial, one connection per request. Requests cycle through a pool of
// admitted problems, each send a renamed copy (see Req).

bool prepareColdUnique(const WorkloadSpec& spec, Workload& w,
                       std::string* /*error*/) {
  const std::size_t warmup = spec.smoke ? 20 : 2000;
  const std::size_t pool = spec.smoke ? 16 : 4096;
  w.slots = admitSlots(pool, spec.seed, 8, 24, [&](std::size_t i) {
    SplitMix64 pick(mixSeed(spec.seed, i, kScheduleSalt));
    const std::uint64_t roll = pick.next() % 100;
    return roll < 70 ? "pipeline" : roll < 85 ? "list" : "serial";
  });
  std::size_t k = 0;
  const auto nextReq = [&] {
    const Req r = reqFor(w, static_cast<std::uint32_t>(k % pool),
                         static_cast<std::uint32_t>(k / pool));
    ++k;
    return r;
  };
  for (std::size_t i = 0; i < warmup; ++i) w.warmup.push_back(nextReq());
  const PhaseSizes sizes = phaseSizes(spec);
  deal(w, sizes, [&](std::size_t) { return nextReq(); });
  w.connectionPerRequest = true;
  w.expectWarmup = {0, warmup, 0};
  w.expectOpen = {0, sizes.open, 0};
  w.expectClosed = {0, sizes.closed, 0};
  return true;
}

// ---------------------------------------------------------------------------
// near_miss: every measured request is a variant of a base problem the
// warm-up solved (a new Pmin, or Pmax raised by up to 10%) and reaches the
// near-miss rung: structural lookup, then a MinPower polish or a repair,
// then insert. Each base carries a fixed chain of variants, each
// revalidating from the entry its predecessor inserted. The measured
// requests cycle through chain instances (renamed copies of a base and its
// chain: the structural hash includes the name), and a variant is sent
// only once its predecessor has been answered (Req::after).

/// Solves base `b` and its chain of `length` variants through `oracle` in
/// chain order, appending the variants to `chain`; revalidated[k] records
/// whether variant k was served by the near-miss rung.
bool solveChain(Oracle& oracle, const Slot& base, std::size_t length,
                std::uint64_t seed, std::vector<Slot>& chain,
                std::vector<bool>& revalidated, std::string* error) {
  if (!oracle.solveSlot(base, error)) return false;
  const paws::Problem problem =
      *paws::io::parseProblem(base.wire.substr(base.wire.find("---\n") + 4))
           .problem;
  const std::int64_t pmax = problem.maxPower().milliwatts();
  const std::int64_t pmin = problem.minPower().milliwatts();
  // Each (Pmin, Pmax) once per chain: no variant is an exact hit.
  std::set<std::pair<std::int64_t, std::int64_t>> used = {{pmin, pmax}};
  SplitMix64 rng(seed);
  while (chain.size() < length) {
    std::int64_t newPmin = pmin;
    std::int64_t newPmax = pmax;
    if (rng.next() % 2 == 0) {
      newPmin = rng.range(pmax / 4, (pmax * 3) / 4);
    } else {
      newPmax = pmax + rng.range(1, std::max<std::int64_t>(1, pmax / 10));
    }
    if (!used.emplace(newPmin, newPmax).second) continue;
    paws::Problem variant = problem;
    variant.setMinPower(paws::Watts::fromMilliwatts(newPmin));
    variant.setMaxPower(paws::Watts::fromMilliwatts(newPmax));
    std::string text;
    paws::cache::SolveInfo info;
    Slot s = makeSlot(paws::io::problemToText(variant), "pipeline",
                      problem.name(), "");
    if (!oracle.solve(s.wire, &text, &info, error)) {
      if (error->rfind(Oracle::kRejected, 0) != 0) return false;
      error->clear();
      continue;
    }
    s.digest = textDigest(text);
    s.referenceText = std::move(text);
    chain.push_back(std::move(s));
    revalidated.push_back(info.revalidated);
  }
  return true;
}

bool prepareNearMiss(const WorkloadSpec& spec, Workload& w,
                     std::string* error) {
  const std::size_t bases = spec.smoke ? 8 : 256;
  const std::size_t instances = spec.smoke ? 16 : 1024;  // renamed chains
  const PhaseSizes sizes = phaseSizes(spec);
  const std::size_t length =
      (sizes.open + sizes.closed + instances - 1) / instances;
  w.slots = admitSlots(bases, spec.seed, 8, 16,
                       [](std::size_t) { return "pipeline"; });
  // A chain's next variant arrives `instances` inserts after its last one:
  // far below this capacity, so the entry it revalidates from is never
  // evicted.
  w.cacheCapacity = 16384;
  Oracle oracle(w.cacheCapacity);
  std::vector<std::vector<Slot>> chains(bases);
  std::vector<std::vector<bool>> revalidated(bases);
  if (!parallelChecked(
          bases,
          [&](std::size_t b, std::string* e) {
            return solveChain(oracle, w.slots[b], length,
                              mixSeed(spec.seed, b, kVariantSalt), chains[b],
                              revalidated[b], e);
          },
          error)) {
    return false;
  }
  // chainSlot[b][k]: the slot of variant k of base b.
  std::vector<std::vector<std::uint32_t>> chainSlot(bases);
  for (std::size_t b = 0; b < bases; ++b) {
    for (Slot& s : chains[b]) {
      chainSlot[b].push_back(static_cast<std::uint32_t>(w.slots.size()));
      w.slots.push_back(std::move(s));
    }
  }

  // Measured request i advances instance i % instances by one chain step,
  // after the instance's previous step (i - instances) has been answered.
  for (std::size_t k = 0; k < instances; ++k) {
    w.warmup.push_back(reqFor(w, static_cast<std::uint32_t>(k % bases),
                              static_cast<std::uint32_t>(k / bases)));
  }
  w.expectWarmup = {0, instances, 0};
  deal(w, sizes, [&](std::size_t i) {
    const std::size_t instance = i % instances;
    const std::size_t b = instance % bases;
    const std::size_t step = i / instances;
    const bool open = i < sizes.open;
    RungCounts& expect = open ? w.expectOpen : w.expectClosed;
    ++expect.misses;
    expect.revalidations += revalidated[b][step] ? 1 : 0;
    Req r = reqFor(w, chainSlot[b][step],
                   static_cast<std::uint32_t>(instance / bases));
    // The previous step of a chain is in the same list or fully answered
    // with the open phase.
    const std::size_t local = open ? i : i - sizes.open;
    if (local >= instances) {
      r.after = static_cast<std::int64_t>(local - instances);
    }
    return r;
  });
  return true;
}

// ---------------------------------------------------------------------------
// optimal_small: exhaustive search on 4–6-task problems; two in three
// measured requests are new problems (renamed copies from an admitted
// pool), one in three repeats a problem proven in warm-up. Not half and
// half: then the median latency falls on the edge between fast repeats and
// proofs, where it moved by a quarter between runs (README.md, "Sizing").

bool prepareOptimalSmall(const WorkloadSpec& spec, Workload& w,
                         std::string* /*error*/) {
  const std::size_t warmup = spec.smoke ? 8 : 128;
  const std::size_t pool = spec.smoke ? 16 : 512;
  w.slots = admitSlots(pool, spec.seed, 4, 6,
                       [](std::size_t) { return "optimal"; });
  // Room for every entry a run inserts, so a warm-up proof that goes
  // unrequested for a while is never evicted and its repeat stays a hit.
  w.cacheCapacity = 16384;
  for (std::size_t i = 0; i < warmup; ++i) {
    w.warmup.push_back(reqFor(w, static_cast<std::uint32_t>(i), 0));
  }
  SplitMix64 pick(mixSeed(spec.seed, 0, kPickSalt));
  std::size_t fresh = 0;
  const PhaseSizes sizes = phaseSizes(spec);
  w.expectWarmup = {0, warmup, 0};
  deal(w, sizes, [&](std::size_t i) {
    RungCounts& expect = i < sizes.open ? w.expectOpen : w.expectClosed;
    if (i % 3 == 2) {
      ++expect.hits;
      return reqFor(w, static_cast<std::uint32_t>(pick.next() % warmup), 0);
    }
    ++expect.misses;
    const std::size_t f = fresh++;
    return reqFor(w, static_cast<std::uint32_t>(f % pool),
                  static_cast<std::uint32_t>(1 + f / pool));
  });
  return true;
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {
      "hit_replay", "cold_unique", "near_miss", "optimal_small"};
  return names;
}

std::uint64_t textDigest(std::string_view text) { return paws::fnv1a64(text); }

paws::cache::SolveSpec specFor(const paws::serve::Request& request) {
  paws::cache::SolveSpec spec;
  spec.scheduler = request.scheduler;
  spec.trials = request.trials;
  spec.jobs = 1;
  spec.budget.timeout = std::chrono::milliseconds(
      request.timeoutMs > 0 ? request.timeoutMs
                            : kDaemonDefaults.defaultTimeoutMs);
  spec.budget = spec.budget.resolved();
  return spec;
}

std::string wireOf(const Workload& w, const Req& req) {
  const Slot& s = w.slots[req.slot];
  if (req.copy == 0) return s.wire;
  const std::string suffix = "_c" + std::to_string(req.copy);
  std::string wire;
  wire.reserve(s.wire.size() + suffix.size());
  wire.append(s.wire, 0, s.nameEnd);
  wire += suffix;
  wire.append(s.wire, s.nameEnd, std::string::npos);
  // Patch the big-endian payload length of the 12-byte frame header.
  const std::size_t length = wire.size() - paws::serve::kHeaderBytes;
  for (int i = 0; i < 4; ++i) {
    wire[8 + i] = static_cast<char>((length >> (8 * (3 - i))) & 0xff);
  }
  return wire;
}

bool prepareWorkload(const WorkloadSpec& spec, Workload& out,
                     std::string* error) {
  out = Workload();
  out.name = spec.name;
  out.rate = spec.smoke ? 200 : sizingOf(spec.name).rate;
  bool ok = false;
  if (spec.name == "hit_replay") {
    ok = prepareHitReplay(spec, out, error);
  } else if (spec.name == "cold_unique") {
    ok = prepareColdUnique(spec, out, error);
  } else if (spec.name == "near_miss") {
    ok = prepareNearMiss(spec, out, error);
  } else if (spec.name == "optimal_small") {
    ok = prepareOptimalSmall(spec, out, error);
  } else {
    *error = "unknown workload: " + spec.name;
    return false;
  }
  if (ok) makeArrivals(out, spec.seed);
  return ok;
}

}  // namespace bench
