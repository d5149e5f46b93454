// serve_bench — the end-to-end pawsd benchmark program.
//
//   serve_bench --pawsd PATH --run-dir DIR [--workload W] [--seed S]
//               [--trace 0|1] [--smoke]
//
// Per workload: prep (generate inputs, compute references; untimed) ->
// setup (spawn pawsd, warm-up pass; timed, three times, median reported)
// -> open phase (seeded Poisson arrivals) -> closed phase (4 waiting
// clients). --trace 1 skips the closed phase and adds the traced
// in-process replay that yields the per-layer metrics. --smoke runs every
// phase of every workload at a tiny fixed size and prints every metric.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit 0: valid run, every answer correct. 1: some request failed or was
// answered wrongly (the JSON says how many). 2: usage error, setup
// failure, or a run-validity guard tripped (no JSON: the numbers would
// not mean what they claim).
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "daemon_process.hpp"
#include "load.hpp"
#include "replay.hpp"

namespace bench {

namespace {

struct Options {
  std::vector<std::string> workloads;
  std::uint64_t seed = 1;
  bool trace = false;
  bool smoke = false;
  std::string pawsd;
  std::string runDir;
};

/// Open-phase counters reported exactly (per-layer "count" metrics).
const std::vector<std::string>& countedMetrics() {
  static const std::vector<std::string> names = {
      "cache.hits",          "cache.misses",
      "cache.insertions",    "cache.evictions",
      "cache.revalidations", "cache.warm_starts",
      "search.longest_path_runs", "search.backtracks",
      "search.delays",       "search.locks",
      "search.recursions",   "search.scans",
      "search.improvements", "exhaustive.nodes",
      "exhaustive.pruned_bound", "exhaustive.pruned_dominance",
      "exhaustive.pruned_symmetry", "longest_path.runs",
      "profile.incremental_updates", "profile.rebuilds",
      "profile.restores",    "exec.tasks_run",
      "exec.tasks_rejected", "serve.shed",
      "serve.mode_changes"};
  return names;
}

using Scrape = std::map<std::string, double>;

double counterDelta(const Scrape& before, const Scrape& after,
                    const std::string& name) {
  const std::string key = openMetricsName(name) + "_total";
  const auto a = after.find(key);
  const auto b = before.find(key);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// The samples of a per-request vector that exist (negative = none).
std::vector<double> present(const std::vector<double>& perRequest) {
  std::vector<double> out;
  for (const double v : perRequest) {
    if (v >= 0) out.push_back(v);
  }
  return out;
}

/// Percentile q of a per-request open-phase vector (latency, wake
/// lateness), robust to a host stall: computed over each run of
/// kSliceRequests consecutive arrivals (so p90 has fifty samples beyond
/// it), and the median of those is reported. A stall confined to fewer than
/// half the runs does not move it.
constexpr std::size_t kSliceRequests = 500;

double slicedPercentile(const std::vector<double>& perRequest, double q) {
  std::vector<double> perSlice;
  const std::size_t slices =
      std::max<std::size_t>(1, perRequest.size() / kSliceRequests);
  for (std::size_t s = 0; s < slices; ++s) {
    const std::size_t begin = s * perRequest.size() / slices;
    const std::size_t end = (s + 1) * perRequest.size() / slices;
    std::vector<double> slice;
    for (std::size_t i = begin; i < end; ++i) {
      if (perRequest[i] >= 0) slice.push_back(perRequest[i]);
    }
    if (!slice.empty()) perSlice.push_back(percentile(std::move(slice), q));
  }
  return median(std::move(perSlice));
}

/// Closed-phase throughput: answers per second in each whole second of the
/// window in which every client was busy, median over the seconds (a
/// shorter window is taken whole).
double slicedThroughput(const PhaseResult& closed) {
  const auto seconds = static_cast<std::size_t>(closed.steadySeconds);
  if (seconds < 2) {
    const auto inWindow = std::count_if(
        closed.doneSeconds.begin(), closed.doneSeconds.end(),
        [&](double t) { return t <= closed.steadySeconds; });
    return closed.steadySeconds > 0
               ? static_cast<double>(inWindow) / closed.steadySeconds
               : 0;
  }
  std::vector<double> perSecond(seconds, 0.0);
  for (const double t : closed.doneSeconds) {
    if (t < static_cast<double>(seconds)) {
      perSecond[static_cast<std::size_t>(t)] += 1;
    }
  }
  return median(std::move(perSecond));
}

/// CPUs given to pawsd: one per solver thread (--threads 2); its
/// connection threads share them.
constexpr std::size_t kDaemonCpus = 2;
/// The least CPUs a measured run needs: pawsd's, plus two for the four
/// client threads, which mostly wait for answers.
constexpr std::size_t kMinCpus = kDaemonCpus + 2;

/// The CPUs this process may use, split in two so that neither pawsd nor
/// the load generator takes CPU time from the other: the first
/// kDaemonCpus for pawsd, the rest for the clients. With fewer than
/// kMinCpus (smoke runs only) both sides share all of them.
struct CpuSplit {
  std::size_t usable = 0;
  cpu_set_t daemon;
  cpu_set_t clients;
};

CpuSplit splitCpus() {
  CpuSplit s;
  cpu_set_t all;
  CPU_ZERO(&all);
  CPU_ZERO(&s.daemon);
  CPU_ZERO(&s.clients);
  if (::sched_getaffinity(0, sizeof all, &all) != 0) return s;
  s.usable = static_cast<std::size_t>(CPU_COUNT(&all));
  if (s.usable < kMinCpus) {
    s.daemon = s.clients = all;
    return s;
  }
  std::size_t taken = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &all)) continue;
    CPU_SET(cpu, taken++ < kDaemonCpus ? &s.daemon : &s.clients);
  }
  return s;
}

/// Keeps a set of CPUs from idling while it lives, as the kernel's
/// idle=poll would: one SCHED_IDLE thread per CPU spins, and any other
/// thread that wakes on that CPU preempts it at once. A virtual CPU that
/// idles halts, and wakes again only when the host schedules it, which on
/// a shared host took milliseconds; that delay, not the code under test,
/// made the load generator late (README.md, "Sizing"). Used on the load
/// generator's CPUs only: pawsd's CPUs idle as they would in service. A
/// spinner that cannot lower its own priority does not spin.
class KeepAwake {
 public:
  explicit KeepAwake(const cpu_set_t& cpus) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &cpus)) {
        threads_.emplace_back([this, cpu] { spin(cpu); });
      }
    }
  }
  ~KeepAwake() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) t.join();
  }
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

 private:
  void spin(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    const sched_param idle{};
    if (::pthread_setaffinity_np(::pthread_self(), sizeof one, &one) != 0 ||
        ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &idle) != 0) {
      return;
    }
    while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  }

  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;  // after stop_, which they read
};

/// Pins the calling thread (and the threads it starts) to a CPU set until
/// destroyed, then restores its previous mask.
class ScopedAffinity {
 public:
  explicit ScopedAffinity(const cpu_set_t& cpus) {
    CPU_ZERO(&saved_);
    ok_ = ::sched_getaffinity(0, sizeof saved_, &saved_) == 0 &&
          ::sched_setaffinity(0, sizeof cpus, &cpus) == 0;
  }
  ~ScopedAffinity() {
    if (ok_) ::sched_setaffinity(0, sizeof saved_, &saved_);
  }
  ScopedAffinity(const ScopedAffinity&) = delete;
  ScopedAffinity& operator=(const ScopedAffinity&) = delete;

  [[nodiscard]] bool ok() const { return ok_; }

 private:
  cpu_set_t saved_;
  bool ok_ = false;
};

/// Checks that the daemon served each phase on the cache rungs the
/// workload was built for.
void checkRungs(const char* phase, const RungCounts& expect,
                const Scrape& before, const Scrape& after,
                std::vector<std::string>& problems) {
  const auto check = [&](const char* metric, std::uint64_t want) {
    const double got = counterDelta(before, after, metric);
    if (got != static_cast<double>(want)) {
      problems.push_back(std::string(phase) + ": " + metric + " = " +
                         std::to_string(static_cast<long long>(got)) +
                         ", expected " + std::to_string(want));
    }
  };
  check("cache.hits", expect.hits);
  check("cache.misses", expect.misses);
  check("cache.revalidations", expect.revalidations);
}

struct WorkloadResult {
  bool valid = false;
  /// The wake-lateness guard tripped: the host, not the commit, stalled
  /// the load generator.
  bool generatorLate = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
};

void printMetric(const std::string& name, const Metric& m) {
  std::printf("  %-30s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
}

WorkloadResult runWorkload(const Options& opt, const CpuSplit& cpus,
                           const std::string& name) {
  WorkloadResult result;
  WorkloadSpec spec;
  spec.name = name;
  spec.seed = opt.seed;
  spec.smoke = opt.smoke;
  spec.runDir = opt.runDir;

  const Clock::time_point prepStart = Clock::now();
  Workload w;
  std::string error;
  if (!prepareWorkload(spec, w, &error)) {
    std::fprintf(stderr, "serve_bench: %s: prep failed: %s\n", name.c_str(),
                 error.c_str());
    return result;
  }
  const double prepSeconds = secondsBetween(prepStart, Clock::now());
  // From here on this thread and every client thread it starts run on
  // the load generator's CPUs.
  const ScopedAffinity pinned(cpus.clients);
  if (!pinned.ok()) {
    std::fprintf(stderr, "serve_bench: cannot set CPU affinity\n");
    return result;
  }
  const KeepAwake awake(cpus.clients);

  const std::filesystem::path runDir(opt.runDir);
  const std::string socketPath =
      (runDir / ("pawsd-" + std::to_string(::getpid()) + ".sock")).string();
  const std::string address = "unix:" + socketPath;
  const std::string logPath = (runDir / "pawsd.log").string();
  const bool closedPhase = !opt.trace || opt.smoke;
  const bool traced = opt.trace || opt.smoke;

  // Setup: spawn + warm-up, timed. Repeated so setup_s is a median; the
  // last daemon carries on into the measured phases.
  const int setups = closedPhase && !opt.smoke ? 3 : 1;
  std::vector<double> setupSeconds;
  PhaseResult total;
  DaemonProcess daemon;
  for (int k = 0; k < setups; ++k) {
    std::vector<std::string> args = {"--cache-capacity",
                                     std::to_string(w.cacheCapacity)};
    if (!w.cacheFile.empty()) {
      // A fresh copy per daemon: a drained daemon rewrites its cache file.
      const std::filesystem::path dir = runDir / "daemon_cache";
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
      const std::filesystem::path file(w.cacheFile);
      std::filesystem::copy_file(file, dir / file.filename());
      args.insert(args.end(), {"--cache-dir", dir.string()});
    }
    const Clock::time_point t0 = Clock::now();
    bool started = false;
    {
      // pawsd, and every thread it starts, inherits this mask.
      const ScopedAffinity onDaemonCpus(cpus.daemon);
      if (!onDaemonCpus.ok()) error = "cannot set its CPU affinity";
      started = onDaemonCpus.ok() &&
                daemon.start(opt.pawsd, socketPath, args, logPath, &error);
    }
    if (!started) {
      std::fprintf(stderr, "serve_bench: %s: cannot start pawsd: %s\n",
                   name.c_str(), error.c_str());
      return result;
    }
    const PhaseResult warm = runWarmup(w, w.warmup, address);
    setupSeconds.push_back(secondsBetween(t0, Clock::now()));
    merge(total, warm);
    if (k + 1 < setups && !daemon.stop(&error)) {
      std::fprintf(stderr, "serve_bench: %s: %s\n", name.c_str(),
                   error.c_str());
      return result;
    }
  }

  Scrape afterWarmup, afterOpen, afterClosed;
  std::vector<std::string> invalid;
  const auto scrape = [&](Scrape& into) {
    if (!scrapeMetrics(address, into, &error)) invalid.push_back(error);
  };
  scrape(afterWarmup);
  checkRungs("warm-up", w.expectWarmup, Scrape(), afterWarmup, invalid);

  const double cpu0 = daemon.cpuSeconds();
  const PhaseResult open = runOpen(w, address);
  scrape(afterOpen);
  merge(total, open);
  checkRungs("open", w.expectOpen, afterWarmup, afterOpen, invalid);
  PhaseResult closed;
  afterClosed = afterOpen;
  if (closedPhase) {
    closed = runClosed(w, address);
    scrape(afterClosed);
    merge(total, closed);
    checkRungs("closed", w.expectClosed, afterOpen, afterClosed, invalid);
  }
  const double cpu1 = daemon.cpuSeconds();
  const double peakRss = daemon.peakRssMb();
  if (!daemon.stop(&error)) invalid.push_back(error);
  std::filesystem::remove_all(runDir / "daemon_cache");

  // Run-validity guards: a run that trips one records no numbers. Wake
  // lateness is judged over the same windows as the latencies it would
  // distort.
  const double lateP99 = slicedPercentile(open.wakeLatenessUs, 0.99);
  if (!opt.smoke && lateP99 > 1000) {
    result.generatorLate = true;
    invalid.push_back("generator wake lateness p99 " +
                      std::to_string(lateP99) + " us > 1 ms");
  }
  for (const char* counter : {"serve.shed", "serve.mode_changes",
                              "exec.tasks_rejected"}) {
    const double d = counterDelta(Scrape(), afterClosed, counter);
    if (d != 0) {
      invalid.push_back(std::string(counter) + " = " + std::to_string(d));
    }
  }
  for (const char* outcome : {"anytime", "deadline", "budget"}) {
    if (total.outcomes.count(outcome) != 0) {
      invalid.push_back(std::string("outcome ") + outcome + " seen");
    }
  }

  result.attempted = total.sent;
  result.failed = total.failed;
  const std::uint64_t answered = open.answered + closed.answered;

  std::printf("serve_bench: workload=%s seed=%llu prep=%.1fs open=%llu@%.0frps "
              "(latency samples %llu) closed=%llu wake_late_p99=%.0fus "
              "(whole phase %.0fus)\n",
              name.c_str(), static_cast<unsigned long long>(opt.seed),
              prepSeconds, static_cast<unsigned long long>(open.sent), w.rate,
              static_cast<unsigned long long>(open.answered),
              static_cast<unsigned long long>(closed.sent), lateP99,
              percentile(present(open.wakeLatenessUs), 0.99));
  std::printf("  %-30s %14llu count\n  %-30s %14.6g ratio\n", "wrong_answers",
              static_cast<unsigned long long>(total.wrong), "fail_share",
              total.sent == 0 ? 0.0
                              : static_cast<double>(total.failed) /
                                    static_cast<double>(total.sent));
  // The tail, for reading only: across seeded runs it repeats too loosely
  // on the 4-vCPU host it was sized on to carry a bound (README.md,
  // "Sizing").
  const std::vector<double> answeredUs = present(open.latencyUs);
  std::printf("  %-30s %14.6g ms (median of %zu-arrival windows)\n",
              "open_p90", slicedPercentile(open.latencyUs, 0.9) / 1000.0,
              kSliceRequests);
  std::printf("  %-30s %14.6g ms over %zu samples\n", "open_p99",
              percentile(answeredUs, 0.99) / 1000.0, answeredUs.size());
  if (!total.firstError.empty()) {
    std::fprintf(stderr, "serve_bench: %s: first failure: %s\n", name.c_str(),
                 total.firstError.c_str());
  }
  if (!invalid.empty()) {
    for (const std::string& why : invalid) {
      std::fprintf(stderr, "serve_bench: %s: invalid run: %s\n", name.c_str(),
                   why.c_str());
    }
    return result;
  }

  Metrics& m = result.metrics;
  if (closedPhase) {
    m["setup_s"] = {median(setupSeconds), "s"};
    m["p50_ms"] = {slicedPercentile(open.latencyUs, 0.5) / 1000.0, "ms"};
    m["throughput_rps"] = {slicedThroughput(closed), "req/s"};
    m["cpu_us_per_req"] = {
        answered == 0 ? 0 : (cpu1 - cpu0) * 1e6 / static_cast<double>(answered),
        "us"};
    m["peak_rss_mb"] = {peakRss, "MiB"};
  }
  if (traced) {
    // Mean, not median: trace.replay_ratio sets it against the replay's
    // mean, and optimal_small's mix of hits and proofs has no stable
    // median.
    const double serviceMean =
        open.serviceUs.empty()
            ? 0
            : std::accumulate(open.serviceUs.begin(), open.serviceUs.end(),
                              0.0) /
                  static_cast<double>(open.serviceUs.size());
    m["serve.transport_us"] = {percentile(open.transportUs, 0.5), "us"};
    m["serve.service_us"] = {serviceMean, "us"};
    for (const std::string& counter : countedMetrics()) {
      m[counter] = {counterDelta(afterWarmup, afterOpen, counter), "count"};
    }
    const auto ratio = [&](const char* num, const char* den) {
      const double d = counterDelta(afterWarmup, afterOpen, den);
      return d == 0 ? 0 : counterDelta(afterWarmup, afterOpen, num) / d;
    };
    const double hits = m["cache.hits"].value;
    const double probes = hits + m["cache.misses"].value;
    m["cache.hit_share"] = {probes == 0 ? 0 : hits / probes, "ratio"};
    m["pipeline.trial_ok_share"] = {
        ratio("pipeline.trials_ok", "pipeline.trials"), "ratio"};
    m["longest_path.incremental_share"] = {
        ratio("longest_path.incremental_runs", "longest_path.runs"), "ratio"};
    if (!replayTraced(w, serviceMean, m, &error)) {
      std::fprintf(stderr, "serve_bench: %s: %s\n", name.c_str(),
                   error.c_str());
      result.metrics.clear();
      return result;
    }
  }
  for (const auto& [metric, value] : m) printMetric(metric, value);
  result.valid = true;
  return result;
}

int usage(const char* message) {
  std::fprintf(stderr,
               "serve_bench: %s\nusage: serve_bench --pawsd PATH --run-dir DIR "
               "[--workload W] [--seed S] [--trace 0|1] [--smoke]\n",
               message);
  return 2;
}

void printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int run(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (value == nullptr) return usage(("missing value for " + arg).c_str());
    ++i;
    char* end = nullptr;
    if (arg == "--pawsd") {
      opt.pawsd = value;
    } else if (arg == "--run-dir") {
      opt.runDir = value;
    } else if (arg == "--workload") {
      opt.workloads.push_back(value);
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage("bad --seed");
    } else if (arg == "--trace") {
      if (std::string(value) != "0" && std::string(value) != "1") {
        return usage("--trace takes 0 or 1");
      }
      opt.trace = std::string(value) == "1";
    } else {
      return usage(("unknown flag " + arg).c_str());
    }
  }
  if (opt.pawsd.empty() || opt.runDir.empty()) {
    return usage("--pawsd and --run-dir are required");
  }
  if (opt.workloads.empty()) opt.workloads = workloadNames();
  for (const std::string& name : opt.workloads) {
    if (std::find(workloadNames().begin(), workloadNames().end(), name) ==
        workloadNames().end()) {
      return usage(("unknown workload " + name).c_str());
    }
  }
  // On fewer cores the generator would measure its own queue.
  const CpuSplit cpus = splitCpus();
  if (!opt.smoke && cpus.usable < kMinCpus) {
    std::fprintf(stderr, "serve_bench: needs %zu CPUs, has %zu\n", kMinCpus,
                 cpus.usable);
    return 2;
  }
  std::filesystem::create_directories(opt.runDir);

  const bool single = opt.workloads.size() == 1;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics all;
  for (const std::string& name : opt.workloads) {
    WorkloadResult r = runWorkload(opt, cpus, name);
    if (!r.valid && r.generatorLate) {
      // Inputs and daemon start afresh, so the second attempt measures the
      // same thing; a second stall ends the run with no numbers.
      std::fprintf(stderr, "serve_bench: %s: generator ran late, retrying\n",
                   name.c_str());
      r = runWorkload(opt, cpus, name);
    }
    if (!r.valid) return 2;
    correct = correct && r.failed == 0;
    attempted += r.attempted;
    failed += r.failed;
    for (const auto& [metric, value] : r.metrics) {
      all[single ? metric : name + "." + metric] = value;
    }
  }
  std::fflush(stdout);
  printJson(correct, attempted, failed, all);
  return correct ? 0 : 1;
}

}  // namespace bench

int main(int argc, char** argv) { return bench::run(argc, argv); }
