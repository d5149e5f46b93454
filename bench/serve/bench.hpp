// serve_bench — shared types of the end-to-end pawsd benchmark.
//
// The benchmark drives a real `pawsd` process over a unix socket with four
// seeded request workloads (workloads.cpp), checks every answer against a
// reference computed in-process before the daemon starts, and reports
// end-to-end numbers from the untraced daemon run plus a per-layer
// breakdown from a separate traced in-process replay (replay.cpp).
// README.md next to this file documents the workloads and every metric.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cache/cached_solve.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"

namespace bench {

using Clock = std::chrono::steady_clock;

/// Client threads and connections the load generator uses — never more
/// than the machine's cores, so the generator does not queue on itself.
inline constexpr std::size_t kClients = 4;

/// pawsd's own defaults (its flags start from a default DaemonConfig); the
/// in-process oracle and the traced replay run under the same ones.
inline const paws::serve::DaemonConfig kDaemonDefaults{};

/// The SolveSpec pawsd's Daemon::handleRequest builds for `request`: one
/// solver thread, the client's timeout or the daemon's default.
paws::cache::SolveSpec specFor(const paws::serve::Request& request);

inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double microsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// One admitted problem: its request bytes and its reference answer.
struct Slot {
  std::string wire;           ///< encoded kRequest frame
  std::size_t nameEnd = 0;    ///< wire offset of the problem name's end
  std::string problemName;
  std::string referenceText;  ///< io::scheduleToText of the answer
  std::uint64_t digest = 0;   ///< fnv1a64(referenceText)
  bool loaded = false;        ///< its cache entry comes from the file
};

/// One request. `copy` > 0 sends the slot's problem renamed to
/// "<name>_c<copy>": the canonical form includes the name, so to pawsd it
/// is a distinct problem (a cache miss), whose answer is the slot's with
/// the name replaced — a cold solve that needs no second reference solve.
struct Req {
  std::uint32_t slot = 0;
  std::uint32_t copy = 0;
  std::uint64_t digest = 0;  ///< expected answer digest
  /// Index, in the same phase list, of a request whose answer must arrive
  /// before this one is sent (-1: none). near_miss chains use it so the
  /// entry a variant revalidates from never depends on timing.
  std::int64_t after = -1;
};

/// Expected cache-rung deltas of one phase.
struct RungCounts {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t revalidations = 0;
};

/// The generated inputs of one workload run. Requests of a phase are sent
/// in list order by whichever client is free (one FIFO over kClients
/// connections); answers that depend on order are pinned by Req::after,
/// so the served rungs, and every per-layer count, are independent of
/// timing.
struct Workload {
  std::string name;
  /// pawsd's --cache-capacity (and the oracle's and replay's capacity).
  std::size_t cacheCapacity = kDaemonDefaults.cacheCapacity;
  /// Prep-written cache file each daemon loads through --cache-dir ("" =
  /// none).
  std::string cacheFile;
  /// One connection per request (one-shot clients) instead of keep-alive.
  bool connectionPerRequest = false;
  /// Open-phase arrival rate, requests per second.
  double rate = 0;

  std::vector<Slot> slots;
  std::vector<Req> warmup;
  std::vector<Req> open;
  std::vector<double> openDue;  ///< seconds from the phase start, ascending
  std::vector<Req> closed;

  RungCounts expectWarmup;
  RungCounts expectOpen;
  RungCounts expectClosed;
};

/// The frame `req` sends.
std::string wireOf(const Workload& w, const Req& req);

struct WorkloadSpec {
  std::string name;
  std::uint64_t seed = 1;
  bool smoke = false;
  /// Directory for prep files (the hit_replay cache file).
  std::string runDir;
};

/// The workload names, in run order.
const std::vector<std::string>& workloadNames();

/// Generates inputs and reference answers (the untimed prep phase).
/// Returns false with *error when the name is unknown or a check fails.
bool prepareWorkload(const WorkloadSpec& spec, Workload& out,
                     std::string* error);

/// fnv1a64 of schedule text — the digest pawsd reports, as a number.
std::uint64_t textDigest(std::string_view text);

/// One reported metric: name -> (value, unit).
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

}  // namespace bench
