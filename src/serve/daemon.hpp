// pawsd's engine room — a long-lived scheduling service over TCP or unix
// sockets.
//
// The robustness architecture, end to end:
//
//   accept thread ── FIFO of accepted fds ── resident connection threads
//                                                  │ misses only
//                                           bounded exec::Pool
//
//   * Resident connection threads: the acceptor pushes each accepted fd
//     onto a FIFO and wakes one parked connection thread; it starts a new
//     thread only when more fds wait than threads are idle. A thread
//     serves one connection at a time, closes its fd and parks for the
//     next. No thread retires before the drain, so the count settles at
//     about the peak of concurrently open connections — a one-connection-
//     per-request client pays no clone, exit or join per request.
//   * Accept back-off: when accept(2) fails for want of descriptors or
//     memory (EMFILE, ENFILE, ENOBUFS, ENOMEM) the acceptor waits one poll
//     tick before retrying, since the pending connection keeps the listen
//     fd readable and an immediate retry would spin a whole CPU.
//   * Exact hits inline: a request's cache key is computed once, on its
//     connection thread, and an exact cache hit is answered right there,
//     before admission, in every mode but reject_new and draining. Only
//     misses (solves) reach the pool, carrying the key with them.
//   * Admission control: solves enter the worker pool through
//     Pool::trySubmit against a hard queue bound. A full queue is an
//     immediate structured `overloaded`/`queue_full` response — the
//     client always learns its fate in one round trip, never via silent
//     latency.
//   * Per-request isolation: each request parses its own Problem, runs
//     under its own MetricsRegistry (folded into the daemon-wide registry
//     only at completion), its own RunBudget (client timeout_ms clamped
//     by the server, else the server default), and its own CancelSource —
//     fired when the client disconnects mid-solve, when the drain budget
//     expires, or never.
//   * Overload shedding: a ServiceLadder (serve/ladder.hpp) watches queue
//     depth and p99 service time and walks healthy → degraded (optimal
//     requests downgraded to the pipeline heuristic) → cache_only (solves
//     refused, exact hits still answered) → reject_new. Every transition
//     is a trace event and a serve.mode_changes count.
//   * Graceful drain: requestStop() (async-signal-safe: one atomic store)
//     makes run() stop accepting, refuse new work with
//     `overloaded`/`draining`, wait out in-flight solves up to the drain
//     budget, cancel stragglers (they return anytime results), close the
//     fds no thread has claimed, wake every parked thread, flush the
//     cache to --cache-dir, and join every thread before returning.
//   * Hard input caps: wire frames are bounded by io::kMaxSourceBytes
//     before allocation (serve/frame.hpp), request headers by
//     kMaxHeaderLines, problems by the io:: parser limits — the same
//     fuzz-hardened ceilings file input rides under.
//
// Counters (daemon-wide registry, scraped via a kMetricsRequest frame as
// OpenMetrics text): serve.accepted, serve.completed, serve.shed,
// serve.invalid, serve.cancelled, serve.deadline, serve.degraded,
// serve.cache_hits, serve.mode_changes, serve.drained,
// serve.connections_accepted, serve.connection_threads_started,
// serve.accept_errors, plus the serve.service_time_us histogram and the
// exec.*/cache.* exports.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/schedule_cache.hpp"
#include "exec/pool.hpp"
#include "guard/cancel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/frame.hpp"
#include "serve/ladder.hpp"

namespace paws::serve {

struct DaemonConfig {
  /// "tcp:<host>:<port>" (port 0 = ephemeral, see boundAddress()) or
  /// "unix:<path>".
  std::string address = "tcp:127.0.0.1:0";
  /// Worker threads solving requests (0 = exec::defaultJobs()).
  std::size_t solverThreads = 2;
  /// Intake queue bound (Pool::trySubmit capacity). Must be >= 1.
  std::size_t maxQueued = 16;
  /// Server-default RunBudget per request; a client timeout_ms may only
  /// shorten its own (both clamp at kMaxClientTimeoutMs).
  std::int64_t defaultTimeoutMs = 2000;
  /// How long a drain waits for in-flight work before cancelling it.
  std::int64_t drainBudgetMs = 2000;
  /// Slow-writer watchdog: a connection stalled mid-frame longer than
  /// this is answered `invalid`/`frame_timeout` and dropped. Idle
  /// connections *between* frames are left alone indefinitely.
  std::int64_t frameStallMs = 5000;
  /// Directory for ScheduleCache persistence ("" = in-memory only).
  std::string cacheDir;
  std::size_t cacheCapacity = 4096;
  LadderConfig ladder;
};

class Daemon {
 public:
  explicit Daemon(DaemonConfig config);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds, listens, loads any persisted cache, and starts the acceptor.
  /// False (with *error) on bind/listen failure.
  [[nodiscard]] bool start(std::string* error);

  /// The resolved listen address ("tcp:127.0.0.1:41873" / "unix:<path>"),
  /// valid after start() — how a supervisor learns an ephemeral port.
  [[nodiscard]] std::string boundAddress() const;

  /// Async-signal-safe stop request (one relaxed atomic store): the next
  /// acceptor poll tick begins the drain. Safe to call repeatedly.
  void requestStop() { stopRequested_.store(true, std::memory_order_relaxed); }

  /// Blocks until requestStop(), then drains: refuse new work, wait out
  /// in-flight solves up to drainBudgetMs, cancel stragglers, flush the
  /// cache, join every thread. Returns the process exit code (0 = clean).
  int run();

  [[nodiscard]] ServiceMode mode() const { return ladder_.mode(); }
  [[nodiscard]] const DaemonConfig& config() const { return config_; }

  /// Snapshot of the daemon-wide registry plus pool/cache exports — the
  /// kMetricsRequest scrape body is toOpenMetrics() of this.
  [[nodiscard]] obs::MetricsRegistry metricsSnapshot() const;

  /// The serve-event trace sink (shed / mode / drain events), readable
  /// after run() returns.
  [[nodiscard]] const obs::TraceSink& trace() const { return trace_; }

 private:
  /// One resident connection thread and its reusable slot.
  struct Connection {
    /// The connection being served, -1 while the thread is parked. Only
    /// the owning thread writes it, under connMu_.
    int fd = -1;
    std::thread thread;
    /// Cancels the connection's in-flight solve, if any. Guarded by
    /// cancelMu: the connection thread installs a fresh source per
    /// request while the drain thread fires the current one.
    std::mutex cancelMu;
    guard::CancelSource cancel;
    std::atomic<bool> solving{false};
  };

  void acceptLoop();
  /// A resident thread's life: claim the oldest accepted fd, serve it,
  /// close it, park; until drain() sets closing_.
  void connectionThread(Connection& conn);
  void connectionLoop(Connection& conn);
  /// Serves one kRequest payload; false when the connection must close.
  bool handleRequest(Connection& conn, const std::string& payload);
  bool sendFrame(int fd, FrameType type, std::string_view payload);
  void bumpServe(const char* name, std::uint64_t delta = 1);
  void foldMetrics(const obs::MetricsRegistry& perRequest);
  void observeLadder();
  void traceInstant(obs::TraceEventKind kind, const char* label,
                    std::int64_t value = 0);
  void drain();

  DaemonConfig config_;
  int listenFd_ = -1;
  std::string boundAddress_;
  /// Path to unlink on shutdown for unix sockets ("" otherwise).
  std::string unixPath_;

  exec::Pool pool_;
  cache::ScheduleCache cache_;
  ServiceLadder ladder_;

  std::atomic<bool> stopRequested_{false};
  std::atomic<bool> draining_{false};
  std::atomic<std::int64_t> inflight_{0};

  std::thread acceptor_;
  mutable std::mutex connMu_;
  /// Signalled once per accepted fd handed to a parked thread, and by
  /// drain() when closing_ is set.
  std::condition_variable connReady_;
  /// Accepted fds no thread has claimed yet, oldest first.
  std::deque<int> pendingFds_;
  /// Threads not serving a connection: parked, or started and not yet
  /// parked. The acceptor starts a thread when pendingFds_ outgrows it.
  std::size_t idleThreads_ = 0;
  /// Set by drain() phase 3: parked threads exit instead of waiting.
  bool closing_ = false;
  /// Every thread started, each with its slot. Grows (under connMu_)
  /// only on the acceptor, so once drain() has joined the acceptor it
  /// may walk the list to join the threads without the lock.
  std::vector<std::unique_ptr<Connection>> connections_;

  mutable std::mutex metricsMu_;
  obs::MetricsRegistry metrics_;

  /// TraceSink is single-writer; connection threads serialize through
  /// this mutex (shed/mode/drain events only — never per-byte traffic).
  std::mutex traceMu_;
  obs::TraceSink trace_;
};

}  // namespace paws::serve
