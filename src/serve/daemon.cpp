#include "serve/daemon.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>

#include "cache/cached_solve.hpp"
#include "guard/budget.hpp"
#include "io/parser.hpp"
#include "io/schedule_io.hpp"
#include "obs/export.hpp"
#include "serve/protocol.hpp"

namespace paws::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// How long the acceptor and the connection threads block in poll(2)
/// before re-checking their stop flags.
constexpr int kPollTickMs = 100;

std::int64_t usBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::microseconds>(b - a).count();
}

/// Parsed form of DaemonConfig::address.
struct Address {
  bool ok = false;
  bool isUnix = false;
  std::string host;
  std::uint16_t port = 0;
  std::string path;
  std::string error;
};

Address parseAddress(const std::string& spec) {
  Address a;
  if (spec.rfind("unix:", 0) == 0) {
    a.isUnix = true;
    a.path = spec.substr(5);
    if (a.path.empty() || a.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      a.error = "bad unix socket path";
      return a;
    }
    a.ok = true;
    return a;
  }
  std::string rest = spec;
  if (rest.rfind("tcp:", 0) == 0) rest = rest.substr(4);
  const std::size_t colon = rest.rfind(':');
  if (colon == std::string::npos) {
    a.error = "address must be tcp:<host>:<port> or unix:<path>";
    return a;
  }
  a.host = rest.substr(0, colon);
  const std::string portText = rest.substr(colon + 1);
  char* end = nullptr;
  const long port = std::strtol(portText.c_str(), &end, 10);
  if (end == portText.c_str() || *end != '\0' || port < 0 || port > 65535) {
    a.error = "bad port";
    return a;
  }
  a.port = static_cast<std::uint16_t>(port);
  a.ok = true;
  return a;
}

/// Blocking full-buffer send; false on any error (peer gone).
bool sendAll(int fd, const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t sent = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(sent);
  }
  return true;
}

/// True when the peer has orderly-closed or errored (NOT when it merely
/// has pipelined bytes waiting — those are future requests, not a hangup).
bool peerGone(int fd) {
  pollfd p{fd, POLLIN, 0};
  const int rc = ::poll(&p, 1, 0);
  if (rc <= 0) return false;
  if ((p.revents & (POLLERR | POLLNVAL)) != 0) return true;
  if ((p.revents & POLLIN) != 0) {
    char probe;
    const ssize_t n = ::recv(fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
    if (n == 0) return true;                       // orderly shutdown
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return true;
    }
  }
  // POLLHUP alone with readable data still pending means the final
  // request deserves its response; peerGone stays false until drained.
  return (p.revents & POLLHUP) != 0 && (p.revents & POLLIN) == 0;
}

const char* outcomeOf(SchedStatus status, bool hasSchedule) {
  switch (status) {
    case SchedStatus::kOk:
      return "ok";
    case SchedStatus::kDeadlineExceeded:
      return hasSchedule ? "anytime" : "deadline";
    case SchedStatus::kBudgetExhausted:
      return "budget";
    case SchedStatus::kTimingInfeasible:
    case SchedStatus::kPowerInfeasible:
      return "infeasible";
    case SchedStatus::kInvalidInput:
      return "invalid";
  }
  return "error";
}

}  // namespace

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)),
      pool_(config_.solverThreads,
            config_.maxQueued == 0 ? 1 : config_.maxQueued),
      cache_(config_.cacheCapacity),
      ladder_(config_.ladder) {
  // Present from the first scrape, so an alert on it reads 0, not absent.
  metrics_.add("serve.accept_errors", 0);
}

Daemon::~Daemon() {
  requestStop();
  if (acceptor_.joinable()) drain();
  if (listenFd_ >= 0) ::close(listenFd_);
}

bool Daemon::start(std::string* error) {
  const Address addr = parseAddress(config_.address);
  if (!addr.ok) {
    if (error != nullptr) *error = addr.error;
    return false;
  }
  int fd = -1;
  if (addr.isUnix) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      if (error != nullptr) *error = std::strerror(errno);
      return false;
    }
    ::unlink(addr.path.c_str());  // stale socket from a crashed run
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, addr.path.c_str(), sizeof(sa.sun_path) - 1);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
      if (error != nullptr) *error = std::strerror(errno);
      ::close(fd);
      return false;
    }
    unixPath_ = addr.path;
    boundAddress_ = "unix:" + addr.path;
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      if (error != nullptr) *error = std::strerror(errno);
      return false;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(addr.port);
    if (::inet_pton(AF_INET, addr.host.c_str(), &sa.sin_addr) != 1) {
      if (error != nullptr) *error = "bad host (IPv4 literal required)";
      ::close(fd);
      return false;
    }
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
      if (error != nullptr) *error = std::strerror(errno);
      ::close(fd);
      return false;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
    char ip[INET_ADDRSTRLEN] = "?";
    ::inet_ntop(AF_INET, &bound.sin_addr, ip, sizeof ip);
    boundAddress_ =
        "tcp:" + std::string(ip) + ":" + std::to_string(ntohs(bound.sin_port));
  }
  if (::listen(fd, 64) != 0) {
    if (error != nullptr) *error = std::strerror(errno);
    ::close(fd);
    return false;
  }
  listenFd_ = fd;

  if (!config_.cacheDir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.cacheDir, ec);
    const std::string cachePath =
        (std::filesystem::path(config_.cacheDir) /
         cache::ScheduleCache::kFileName())
            .string();
    std::string loadError;
    if (!cache_.load(cachePath, &loadError) && !loadError.empty()) {
      // Structured skip: a damaged cache costs warm starts, not uptime.
      std::fprintf(stderr, "pawsd: cache skipped: %s\n", loadError.c_str());
    }
  }

  acceptor_ = std::thread([this] { acceptLoop(); });
  return true;
}

std::string Daemon::boundAddress() const { return boundAddress_; }

int Daemon::run() {
  // The acceptor returns within one poll tick of requestStop(); this
  // thread then supervises the drain.
  if (acceptor_.joinable()) acceptor_.join();
  drain();
  return 0;
}

void Daemon::acceptLoop() {
  while (!stopRequested_.load(std::memory_order_relaxed)) {
    pollfd p{listenFd_, POLLIN, 0};
    const int rc = ::poll(&p, 1, kPollTickMs);
    if (rc <= 0) continue;  // timeout slice or EINTR: re-check stop flag
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // The pending connection keeps the listen fd readable: retrying
        // at once would spin until a descriptor or buffer frees up.
        bumpServe("serve.accept_errors");
        std::this_thread::sleep_for(std::chrono::milliseconds(kPollTickMs));
      }
      continue;
    }
    bumpServe("serve.connections_accepted");
    Connection* starting = nullptr;
    {
      std::lock_guard<std::mutex> lock(connMu_);
      pendingFds_.push_back(fd);
      if (pendingFds_.size() > idleThreads_) {
        ++idleThreads_;
        connections_.push_back(std::make_unique<Connection>());
        starting = connections_.back().get();
      }
    }
    if (starting == nullptr) {
      connReady_.notify_one();
      continue;
    }
    // Counted first, so no scrape the new thread serves can miss it.
    bumpServe("serve.connection_threads_started");
    // Only drain() reads the thread member, after joining this thread.
    starting->thread =
        std::thread([this, starting] { connectionThread(*starting); });
  }
}

void Daemon::connectionThread(Connection& conn) {
  std::unique_lock<std::mutex> lock(connMu_);
  for (;;) {
    connReady_.wait(lock,
                    [this] { return closing_ || !pendingFds_.empty(); });
    if (closing_) return;
    conn.fd = pendingFds_.front();
    pendingFds_.pop_front();
    --idleThreads_;
    lock.unlock();
    connectionLoop(conn);
    lock.lock();
    // drain() shuts down open fds under connMu_; closing under the same
    // lock keeps it from ever shutting down a recycled descriptor number.
    ::close(conn.fd);
    conn.fd = -1;
    ++idleThreads_;
  }
}

void Daemon::connectionLoop(Connection& conn) {
  FrameDecoder decoder;
  Clock::time_point lastByte = Clock::now();
  char buf[16384];
  bool keepOpen = true;
  while (keepOpen && !draining_.load(std::memory_order_relaxed)) {
    pollfd p{conn.fd, POLLIN, 0};
    const int rc = ::poll(&p, 1, kPollTickMs);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0) {
      // Idle tick. A *partial* frame stalled past the watchdog is a slow
      // writer hogging a connection: answer and drop. Idle between
      // frames is fine forever.
      if (decoder.pendingBytes() > 0 &&
          usBetween(lastByte, Clock::now()) >
              config_.frameStallMs * 1000) {
        Response r;
        r.outcome = "invalid";
        r.reason = "frame_timeout";
        r.mode = toString(ladder_.mode());
        sendFrame(conn.fd, FrameType::kResponse, toJson(r));
        bumpServe("serve.invalid");
        break;
      }
      continue;
    }
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n == 0) break;  // orderly close
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    lastByte = Clock::now();
    if (!decoder.feed(buf, static_cast<std::size_t>(n))) {
      // Malformed wire data: one structured answer, then the connection
      // is unsalvageable (framing is lost for good).
      Response r;
      r.outcome = "invalid";
      r.reason = decoder.error();
      r.mode = toString(ladder_.mode());
      sendFrame(conn.fd, FrameType::kResponse, toJson(r));
      bumpServe("serve.invalid");
      break;
    }
    Frame frame;
    while (keepOpen && decoder.next(frame)) {
      switch (frame.type) {
        case FrameType::kRequest:
          keepOpen = handleRequest(conn, frame.payload);
          break;
        case FrameType::kMetricsRequest: {
          const obs::MetricsRegistry snapshot = metricsSnapshot();
          keepOpen = sendFrame(conn.fd, FrameType::kMetricsResponse,
                               obs::toOpenMetrics(snapshot));
          break;
        }
        case FrameType::kResponse:
        case FrameType::kMetricsResponse: {
          Response r;
          r.outcome = "invalid";
          r.reason = "unexpected_frame_type";
          r.mode = toString(ladder_.mode());
          sendFrame(conn.fd, FrameType::kResponse, toJson(r));
          bumpServe("serve.invalid");
          keepOpen = false;
          break;
        }
      }
    }
  }
}

bool Daemon::handleRequest(Connection& conn, const std::string& payload) {
  const Clock::time_point started = Clock::now();
  Response response;

  const auto refuse = [&](const char* outcome, const std::string& reason,
                          const char* counter) {
    response.outcome = outcome;
    response.reason = reason;
    response.mode = toString(ladder_.mode());
    response.serviceUs = usBetween(started, Clock::now());
    bumpServe(counter);
    if (std::string_view(outcome) == "overloaded") {
      // Shed reasons are a closed set; intern them so the trace label is
      // static-storage as TraceEvent requires.
      const char* label = reason == "queue_full"    ? "queue_full"
                          : reason == "shedding"    ? "shedding"
                          : reason == "cache_only"  ? "cache_only"
                          : reason == "draining"    ? "draining"
                                                    : "overloaded";
      traceInstant(obs::TraceEventKind::kServeShed, label,
                   static_cast<std::int64_t>(pool_.queueDepth()));
    }
    return sendFrame(conn.fd, FrameType::kResponse, toJson(response));
  };

  if (draining_.load(std::memory_order_relaxed) ||
      stopRequested_.load(std::memory_order_relaxed)) {
    return refuse("overloaded", "draining", "serve.shed");
  }

  observeLadder();
  const ServiceMode mode = ladder_.mode();
  if (mode == ServiceMode::kRejectNew) {
    return refuse("overloaded", "shedding", "serve.shed");
  }

  const ParseRequestResult parsed = parseRequest(payload);
  if (!parsed.ok) {
    return refuse("invalid", parsed.error, "serve.invalid");
  }
  io::ParseResult problem = io::parseProblem(parsed.request.problemText);
  if (!problem.ok()) {
    return refuse("invalid",
                  problem.errors.empty() ? std::string("parse")
                                         : io::format(problem.errors.front()),
                  "serve.invalid");
  }

  cache::SolveSpec spec;
  spec.scheduler = parsed.request.scheduler;
  spec.trials = parsed.request.trials;
  // One solver thread per request: results must be byte-identical to a
  // single-threaded `pawsc schedule` run (the determinism contract).
  spec.jobs = 1;

  bool degraded = false;
  if (mode == ServiceMode::kDegraded && spec.scheduler == "optimal") {
    // Shedding rung 1: exhaustive work is the first thing to go — the
    // pipeline heuristic answers the same request orders of magnitude
    // cheaper, at heuristic quality.
    spec.scheduler = "pipeline";
    degraded = true;
  }
  const Problem& prob = *problem.problem;

  // Every settled request — an exact hit answered here or a worker's
  // solve — leaves through this one reply. The request stays in
  // inflight_ until its answer is on the wire: the drain supervisor must
  // not cut a connection that still owes its client an answer.
  const auto answer = [&](const ScheduleResult& result,
                          const cache::SolveInfo& info) {
    // A schedule the validator rejected is no answer: never `ok`, never
    // shipped (pawsc exits 3 on the same solve).
    const bool shipSchedule =
        result.schedule.has_value() && !info.validationFailed;
    if (info.validationFailed) {
      response.outcome = "infeasible";
      response.reason = "validation_failed";
    } else {
      response.outcome = outcomeOf(result.status, shipSchedule);
      response.reason = result.status == SchedStatus::kDeadlineExceeded &&
                                conn.cancel.cancelled()
                            ? "cancelled"
                            : (result.status == SchedStatus::kOk
                                   ? ""
                                   : toString(result.status));
    }
    response.mode = toString(mode);
    response.degraded = degraded;
    response.cacheHit = info.servedFromCache();
    if (shipSchedule) {
      const Schedule& s = *result.schedule;
      response.finishTicks = s.finish().ticks();
      response.energyCostMwt = s.energyCost(prob.minPower()).milliwattTicks();
      response.scheduleText = io::scheduleToText(s, spec.scheduler);
      response.scheduleDigest = scheduleDigest(response.scheduleText);
    }
    response.serviceUs = usBetween(started, Clock::now());
    ladder_.recordServiceUs(response.serviceUs);
    {
      std::lock_guard<std::mutex> lock(metricsMu_);
      metrics_.observe("serve.service_time_us",
                       static_cast<double>(response.serviceUs));
    }
    bumpServe("serve.completed");
    if (info.servedFromCache()) bumpServe("serve.cache_hits");
    if (result.status == SchedStatus::kDeadlineExceeded) {
      bumpServe("serve.deadline");
    }
    const bool sent =
        sendFrame(conn.fd, FrameType::kResponse, toJson(response));
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    return sent;
  };

  // Rung 1 on this thread, before admission: an exact hit costs one
  // key-only canonicalization and no hand-off, in every mode that still
  // takes requests. The key rides along to the worker on a miss.
  inflight_.fetch_add(1, std::memory_order_acq_rel);
  const cache::CacheKey key = cache::exactKey(prob, spec);
  {
    cache::SolveInfo info;
    if (std::optional<ScheduleResult> served =
            cache::tryServeExact(cache_, prob, key, &info)) {
      bumpServe("serve.accepted");
      if (degraded) bumpServe("serve.degraded");
      return answer(*served, info);
    }
  }
  if (mode == ServiceMode::kCacheOnly) {
    // Shedding rung 2: anything needing a solve is refused.
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    return refuse("overloaded", "cache_only", "serve.shed");
  }

  // Per-request budget: client timeout (already capped by the protocol)
  // or the server default. Resolved once, in the worker, when the solve
  // actually starts — queue wait must not eat the solve budget, the
  // admission bound already keeps queue wait short.
  const std::int64_t timeoutMs = parsed.request.timeoutMs > 0
                                     ? parsed.request.timeoutMs
                                     : config_.defaultTimeoutMs;

  guard::CancelToken token;
  {
    std::lock_guard<std::mutex> lock(conn.cancelMu);
    conn.cancel = guard::CancelSource();
    token = conn.cancel.token();
  }
  auto perRequest = std::make_shared<obs::MetricsRegistry>();
  auto solvePromise = std::make_shared<
      std::promise<std::pair<ScheduleResult, cache::SolveInfo>>>();
  std::future<std::pair<ScheduleResult, cache::SolveInfo>> solveFuture =
      solvePromise->get_future();

  conn.solving.store(true, std::memory_order_release);
  const bool admitted = pool_.trySubmit(
      [this, &prob, spec, key, timeoutMs, token, perRequest,
       solvePromise]() mutable {
        spec.budget.timeout = std::chrono::milliseconds(timeoutMs);
        spec.budget.cancel = token;
        spec.budget = spec.budget.resolved();
        spec.obs.metrics = perRequest.get();
        cache::SolveInfo info;
        ScheduleResult r = cache::solveMiss(cache_, prob, spec, key, &info);
        solvePromise->set_value({std::move(r), info});
      });
  if (!admitted) {
    conn.solving.store(false, std::memory_order_release);
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    return refuse("overloaded", "queue_full", "serve.shed");
  }
  bumpServe("serve.accepted");
  if (degraded) bumpServe("serve.degraded");

  // Wait for the solve while watching the socket: a client that hangs up
  // mid-solve fires the request's CancelToken so the worker unwinds at
  // its next safe point instead of finishing work nobody will read.
  bool clientGone = false;
  for (;;) {
    if (solveFuture.wait_for(std::chrono::milliseconds(20)) ==
        std::future_status::ready) {
      break;
    }
    if (!clientGone && peerGone(conn.fd)) {
      clientGone = true;
      conn.cancel.cancel();
      bumpServe("serve.cancelled");
    }
    // During a drain the supervisor fires the same CancelSource; either
    // way the worker unwinds and the future becomes ready promptly.
  }
  auto [result, info] = solveFuture.get();
  conn.solving.store(false, std::memory_order_release);
  foldMetrics(*perRequest);

  if (clientGone) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    return false;  // nobody to answer; close the slot
  }
  return answer(result, info);
}

bool Daemon::sendFrame(int fd, FrameType type, std::string_view payload) {
  const std::string wire = encodeFrame(type, payload);
  return sendAll(fd, wire.data(), wire.size());
}

void Daemon::bumpServe(const char* name, std::uint64_t delta) {
  std::lock_guard<std::mutex> lock(metricsMu_);
  metrics_.add(name, delta);
}

void Daemon::foldMetrics(const obs::MetricsRegistry& perRequest) {
  std::lock_guard<std::mutex> lock(metricsMu_);
  metrics_ += perRequest;
}

void Daemon::observeLadder() {
  LadderSignals signals;
  signals.queueDepth = pool_.queueDepth();
  signals.queueCapacity = pool_.maxQueued();
  signals.p99ServiceUs = ladder_.p99ServiceUs();
  signals.defaultBudgetUs = config_.defaultTimeoutMs * 1000;
  const ModeChange change = ladder_.observe(signals);
  if (change.changed) {
    bumpServe("serve.mode_changes");
    traceInstant(obs::TraceEventKind::kServeMode, toString(change.to),
                 static_cast<std::int64_t>(signals.queueDepth));
  }
}

void Daemon::traceInstant(obs::TraceEventKind kind, const char* label,
                          std::int64_t value) {
  std::lock_guard<std::mutex> lock(traceMu_);
  trace_.instant(kind, obs::TraceEvent::kNoTask, 0, value, 0, label);
}

obs::MetricsRegistry Daemon::metricsSnapshot() const {
  obs::MetricsRegistry snapshot;
  {
    std::lock_guard<std::mutex> lock(metricsMu_);
    snapshot += metrics_;
  }
  pool_.exportMetrics(snapshot);
  cache_.exportMetrics(snapshot);
  snapshot.set("serve.queue_depth", static_cast<double>(pool_.queueDepth()));
  snapshot.set("serve.mode",
               static_cast<double>(static_cast<int>(ladder_.mode())));
  snapshot.set("serve.inflight",
               static_cast<double>(inflight_.load(std::memory_order_relaxed)));
  return snapshot;
}

void Daemon::drain() {
  const auto drainStartNs = trace_.nowNs();
  const Clock::time_point t0 = Clock::now();
  draining_.store(true, std::memory_order_release);
  if (acceptor_.joinable()) acceptor_.join();
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
  }

  // Phase 1: let in-flight solves finish on their own budgets.
  while (inflight_.load(std::memory_order_acquire) > 0 &&
         usBetween(t0, Clock::now()) < config_.drainBudgetMs * 1000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Phase 2: cancel stragglers — they return anytime results promptly.
  if (inflight_.load(std::memory_order_acquire) > 0) {
    std::lock_guard<std::mutex> lock(connMu_);
    for (const auto& conn : connections_) {
      if (conn->solving.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> cancelLock(conn->cancelMu);
        conn->cancel.cancel();
      }
    }
  }
  // Grace window for the cancelled solves to deliver their responses.
  const Clock::time_point t1 = Clock::now();
  while (inflight_.load(std::memory_order_acquire) > 0 &&
         usBetween(t1, Clock::now()) < config_.drainBudgetMs * 1000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Phase 3: close the fds no thread has claimed, pop every serving
  // thread out of recv(), wake every parked one, and join them all. The
  // joins happen outside the lock — a thread takes connMu_ to close its
  // fd and to park, so joining while holding it would deadlock.
  {
    std::lock_guard<std::mutex> lock(connMu_);
    closing_ = true;
    for (const int fd : pendingFds_) ::close(fd);
    pendingFds_.clear();
    for (const auto& conn : connections_) {
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  connReady_.notify_all();
  for (const auto& conn : connections_) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  connections_.clear();

  // Phase 4: persist the cache so the next process starts warm.
  if (!config_.cacheDir.empty()) {
    const std::string cachePath =
        (std::filesystem::path(config_.cacheDir) /
         cache::ScheduleCache::kFileName())
            .string();
    std::string saveError;
    if (!cache_.save(cachePath, &saveError)) {
      std::fprintf(stderr, "pawsd: cache save failed: %s\n",
                   saveError.c_str());
    }
  }
  if (!unixPath_.empty()) ::unlink(unixPath_.c_str());

  bumpServe("serve.drained");
  {
    std::lock_guard<std::mutex> lock(traceMu_);
    trace_.span(obs::TraceEventKind::kServeDrain, drainStartNs,
                trace_.nowNs() - drainStartNs, "drain");
  }
}

}  // namespace paws::serve
