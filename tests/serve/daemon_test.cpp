// End-to-end daemon tests over real sockets: one process, real TCP/unix
// transports, the full admission → solve → respond path.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/cached_solve.hpp"
#include "io/parser.hpp"
#include "io/schedule_io.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"

namespace paws::serve {
namespace {

namespace fs = std::filesystem;

constexpr const char* kTinyProblem =
    "problem \"tiny\" {\n"
    "  pmax 10W\n"
    "  resource cpu\n"
    "  resource bus\n"
    "  task a { resource cpu delay 2 power 3W }\n"
    "  task b { resource bus delay 3 power 4W }\n"
    "  task c { resource cpu delay 1 power 2W }\n"
    "  precedes a -> b\n"
    "  precedes b -> c\n"
    "}\n";

/// Repeated and parallel constraints whose max-power graph once read as a
/// positive cycle: the pipeline's CheckError ended the whole daemon.
constexpr const char* kParallelWindowsProblem =
    "problem \"random_seed10169190\" {\n"
    "  pmax 5.668W\n"
    "  pmin 2.834W\n"
    "  resource r0\n"
    "  resource r1\n"
    "  resource r2\n"
    "  resource r3\n"
    "  task t0 { resource r0  delay 2  power 1.291W }\n"
    "  task t1 { resource r0  delay 4  power 0.628W }\n"
    "  task t2 { resource r0  delay 7  power 2.463W }\n"
    "  task t3 { resource r3  delay 3  power 5.668W }\n"
    "  task t4 { resource r2  delay 5  power 3.169W }\n"
    "  min t0 -> t4 1\n"
    "  min t3 -> t1 7\n"
    "  min t4 -> t1 2\n"
    "  min t0 -> t4 1\n"
    "  min t1 -> t2 1\n"
    "  min t3 -> t0 4\n"
    "  min t1 -> t2 3\n"
    "  max t4 -> t2 9\n"
    "  max t4 -> t2 21\n"
    "  max t4 -> t2 22\n"
    "}\n";

/// paws::gen seed 3 (7 tasks, 2 resources): the list baseline ignores max
/// separations and answers it kOk with a schedule that breaks one.
constexpr const char* kListBreaksAMaxSeparationProblem =
    "problem \"random_seed3\" {\n"
    "  pmax 13.339W\n"
    "  pmin 6.669W\n"
    "  resource r0\n"
    "  resource r1\n"
    "  task t0 { resource r1  delay 7  power 1.052W }\n"
    "  task t1 { resource r0  delay 8  power 7.793W }\n"
    "  task t2 { resource r1  delay 1  power 5.546W }\n"
    "  task t3 { resource r1  delay 10  power 6.81W }\n"
    "  task t4 { resource r0  delay 6  power 4.925W }\n"
    "  task t5 { resource r0  delay 10  power 3.506W }\n"
    "  task t6 { resource r0  delay 1  power 2.538W }\n"
    "  min t1 -> t4 5\n"
    "  min t3 -> t5 3\n"
    "  min t2 -> t6 11\n"
    "  min t1 -> t2 4\n"
    "  min t0 -> t5 21\n"
    "  min t1 -> t6 28\n"
    "  min t3 -> t4 2\n"
    "  min t0 -> t1 2\n"
    "  min t1 -> t6 29\n"
    "  max t0 -> t6 49\n"
    "  max t0 -> t2 29\n"
    "  max t3 -> t6 29\n"
    "  max t4 -> t6 40\n"
    "}\n";

/// An exhaustive search that runs for seconds on one solver thread: 14
/// distinct tasks on their own resources under a tight Pmax.
std::string slowOptimalProblem(const std::string& name) {
  std::string text = "problem \"" + name + "\" {\n  pmax 10W\n";
  for (int i = 0; i < 14; ++i) {
    text += "  resource r" + std::to_string(i) + "\n";
  }
  for (int i = 0; i < 14; ++i) {
    text += "  task t" + std::to_string(i) + " { resource r" +
            std::to_string(i) + " delay " + std::to_string(3 + i) +
            " power " + std::to_string(2 + (i * 7) % 5) + "W }\n";
  }
  return text + "}\n";
}

/// Every sample of one OpenMetrics scrape, by exposition name (counters
/// carry their `_total` suffix). Empty when the scrape fails.
std::map<std::string, double> scrape(const std::string& address) {
  std::map<std::string, double> samples;
  Client client;
  std::string body;
  if (!client.connect(address) || !client.sendMetricsRequest() ||
      !client.readMetrics(body, 10000)) {
    ADD_FAILURE() << "metrics scrape failed";
    return samples;
  }
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t space = line.rfind(' ');
    if (line.empty() || line[0] == '#' || space == std::string::npos) continue;
    samples[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return samples;
}

/// Scrapes until `name` reads `value` (pool counters land just after the
/// response they belong to); false after ~10 s.
bool awaitSample(const std::string& address, const std::string& name,
                 double value) {
  for (int i = 0; i < 500; ++i) {
    if (scrape(address)[name] == value) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

/// A temp path unique to this process, so parallel suites (e.g. a plain
/// and a sanitizer build) on one host never share it.
std::filesystem::path tempPath(const std::string& stem) {
  return std::filesystem::temp_directory_path() /
         (stem + "_" + std::to_string(::getpid()));
}

/// Starts a daemon on an ephemeral port, runs it on a background thread,
/// drains it (exit code checked) on teardown.
class DaemonFixture : public ::testing::Test {
 protected:
  void boot() {
    daemon = std::make_unique<Daemon>(config);
    std::string error;
    ASSERT_TRUE(daemon->start(&error)) << error;
    runner = std::thread([this] { exitCode = daemon->run(); });
  }

  void shutdownAndExpectCleanExit() {
    if (!runner.joinable()) return;
    daemon->requestStop();
    runner.join();
    EXPECT_EQ(exitCode, 0);
  }

  void TearDown() override { shutdownAndExpectCleanExit(); }

  Request tinyRequest(const char* scheduler = "pipeline") {
    Request request;
    request.scheduler = scheduler;
    request.problemText = kTinyProblem;
    return request;
  }

  DaemonConfig config;
  std::unique_ptr<Daemon> daemon;
  std::thread runner;
  int exitCode = -1;
};

TEST_F(DaemonFixture, SolvesOneRequestEndToEnd) {
  boot();
  Response response;
  std::string error;
  ASSERT_TRUE(requestOnce(daemon->boundAddress(), tinyRequest(), response,
                          10000, &error))
      << error;
  EXPECT_EQ(response.outcome, "ok") << response.reason;
  EXPECT_EQ(response.mode, "healthy");
  EXPECT_FALSE(response.degraded);
  EXPECT_GT(response.finishTicks, 0);
  ASSERT_FALSE(response.scheduleText.empty());
  // The digest is derivable from the shipped text — a client can verify.
  EXPECT_EQ(response.scheduleDigest, scheduleDigest(response.scheduleText));
  EXPECT_GE(response.serviceUs, 0);
}

TEST_F(DaemonFixture, SecondIdenticalRequestIsACacheHit) {
  boot();
  Response first;
  Response second;
  ASSERT_TRUE(
      requestOnce(daemon->boundAddress(), tinyRequest(), first, 10000));
  ASSERT_TRUE(
      requestOnce(daemon->boundAddress(), tinyRequest(), second, 10000));
  EXPECT_FALSE(first.cacheHit);
  EXPECT_TRUE(second.cacheHit);
  EXPECT_EQ(first.scheduleDigest, second.scheduleDigest);
}

TEST_F(DaemonFixture, DigestMatchesALocalSingleThreadedSolve) {
  boot();
  Response response;
  ASSERT_TRUE(requestOnce(daemon->boundAddress(), tinyRequest("optimal"),
                          response, 30000));
  ASSERT_EQ(response.outcome, "ok") << response.reason;

  const io::ParseResult parsed = io::parseProblem(kTinyProblem);
  ASSERT_TRUE(parsed.ok());
  cache::SolveSpec spec;
  spec.scheduler = "optimal";
  spec.jobs = 1;
  const ScheduleResult local =
      cache::solveThroughCache(nullptr, *parsed.problem, spec);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(response.scheduleDigest,
            scheduleDigest(io::scheduleToText(*local.schedule, "optimal")));
}

TEST_F(DaemonFixture, PipelinedRequestsOnOneConnection) {
  boot();
  Client client;
  ASSERT_TRUE(client.connect(daemon->boundAddress()));
  // Two requests back-to-back before reading — exercises the daemon's
  // "data after response is pipelining, not disconnect" distinction.
  ASSERT_TRUE(client.sendRequest(tinyRequest()));
  ASSERT_TRUE(client.sendRequest(tinyRequest()));
  Response a;
  Response b;
  ASSERT_TRUE(client.readResponse(a, 10000));
  ASSERT_TRUE(client.readResponse(b, 10000));
  EXPECT_EQ(a.outcome, "ok");
  EXPECT_EQ(b.outcome, "ok");
  EXPECT_TRUE(b.cacheHit);
}

TEST_F(DaemonFixture, RepeatIsAnsweredInlineWithoutAPoolTask) {
  boot();
  const std::string address = daemon->boundAddress();
  Response cold;
  ASSERT_TRUE(requestOnce(address, tinyRequest(), cold, 10000));
  ASSERT_FALSE(cold.cacheHit);
  ASSERT_TRUE(awaitSample(address, "paws_exec_tasks_run_total", 1));
  std::map<std::string, double> before = scrape(address);

  Response hit;
  ASSERT_TRUE(requestOnce(address, tinyRequest(), hit, 10000));
  EXPECT_EQ(hit.outcome, "ok");
  EXPECT_TRUE(hit.cacheHit);
  EXPECT_EQ(hit.scheduleDigest, cold.scheduleDigest);
  std::map<std::string, double> after = scrape(address);
  EXPECT_EQ(after["paws_exec_tasks_run_total"],
            before["paws_exec_tasks_run_total"]);
  // An inline hit is counted like any served request.
  for (const char* name :
       {"paws_serve_accepted_total", "paws_serve_completed_total",
        "paws_serve_cache_hits_total", "paws_serve_service_time_us_count",
        "paws_cache_hits_total"}) {
    EXPECT_EQ(after[name], before[name] + 1) << name;
  }
  EXPECT_EQ(after["paws_cache_misses_total"],
            before["paws_cache_misses_total"]);
}

TEST_F(DaemonFixture, MissIsCountedOnce) {
  boot();
  const std::string address = daemon->boundAddress();
  std::map<std::string, double> before = scrape(address);
  Response cold;
  ASSERT_TRUE(requestOnce(address, tinyRequest(), cold, 10000));
  ASSERT_EQ(cold.outcome, "ok");
  EXPECT_FALSE(cold.cacheHit);
  std::map<std::string, double> after = scrape(address);
  EXPECT_EQ(after["paws_cache_misses_total"],
            before["paws_cache_misses_total"] + 1);
  EXPECT_EQ(after["paws_cache_hits_total"], before["paws_cache_hits_total"]);
  EXPECT_EQ(after["paws_cache_insertions_total"],
            before["paws_cache_insertions_total"] + 1);
}

TEST_F(DaemonFixture, ExactHitIsServedWhileThePoolIsFull) {
  // One solver, one queue slot, and a ladder that never sheds: only the
  // admission bound stands between a request and the pool.
  config.solverThreads = 1;
  config.maxQueued = 1;
  config.ladder.degradePermille = 2000;
  config.ladder.cacheOnlyPermille = 2000;
  config.ladder.rejectPermille = 2000;
  config.ladder.p99BudgetMultiple = 0;
  boot();
  const std::string address = daemon->boundAddress();
  Response cold;
  ASSERT_TRUE(requestOnce(address, tinyRequest(), cold, 10000));
  ASSERT_EQ(cold.outcome, "ok");

  // Hold the pool: one slow solve running, a second one queued.
  Client running;
  Client queued;
  for (Client* client : {&running, &queued}) {
    const bool first = client == &running;
    Request slow;
    slow.scheduler = "optimal";
    slow.timeoutMs = 30000;
    slow.problemText = slowOptimalProblem(first ? "slow_a" : "slow_b");
    ASSERT_TRUE(client->connect(address));
    ASSERT_TRUE(client->sendRequest(slow));
    ASSERT_TRUE(awaitSample(address, "paws_serve_accepted_total",
                            first ? 2 : 3));
    ASSERT_TRUE(awaitSample(address, "paws_serve_queue_depth", first ? 0 : 1));
  }

  Response repeat;
  ASSERT_TRUE(requestOnce(address, tinyRequest(), repeat, 10000));
  EXPECT_EQ(repeat.outcome, "ok") << repeat.reason;
  EXPECT_TRUE(repeat.cacheHit);
  EXPECT_EQ(repeat.scheduleDigest, cold.scheduleDigest);
  // The pool was still full: neither slow solve had finished.
  std::map<std::string, double> after = scrape(address);
  EXPECT_EQ(after["paws_serve_queue_depth"], 1);
  EXPECT_EQ(after["paws_serve_completed_total"], 2);
  running.abortiveClose();
  queued.abortiveClose();
}

TEST_F(DaemonFixture, ParallelWindowsProblemIsAnsweredAndTheDaemonStaysUp) {
  boot();
  Request request;
  request.problemText = kParallelWindowsProblem;
  Response response;
  ASSERT_TRUE(
      requestOnce(daemon->boundAddress(), request, response, 10000));
  EXPECT_EQ(response.outcome, "ok") << response.reason;
  EXPECT_EQ(response.scheduleDigest, scheduleDigest(response.scheduleText));
  Response next;
  ASSERT_TRUE(
      requestOnce(daemon->boundAddress(), tinyRequest(), next, 10000));
  EXPECT_EQ(next.outcome, "ok");
}

TEST_F(DaemonFixture, ListAnswerFailingValidationIsInfeasibleNotOk) {
  // pawsc exits 3 ("validation failed") on this solve; pawsd must not
  // call it ok, ship it, or cache it — the repeat is solved again.
  boot();
  const std::string address = daemon->boundAddress();
  Request request;
  request.scheduler = "list";
  request.problemText = kListBreaksAMaxSeparationProblem;
  for (int i = 0; i < 2; ++i) {
    Response response;
    ASSERT_TRUE(requestOnce(address, request, response, 10000));
    EXPECT_EQ(response.outcome, "infeasible");
    EXPECT_EQ(response.reason, "validation_failed");
    EXPECT_TRUE(response.scheduleText.empty());
    EXPECT_FALSE(response.cacheHit);
  }
  std::map<std::string, double> metrics = scrape(address);
  EXPECT_EQ(metrics["paws_cache_hits_total"], 0);
  EXPECT_EQ(metrics["paws_cache_misses_total"], 2);
  EXPECT_EQ(metrics["paws_cache_insertions_total"], 0);
  Response next;
  ASSERT_TRUE(requestOnce(address, tinyRequest(), next, 10000));
  EXPECT_EQ(next.outcome, "ok");
}

TEST_F(DaemonFixture, UnparseableProblemIsStructuredInvalid) {
  boot();
  Request request;
  request.problemText = "problem \"broken\" { pmax banana }\n";
  Response response;
  ASSERT_TRUE(requestOnce(daemon->boundAddress(), request, response, 10000));
  EXPECT_EQ(response.outcome, "invalid");
  EXPECT_FALSE(response.reason.empty());
}

TEST_F(DaemonFixture, ProblemPreconditionIsAPositionedInvalidReason) {
  // A negative task power breaks a Problem precondition. The reason names
  // the offending token, as a parse error does, never the internal check
  // (whose text would carry a source path of the build).
  boot();
  Request request;
  request.problemText =
      "problem \"negative\" {\n"
      "  resource cpu\n"
      "  task a { resource cpu delay 2 power -3W }\n"
      "}\n";
  Response response;
  ASSERT_TRUE(requestOnce(daemon->boundAddress(), request, response, 10000));
  EXPECT_EQ(response.outcome, "invalid");
  EXPECT_EQ(response.reason, "3:39: task 'a' needs a non-negative power");
  EXPECT_EQ(response.reason.find("PAWS_CHECK"), std::string::npos);
}

TEST_F(DaemonFixture, InfeasibleProblemIsStructuredNotACrash) {
  boot();
  Request request;
  // a must precede b AND b must finish at least 100 before a starts —
  // contradiction, no valid schedule.
  request.problemText =
      "problem \"contradiction\" {\n"
      "  pmax 10W\n"
      "  resource cpu\n"
      "  task a { resource cpu delay 2 power 3W }\n"
      "  task b { resource cpu delay 2 power 3W }\n"
      "  precedes a -> b\n"
      "  min b -> a 100\n"
      "}\n";
  Response response;
  ASSERT_TRUE(requestOnce(daemon->boundAddress(), request, response, 10000));
  EXPECT_EQ(response.outcome, "infeasible");
}

TEST_F(DaemonFixture, MalformedFrameGetsInvalidThenClose) {
  boot();
  Client client;
  ASSERT_TRUE(client.connect(daemon->boundAddress()));
  ASSERT_TRUE(client.rawSend("GARBAGE-NOT-A-FRAME-HEADER!!"));
  Response response;
  ASSERT_TRUE(client.readResponse(response, 10000));
  EXPECT_EQ(response.outcome, "invalid");
  EXPECT_EQ(response.reason, "bad_magic");
}

TEST_F(DaemonFixture, BadRequestPayloadNamesTheReason) {
  boot();
  Client client;
  ASSERT_TRUE(client.connect(daemon->boundAddress()));
  const std::string wire =
      encodeFrame(FrameType::kRequest, "paws-request/9\n---\nx");
  ASSERT_TRUE(client.rawSend(wire));
  Response response;
  ASSERT_TRUE(client.readResponse(response, 10000));
  EXPECT_EQ(response.outcome, "invalid");
  EXPECT_EQ(response.reason, "bad_preamble");
}

TEST_F(DaemonFixture, MetricsScrapeIsOpenMetricsWithServeCounters) {
  boot();
  Response response;
  ASSERT_TRUE(
      requestOnce(daemon->boundAddress(), tinyRequest(), response, 10000));
  Client client;
  ASSERT_TRUE(client.connect(daemon->boundAddress()));
  ASSERT_TRUE(client.sendMetricsRequest());
  std::string body;
  ASSERT_TRUE(client.readMetrics(body, 10000));
  EXPECT_NE(body.find("serve_accepted"), std::string::npos) << body;
  EXPECT_NE(body.find("serve_completed"), std::string::npos);
  EXPECT_NE(body.find("exec_tasks_run"), std::string::npos);
  EXPECT_NE(body.find("cache_"), std::string::npos);
  EXPECT_NE(body.find("# EOF"), std::string::npos);
}

TEST_F(DaemonFixture, ServesOverUnixSocket) {
  const fs::path sock = tempPath("pawsd_test.sock");
  fs::remove(sock);
  config.address = "unix:" + sock.string();
  boot();
  EXPECT_EQ(daemon->boundAddress(), config.address);
  Response response;
  std::string error;
  ASSERT_TRUE(requestOnce(config.address, tinyRequest(), response, 10000,
                          &error))
      << error;
  EXPECT_EQ(response.outcome, "ok");
  shutdownAndExpectCleanExit();
  // Drain unlinks the socket path.
  EXPECT_FALSE(fs::exists(sock));
}

TEST_F(DaemonFixture, DrainFlushesCacheAndASuccessorWarmStartsFromIt) {
  const fs::path dir = tempPath("pawsd_cache_drain_test");
  fs::remove_all(dir);
  fs::create_directories(dir);
  config.cacheDir = dir.string();
  boot();
  Response cold;
  ASSERT_TRUE(
      requestOnce(daemon->boundAddress(), tinyRequest(), cold, 10000));
  EXPECT_FALSE(cold.cacheHit);
  shutdownAndExpectCleanExit();
  EXPECT_TRUE(fs::exists(dir / "paws_cache.json"));

  // A fresh daemon over the same --cache-dir serves the request from the
  // persisted entry on its very first exchange.
  DaemonConfig secondConfig;
  secondConfig.cacheDir = dir.string();
  Daemon second(secondConfig);
  std::string error;
  ASSERT_TRUE(second.start(&error)) << error;
  std::thread secondRunner([&second] { second.run(); });
  Response warm;
  ASSERT_TRUE(
      requestOnce(second.boundAddress(), tinyRequest(), warm, 10000));
  EXPECT_TRUE(warm.cacheHit);
  EXPECT_EQ(warm.scheduleDigest, cold.scheduleDigest);
  second.requestStop();
  secondRunner.join();
  fs::remove_all(dir);
}

TEST_F(DaemonFixture, DisconnectMidSolveIsCancelledNotCrashed) {
  config.defaultTimeoutMs = 30000;
  boot();
  {
    Client client;
    ASSERT_TRUE(client.connect(daemon->boundAddress()));
    Request request = tinyRequest("optimal");
    request.trials = 1;
    ASSERT_TRUE(client.sendRequest(request));
    // Vanish immediately — the daemon must cancel and carry on.
    client.abortiveClose();
  }
  // The daemon still serves the next client normally.
  Response response;
  ASSERT_TRUE(
      requestOnce(daemon->boundAddress(), tinyRequest(), response, 10000));
  EXPECT_EQ(response.outcome, "ok");
}

TEST_F(DaemonFixture, DrainingDaemonRefusesNewWorkStructurally) {
  boot();
  daemon->requestStop();
  // Give run() a beat to raise the draining flag; requests racing the
  // stop may still be served, so accept either structured answer.
  Response response;
  const bool got =
      requestOnce(daemon->boundAddress(), tinyRequest(), response, 2000);
  if (got) {
    EXPECT_TRUE(response.outcome == "ok" ||
                (response.outcome == "overloaded" &&
                 response.reason == "draining"))
        << response.outcome << "/" << response.reason;
  }
  runner.join();
  EXPECT_EQ(exitCode, 0);
}

TEST_F(DaemonFixture, AcceptFailureBacksOffInsteadOfSpinning) {
  boot();
  const std::string address = daemon->boundAddress();
  // The descriptor limit is process-wide, so the daemon in this process
  // shares it. Cap it one above the lowest free number: the client's
  // socket takes that number, and the daemon's accept(2) of the client
  // then fails with EMFILE while the connection waits in the backlog.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  const int lowestFree = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(lowestFree, 0);
  ::close(lowestFree);
  rlimit low = saved;
  low.rlim_cur = static_cast<rlim_t>(lowestFree) + 1;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  Client held;
  const bool connected = held.connect(address);
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const bool restored = ::setrlimit(RLIMIT_NOFILE, &saved) == 0;
  ASSERT_TRUE(restored);
  ASSERT_TRUE(connected);

  ASSERT_TRUE(held.sendRequest(tinyRequest()));
  Response response;
  ASSERT_TRUE(held.readResponse(response, 10000));
  EXPECT_EQ(response.outcome, "ok") << response.reason;
  // One failure per poll tick (100 ms), not a retry loop.
  const double errors = scrape(address)["paws_serve_accept_errors_total"];
  EXPECT_GE(errors, 1);
  EXPECT_LE(errors, 10);
}

TEST_F(DaemonFixture, SequentialConnectionsReuseTheirThreads) {
  boot();
  const std::string address = daemon->boundAddress();
  for (int i = 0; i < 100; ++i) {
    Response response;
    ASSERT_TRUE(requestOnce(address, tinyRequest(), response, 10000)) << i;
    ASSERT_EQ(response.outcome, "ok") << i;
  }
  std::map<std::string, double> metrics = scrape(address);
  EXPECT_GE(metrics["paws_serve_connections_accepted_total"], 100);
  // A closing connection's thread may not have parked yet when the next
  // one-shot client connects: a few threads, never one per connection.
  EXPECT_LE(metrics["paws_serve_connection_threads_started_total"], 4);
  EXPECT_EQ(metrics["paws_serve_accept_errors_total"], 0);
}

TEST_F(DaemonFixture, ConcurrentThenSequentialConnectionsAddNoThreads) {
  boot();
  const std::string address = daemon->boundAddress();
  {
    std::vector<Client> clients(6);
    for (Client& client : clients) {
      ASSERT_TRUE(client.connect(address));
      ASSERT_TRUE(client.sendRequest(tinyRequest()));
    }
    for (Client& client : clients) {
      Response response;
      ASSERT_TRUE(client.readResponse(response, 10000));
      EXPECT_EQ(response.outcome, "ok");
    }
  }
  const double started =
      scrape(address)["paws_serve_connection_threads_started_total"];
  EXPECT_GE(started, 6);
  for (int i = 0; i < 30; ++i) {
    Response response;
    ASSERT_TRUE(requestOnce(address, tinyRequest(), response, 10000)) << i;
    ASSERT_EQ(response.outcome, "ok") << i;
  }
  EXPECT_LE(scrape(address)["paws_serve_connection_threads_started_total"],
            started + 2);
}

TEST_F(DaemonFixture, DrainJoinsParkedAndIdleConnectionThreads) {
  boot();
  const std::string address = daemon->boundAddress();
  std::vector<Client> idle(3);
  for (Client& client : idle) ASSERT_TRUE(client.connect(address));
  for (int i = 0; i < 10; ++i) {
    Response response;
    ASSERT_TRUE(requestOnce(address, tinyRequest(), response, 10000)) << i;
  }
  // The one-shot connections are gone, so their threads are parked (or
  // about to be) beside the three serving the idle clients.
  EXPECT_GE(scrape(address)["paws_serve_connection_threads_started_total"],
            4);

  const auto stopAt = std::chrono::steady_clock::now();
  daemon->requestStop();
  runner.join();
  const auto drainMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - stopAt)
                           .count();
  EXPECT_EQ(exitCode, 0);
  EXPECT_LT(drainMs, config.drainBudgetMs);
  for (Client& client : idle) {
    // EOF, not the read timeout: each idle connection was closed.
    const auto readAt = std::chrono::steady_clock::now();
    Response response;
    EXPECT_FALSE(client.readResponse(response, 5000));
    EXPECT_LT(std::chrono::steady_clock::now() - readAt,
              std::chrono::seconds(2));
  }
}

}  // namespace
}  // namespace paws::serve
