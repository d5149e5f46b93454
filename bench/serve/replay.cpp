// Self times come from two sources. The benchmark times each public call
// (decode, request parse, problem parse, solveThroughCache, reply) itself;
// inside solveThroughCache the library's own PhaseTimer spans
// (pipeline ⊃ trial ⊃ {max-power ⊃ timing, min-power}, each ⊃
// longest_path), recorded into a per-request TraceSink, split the solve by
// nesting: a span's self time is its duration minus its direct children.
// What the solve spends outside every span is attributed by the rung the
// request took (README.md, "Per-layer metrics").
#include "replay.hpp"

#include <algorithm>
#include <vector>

#include "cache/cached_solve.hpp"
#include "cache/canonical.hpp"
#include "io/parser.hpp"
#include "io/schedule_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/frame.hpp"
#include "serve/protocol.hpp"

namespace bench {

namespace {

/// Per-layer time sums over the replayed requests, microseconds.
struct Totals {
  double wall = 0;
  double decode = 0;
  double requestParse = 0;
  double parse = 0;
  double solve = 0;
  double reply = 0;
  double probeLive = 0;
  double probeLoaded = 0;
  double missOverhead = 0;
  double canonicalize = 0;  // side measurement, not additive
  double timing = 0;
  double maxPower = 0;
  double minPower = 0;
  double pipeline = 0;
  double baseline = 0;
  double warmSeed = 0;
  double exhaustive = 0;
  double longestPath = 0;
  std::size_t requests = 0;
  std::size_t liveHits = 0;
  std::size_t loadedHits = 0;
  std::size_t nonHits = 0;
};

struct Span {
  std::int64_t start = 0;
  std::int64_t end = 0;
  const char* label = "";
  bool longestPath = false;
  std::int64_t childNs = 0;
  bool top = true;
};

/// Splits the sink's spans into self times; returns the summed duration
/// of the top-level spans (ns).
std::int64_t attributeSpans(const paws::obs::TraceSink& sink, bool seedOnly,
                            Totals& t) {
  std::vector<Span> spans;
  for (const paws::obs::TraceEvent& e : sink.events()) {
    const bool lp = e.kind == paws::obs::TraceEventKind::kLongestPath;
    if (!lp && e.kind != paws::obs::TraceEventKind::kPhase) continue;
    spans.push_back({e.tsNs, e.tsNs + e.durNs, e.label, lp});
  }
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start != b.start ? a.start < b.start : a.end > b.end;
  });
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    while (!open.empty() && spans[open.back()].end < spans[i].end) {
      open.pop_back();
    }
    if (!open.empty()) {
      spans[open.back()].childNs += spans[i].end - spans[i].start;
      spans[i].top = false;
    }
    open.push_back(i);
  }
  std::int64_t topNs = 0;
  for (const Span& s : spans) {
    const double selfUs =
        static_cast<double>(s.end - s.start - s.childNs) / 1000.0;
    if (s.top) topNs += s.end - s.start;
    if (seedOnly) {
      t.warmSeed += selfUs;  // an optimal request's pipeline seed, whole
    } else if (s.longestPath) {
      t.longestPath += selfUs;
    } else if (std::string_view(s.label) == "timing") {
      t.timing += selfUs;
    } else if (std::string_view(s.label) == "max-power") {
      t.maxPower += selfUs;
    } else if (std::string_view(s.label) == "min-power") {
      t.minPower += selfUs;
    } else {
      t.pipeline += selfUs;  // pipeline/trial loop, battery refine
    }
  }
  return topNs;
}

double timedCanonicalize(const paws::Problem& problem,
                         paws::cache::CanonicalParts parts) {
  const Clock::time_point a = Clock::now();
  const paws::cache::CanonicalForm form =
      paws::cache::canonicalize(problem, parts);
  const double us = microsBetween(a, Clock::now());
  (void)form;
  return us;
}

}  // namespace

bool replayTraced(const Workload& w, double daemonServiceUs, Metrics& out,
                  std::string* error) {
  paws::cache::ScheduleCache cache(w.cacheCapacity);
  if (!w.cacheFile.empty() && !cache.load(w.cacheFile, error)) {
    if (error->empty()) *error = "replay: cannot load " + w.cacheFile;
    return false;
  }
  for (const Req& req : w.warmup) {
    const std::string wire = wireOf(w, req);
    const paws::serve::ParseRequestResult request = paws::serve::parseRequest(
        std::string_view(wire).substr(paws::serve::kHeaderBytes));
    const paws::io::ParseResult problem =
        paws::io::parseProblem(request.request.problemText);
    paws::cache::solveThroughCache(&cache, *problem.problem,
                                   specFor(request.request));
  }

  Totals t;
  paws::obs::TraceSink sink;
  // A per-request registry, as pawsd attaches one: the replay pays the
  // same instrumentation cost as the daemon.
  paws::obs::MetricsRegistry registry;
  // Each call is its own span; the time between them (checks, spec set-up,
  // clock reads) is what the uncovered share measures.
  const auto timed = [](double& us, const auto& call) {
    const Clock::time_point a = Clock::now();
    call();
    us = microsBetween(a, Clock::now());
  };
  for (const Req& req : w.open) {
    const Slot& slot = w.slots[req.slot];
    const std::string wire = wireOf(w, req);
    const std::uint32_t index = req.slot;
    sink.clear();
    registry.clear();

    double decodeUs = 0, requestParseUs = 0, parseUs = 0, solveUs = 0,
           replyUs = 0;
    const Clock::time_point start = Clock::now();
    paws::serve::FrameDecoder decoder;
    paws::serve::Frame frame;
    bool framed = false;
    timed(decodeUs,
          [&] { framed = decoder.feed(wire) && decoder.next(frame); });
    paws::serve::ParseRequestResult request;
    timed(requestParseUs,
          [&] { request = paws::serve::parseRequest(frame.payload); });
    paws::io::ParseResult problem;
    timed(parseUs, [&] {
      problem = paws::io::parseProblem(request.request.problemText);
    });
    if (!framed || !request.ok || !problem.ok()) {
      *error = "replay: request " + std::to_string(index) + " did not parse";
      return false;
    }
    paws::cache::SolveSpec spec = specFor(request.request);
    spec.obs.trace = &sink;
    spec.obs.metrics = &registry;
    paws::cache::SolveInfo info;
    paws::ScheduleResult result;
    timed(solveUs, [&] {
      result =
          paws::cache::solveThroughCache(&cache, *problem.problem, spec, &info);
    });
    if (!result.ok()) {
      *error = "replay: request " + std::to_string(index) + " failed";
      return false;
    }
    // What pawsd does after the solve: scheduleToText, digest, toJson and
    // encodeFrame.
    paws::serve::Response response;
    std::string reply;
    timed(replyUs, [&] {
      const paws::Schedule& s = *result.schedule;
      response.outcome = "ok";
      response.cacheHit = info.servedFromCache();
      response.finishTicks = s.finish().ticks();
      response.energyCostMwt =
          s.energyCost(problem.problem->minPower()).milliwattTicks();
      response.scheduleText = paws::io::scheduleToText(s, spec.scheduler);
      response.scheduleDigest =
          paws::serve::scheduleDigest(response.scheduleText);
      response.serviceUs =
          static_cast<std::int64_t>(requestParseUs + parseUs + solveUs);
      reply = paws::serve::encodeFrame(paws::serve::FrameType::kResponse,
                                       paws::serve::toJson(response));
    });
    const double wall = microsBetween(start, Clock::now());
    if (textDigest(response.scheduleText) != req.digest || reply.empty()) {
      *error = "replay: request " + std::to_string(index) +
               " answered differently from its reference";
      return false;
    }

    ++t.requests;
    t.wall += wall;
    t.decode += decodeUs;
    t.requestParse += requestParseUs;
    t.parse += parseUs;
    t.solve += solveUs;
    t.reply += replyUs;

    const bool optimal = spec.scheduler == "optimal";
    const double phased =
        static_cast<double>(attributeSpans(sink, optimal, t)) / 1000.0;
    const double rest = std::max(0.0, solveUs - phased);

    // Side measurements: never part of the additive breakdown.
    const double keyUs = timedCanonicalize(
        *problem.problem, paws::cache::CanonicalParts::kKeyOnly);
    t.canonicalize += keyUs;
    if (info.cacheHit) {
      (slot.loaded ? t.probeLoaded : t.probeLive) += rest;
      ++(slot.loaded ? t.loadedHits : t.liveHits);
      continue;
    }
    ++t.nonHits;
    if (info.revalidated || spec.scheduler == "pipeline") {
      t.missOverhead += rest;  // every scheduler stage there is phased
      continue;
    }
    // Unphased scheduler (list / serial / exhaustive): the cache's part of
    // a miss is its three canonicalizations (two key-only probes, one full
    // form for the insert), measured on the side.
    const double canonical =
        2 * keyUs + timedCanonicalize(*problem.problem,
                                      paws::cache::CanonicalParts::kFull);
    const double cacheUs = std::min(canonical, rest);
    t.missOverhead += cacheUs;
    (optimal ? t.exhaustive : t.baseline) += rest - cacheUs;
  }

  const double n = static_cast<double>(std::max<std::size_t>(t.requests, 1));
  const auto mean = [](double sum, std::size_t count) {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  };
  const double wallMean = t.wall / n;
  const double serveUs = (t.decode + t.requestParse + t.reply) / n;
  const double ioUs = t.parse / n;
  const double cacheUs = (t.probeLive + t.probeLoaded + t.missOverhead) / n;
  const double schedUs = (t.timing + t.maxPower + t.minPower + t.pipeline +
                          t.baseline + t.warmSeed + t.exhaustive) /
                         n;
  const double graphUs = t.longestPath / n;
  const auto share = [&](double us) {
    return wallMean > 0 ? us / wallMean : 0;
  };

  out["serve.decode_us"] = {t.decode / n, "us"};
  out["serve.request_parse_us"] = {t.requestParse / n, "us"};
  out["serve.reply_us"] = {t.reply / n, "us"};
  out["io.parse_us"] = {ioUs, "us"};
  out["cache.probe_live_us"] = {mean(t.probeLive, t.liveHits), "us"};
  out["cache.probe_loaded_us"] = {mean(t.probeLoaded, t.loadedHits), "us"};
  out["cache.miss_overhead_us"] = {mean(t.missOverhead, t.nonHits), "us"};
  out["cache.canonicalize_us"] = {t.canonicalize / n, "us"};
  out["sched.timing_us"] = {t.timing / n, "us"};
  out["sched.max_power_us"] = {t.maxPower / n, "us"};
  out["sched.min_power_us"] = {t.minPower / n, "us"};
  out["sched.pipeline_us"] = {t.pipeline / n, "us"};
  out["sched.baseline_us"] = {t.baseline / n, "us"};
  out["sched.warm_seed_us"] = {t.warmSeed / n, "us"};
  out["sched.exhaustive_us"] = {t.exhaustive / n, "us"};
  out["graph.longest_path_us"] = {graphUs, "us"};
  out["trace.request_us"] = {wallMean, "us"};
  out["trace.share_serve"] = {share(serveUs), "ratio"};
  out["trace.share_io"] = {share(ioUs), "ratio"};
  out["trace.share_cache"] = {share(cacheUs), "ratio"};
  out["trace.share_sched"] = {share(schedUs), "ratio"};
  out["trace.share_graph"] = {share(graphUs), "ratio"};
  out["trace.uncovered_share"] = {
      share((t.wall - t.decode - t.requestParse - t.parse - t.solve -
             t.reply) /
            n),
      "ratio"};
  out["trace.replay_ratio"] = {
      daemonServiceUs > 0 ? wallMean / daemonServiceUs : 0,
      "ratio"};
  return true;
}

}  // namespace bench
