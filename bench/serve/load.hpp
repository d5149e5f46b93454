// The load generator: the three ways the benchmark sends a workload's
// requests (warm-up, open loop, closed loop) through paws::serve::Client.
// Each answer is parsed and checked against its reference right after its
// clock stops.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"

namespace bench {

/// Everything one phase observed.
struct PhaseResult {
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;   ///< a response frame came back
  std::uint64_t failed = 0;     ///< no response, non-ok outcome, or wrong
  std::uint64_t wrong = 0;      ///< digest or schedule text != reference
  std::map<std::string, std::uint64_t> outcomes;  ///< every outcome seen
  /// Open phase, per request in list order: due time -> full response
  /// (negative when no answer came back).
  std::vector<double> latencyUs;
  /// Open phase, per request in list order: how late its client woke for
  /// it (negative when the client was already past the due time).
  std::vector<double> wakeLatenessUs;
  std::vector<double> transportUs;  ///< open phase: round trip - service_us
  std::vector<double> serviceUs;    ///< open phase: pawsd's service_us
  /// Closed phase: when each answer arrived, seconds from the phase start,
  /// and when the first client found the list empty (the end of the
  /// window in which every client was busy).
  std::vector<double> doneSeconds;
  double steadySeconds = 0;
  std::string firstError;
};

/// Adds `part`'s tallies and samples to `into`.
void merge(PhaseResult& into, const PhaseResult& part);

/// Sends `list` one request at a time on one connection to `address`
/// ("unix:<path>").
PhaseResult runWarmup(const Workload& w, const std::vector<Req>& list,
                      const std::string& address);
/// Seeded Poisson arrivals served first-come first-served by kClients
/// connections; latency runs from each request's due time.
PhaseResult runOpen(const Workload& w, const std::string& address);
/// kClients clients, each taking the next request when its last returns.
PhaseResult runClosed(const Workload& w, const std::string& address);

/// Scrapes pawsd's OpenMetrics exposition (a kMetricsRequest frame) into
/// sample name -> value, skipping labelled bucket series.
bool scrapeMetrics(const std::string& address,
                   std::map<std::string, double>& out, std::string* error);

/// The OpenMetrics sample name pawsd exports for registry metric `name`
/// (counters add `_total`).
std::string openMetricsName(std::string_view name);

}  // namespace bench
