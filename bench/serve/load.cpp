#include "load.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <optional>
#include <thread>

#include "serve/client.hpp"

namespace bench {

namespace {

/// A daemon that stops answering fails the request instead of hanging the
/// benchmark past its time limit.
constexpr std::int64_t kReplyTimeoutMs = 30000;

/// One request/response exchange plus its verdict, tallied into `r`.
/// Returns the response when one came back. `client` stays connected for
/// keep-alive workloads; one-shot workloads connect per request. The
/// clock stops (`doneAt`) once the response is read and parsed, as any
/// client of pawsd must parse it.
std::optional<paws::serve::Response> exchange(
    const Workload& w, paws::serve::Client& client, const std::string& address,
    const std::string& wire, const Req& req, PhaseResult& r,
    Clock::time_point* doneAt = nullptr) {
  ++r.sent;
  paws::serve::Response response;
  const bool got = (client.connected() || client.connect(address)) &&
                   client.rawSend(wire) &&
                   client.readResponse(response, kReplyTimeoutMs);
  if (doneAt != nullptr) *doneAt = Clock::now();
  if (w.connectionPerRequest || !got) client.close();
  if (!got) {
    ++r.failed;
    ++r.outcomes["no_response"];
    if (r.firstError.empty()) {
      r.firstError = "no response (slot " + std::to_string(req.slot) + ")";
    }
    return std::nullopt;
  }
  ++r.answered;
  ++r.outcomes[response.outcome];
  const bool ok = response.outcome == "ok";
  const bool right =
      ok &&
      std::strtoull(response.scheduleDigest.c_str(), nullptr, 16) ==
          req.digest &&
      textDigest(response.scheduleText) == req.digest;
  if (!right) {
    ++r.failed;
    if (ok) ++r.wrong;
    if (r.firstError.empty()) {
      r.firstError = (ok ? "wrong answer" : "outcome " + response.outcome) +
                     " (slot " + std::to_string(req.slot) + " copy " +
                     std::to_string(req.copy) + ")";
    }
  }
  return response;
}

/// Blocks until request `after` of the current phase has been answered.
void waitFor(const std::atomic<bool>* answered, std::int64_t after) {
  if (after < 0) return;
  while (!answered[after].load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
}

}  // namespace

void merge(PhaseResult& into, const PhaseResult& part) {
  into.sent += part.sent;
  into.answered += part.answered;
  into.failed += part.failed;
  into.wrong += part.wrong;
  for (const auto& [outcome, n] : part.outcomes) into.outcomes[outcome] += n;
  if (into.firstError.empty()) into.firstError = part.firstError;
  const auto append = [](std::vector<double>& to,
                          const std::vector<double>& v) {
    to.insert(to.end(), v.begin(), v.end());
  };
  append(into.transportUs, part.transportUs);
  append(into.serviceUs, part.serviceUs);
  append(into.doneSeconds, part.doneSeconds);
}

PhaseResult runWarmup(const Workload& w, const std::vector<Req>& list,
                      const std::string& address) {
  PhaseResult r;
  paws::serve::Client client;
  for (const Req& req : list) {
    exchange(w, client, address, wireOf(w, req), req, r);
  }
  return r;
}

PhaseResult runOpen(const Workload& w, const std::string& address) {
  std::array<PhaseResult, kClients> parts;
  // Arrival times are offsets from a common start a little in the future,
  // so every client thread is parked before the first request is due.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const std::size_t n = w.open.size();
  std::vector<double> latency(n, -1.0);
  std::vector<double> lateness(n, -1.0);
  const auto answered = std::make_unique<std::atomic<bool>[]>(n);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      PhaseResult& r = parts[c];
      paws::serve::Client client;
      for (std::size_t j = next++; j < n; j = next++) {
        const Req& req = w.open[j];
        const std::string wire = wireOf(w, req);
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(w.openDue[j]));
        if (Clock::now() < due) {
          std::this_thread::sleep_until(due);
          lateness[j] = microsBetween(due, Clock::now());
        }
        waitFor(answered.get(), req.after);
        const Clock::time_point sentAt = Clock::now();
        Clock::time_point done;
        const std::optional<paws::serve::Response> answer =
            exchange(w, client, address, wire, req, r, &done);
        answered[j].store(true, std::memory_order_release);
        if (!answer.has_value()) continue;
        latency[j] = microsBetween(due, done);
        r.serviceUs.push_back(static_cast<double>(answer->serviceUs));
        r.transportUs.push_back(microsBetween(sentAt, done) -
                                static_cast<double>(answer->serviceUs));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  PhaseResult r;
  for (const PhaseResult& part : parts) merge(r, part);
  r.latencyUs = std::move(latency);
  r.wakeLatenessUs = std::move(lateness);
  return r;
}

PhaseResult runClosed(const Workload& w, const std::string& address) {
  std::array<PhaseResult, kClients> parts;
  std::array<double, kClients> ranDry{};
  const std::size_t n = w.closed.size();
  const auto answered = std::make_unique<std::atomic<bool>[]>(n);
  std::atomic<std::size_t> next{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      paws::serve::Client client;
      for (std::size_t j = next++; j < n; j = next++) {
        const Req& req = w.closed[j];
        const std::string wire = wireOf(w, req);
        waitFor(answered.get(), req.after);
        Clock::time_point done;
        if (exchange(w, client, address, wire, req, parts[c], &done)) {
          parts[c].doneSeconds.push_back(secondsBetween(start, done));
        }
        answered[j].store(true, std::memory_order_release);
      }
      ranDry[c] = secondsBetween(start, Clock::now());
    });
  }
  for (std::thread& t : clients) t.join();
  PhaseResult r;
  for (const PhaseResult& part : parts) merge(r, part);
  r.steadySeconds = *std::min_element(ranDry.begin(), ranDry.end());
  return r;
}

std::string openMetricsName(std::string_view name) {
  std::string out = "paws_";
  for (const char c : name) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(keep ? c : '_');
  }
  return out;
}

bool scrapeMetrics(const std::string& address,
                   std::map<std::string, double>& out, std::string* error) {
  paws::serve::Client client;
  std::string body;
  if (!client.connect(address, error) || !client.sendMetricsRequest() ||
      !client.readMetrics(body, kReplyTimeoutMs)) {
    *error = "metrics scrape failed";
    return false;
  }
  out.clear();
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    const std::string_view line(body.data() + pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line.front() == '#' ||
        line.find('{') != std::string_view::npos) {
      continue;
    }
    const std::size_t space = line.rfind(' ');
    if (space == std::string_view::npos) continue;
    out[std::string(line.substr(0, space))] =
        std::strtod(std::string(line.substr(space + 1)).c_str(), nullptr);
  }
  return true;
}

}  // namespace bench
