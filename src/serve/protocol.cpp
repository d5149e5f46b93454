#include "serve/protocol.hpp"

#include <charconv>
#include <cstdio>
#include <sstream>

#include "base/hash.hpp"
#include "cache/cached_solve.hpp"
#include "obs/json.hpp"
#include "sched/power_aware_scheduler.hpp"

namespace paws::serve {

namespace {

constexpr std::string_view kPreamble = "paws-request/1";
constexpr std::string_view kSeparator = "---";

std::string_view trimmed(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Takes the next line off `rest` (without its newline). Returns false at
/// end of input.
bool nextLine(std::string_view& rest, std::string_view& line) {
  if (rest.empty()) return false;
  const std::size_t nl = rest.find('\n');
  if (nl == std::string_view::npos) {
    line = rest;
    rest = {};
  } else {
    line = rest.substr(0, nl);
    rest.remove_prefix(nl + 1);
  }
  return true;
}

bool parseInt64(std::string_view s, std::int64_t& out) {
  const char* first = s.data();
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc() && ptr == last;
}

ParseRequestResult failRequest(const char* reason) {
  ParseRequestResult r;
  r.error = reason;
  return r;
}

}  // namespace

ParseRequestResult parseRequest(std::string_view payload) {
  std::string_view rest = payload;
  std::string_view line;
  if (!nextLine(rest, line) || trimmed(line) != kPreamble) {
    return failRequest("bad_preamble");
  }
  ParseRequestResult result;
  Request& req = result.request;
  std::size_t headerLines = 0;
  bool sawSeparator = false;
  while (nextLine(rest, line)) {
    if (line.size() > kMaxHeaderLineBytes) {
      return failRequest("header_too_long");
    }
    const std::string_view t = trimmed(line);
    if (t == kSeparator) {
      sawSeparator = true;
      break;
    }
    if (t.empty()) continue;
    if (++headerLines > kMaxHeaderLines) {
      return failRequest("too_many_headers");
    }
    const std::size_t colon = t.find(':');
    if (colon == std::string_view::npos) continue;  // tolerated, ignored
    const std::string_view key = trimmed(t.substr(0, colon));
    const std::string_view value = trimmed(t.substr(colon + 1));
    if (key == "scheduler") {
      if (!cache::knownScheduler(value)) return failRequest("bad_scheduler");
      req.scheduler = std::string(value);
    } else if (key == "timeout_ms") {
      std::int64_t ms = 0;
      if (!parseInt64(value, ms) || ms < 0 || ms > kMaxClientTimeoutMs) {
        return failRequest("bad_timeout");
      }
      req.timeoutMs = ms;
    } else if (key == "trials") {
      std::int64_t n = 0;
      if (!parseInt64(value, n) || n < 1 ||
          n > PowerAwareOptions::kMaxTrials) {
        return failRequest("bad_trials");
      }
      req.trials = static_cast<std::uint32_t>(n);
    }
    // Unknown keys: ignored for forward compatibility.
  }
  if (!sawSeparator) return failRequest("missing_separator");
  if (trimmed(rest).empty()) return failRequest("empty_problem");
  req.problemText = std::string(rest);
  result.ok = true;
  return result;
}

std::string formatRequest(const Request& req) {
  std::ostringstream os;
  os << kPreamble << "\n";
  os << "scheduler: " << req.scheduler << "\n";
  if (req.timeoutMs > 0) os << "timeout_ms: " << req.timeoutMs << "\n";
  os << "trials: " << req.trials << "\n";
  os << kSeparator << "\n";
  os << req.problemText;
  return os.str();
}

std::string toJson(const Response& r) {
  // Rendered on every reply: plain appends, the schedule text escaped
  // straight into the document.
  std::string out;
  out.reserve(256 + r.scheduleText.size() + r.reason.size());
  const auto field = [&out](std::string_view name) {
    out += ", \"";
    out += name;
    out += "\": ";
  };
  const auto number = [&out](std::int64_t v) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  };
  out += "{\"schema\": 1";
  field("outcome");
  obs::json::appendString(out, r.outcome);
  field("reason");
  obs::json::appendString(out, r.reason);
  field("mode");
  obs::json::appendString(out, r.mode);
  field("degraded");
  out += r.degraded ? "true" : "false";
  field("cache_hit");
  out += r.cacheHit ? "true" : "false";
  field("finish_ticks");
  number(r.finishTicks);
  field("energy_cost_mwt");
  number(r.energyCostMwt);
  field("schedule_digest");
  obs::json::appendString(out, r.scheduleDigest);
  field("schedule");
  obs::json::appendString(out, r.scheduleText);
  field("service_us");
  number(r.serviceUs);
  out += "}\n";
  return out;
}

bool responseFromJson(std::string_view payload, Response& out) {
  const obs::json::ParseResult parsed = obs::json::parse(payload);
  if (!parsed.ok || !parsed.value.isObject()) return false;
  const obs::json::Value* schema = parsed.value.find("schema");
  if (schema == nullptr || schema->asInt() != 1) return false;
  Response r;
  if (const auto* f = parsed.value.find("outcome")) r.outcome = f->asString();
  if (const auto* f = parsed.value.find("reason")) r.reason = f->asString();
  if (const auto* f = parsed.value.find("mode")) r.mode = f->asString();
  if (const auto* f = parsed.value.find("degraded")) r.degraded = f->asBool();
  if (const auto* f = parsed.value.find("cache_hit")) r.cacheHit = f->asBool();
  if (const auto* f = parsed.value.find("finish_ticks")) {
    r.finishTicks = f->asInt();
  }
  if (const auto* f = parsed.value.find("energy_cost_mwt")) {
    r.energyCostMwt = f->asInt();
  }
  if (const auto* f = parsed.value.find("schedule_digest")) {
    r.scheduleDigest = f->asString();
  }
  if (const auto* f = parsed.value.find("schedule")) {
    r.scheduleText = f->asString();
  }
  if (const auto* f = parsed.value.find("service_us")) {
    r.serviceUs = f->asInt();
  }
  out = std::move(r);
  return true;
}

std::string scheduleDigest(std::string_view scheduleText) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a64(scheduleText)));
  return buf;
}

}  // namespace paws::serve
