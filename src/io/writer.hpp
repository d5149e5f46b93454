// Writers: Problem -> .paws text (round-trips through the parser) and
// Schedule -> CSV for external analysis/plotting.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "model/problem.hpp"
#include "sched/schedule.hpp"

namespace paws::io {

/// `name` spelled so the lexer reads back exactly this name: bare when it
/// is a plain identifier, quoted otherwise. Names containing '"' or a
/// newline are not representable in .paws (strings have no escapes).
std::string nameToken(std::string_view name);
/// Appends nameToken(name) to `out` without a temporary.
void appendNameToken(std::string& out, std::string_view name);

/// Serializes `problem` in .paws syntax. parseProblem(writeProblem(p))
/// reconstructs an equivalent problem (same tasks, resources, constraints
/// and power limits), and re-serializing that reconstruction yields the
/// same text (the writer output is a parse/print fixed point).
void writeProblem(std::ostream& os, const Problem& problem);
std::string problemToText(const Problem& problem);

/// CSV: task,resource,start,end,power_mw,energy_mwticks — one row per task
/// in start order.
void writeScheduleCsv(std::ostream& os, const Schedule& schedule);
std::string scheduleToCsv(const Schedule& schedule);

/// CSV of the power profile: begin,end,power_mw — one row per constant
/// segment, for external plotting of the power view.
void writeProfileCsv(std::ostream& os, const PowerProfile& profile);
std::string profileToCsv(const PowerProfile& profile);

/// Chrome-tracing JSON (chrome://tracing, Perfetto): one complete event
/// ("ph":"X") per task, one row per resource, power in the event args —
/// the schedule opens in any trace viewer.
void writeChromeTrace(std::ostream& os, const Schedule& schedule);
std::string scheduleToChromeTrace(const Schedule& schedule);

}  // namespace paws::io
