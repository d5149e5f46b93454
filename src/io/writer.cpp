#include "io/writer.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <vector>

#include "io/lexer.hpp"

namespace paws::io {

namespace {

/// Watts in .paws syntax: integral milliwatt-exact decimal plus "W".
void writeWatts(std::ostream& os, Watts w) {
  os << w;  // operator<< already prints e.g. "14.9W" / "0.025W"
}

/// The lexer's identifier rule: an identifier start, then identifier
/// body characters.
bool isPlainIdentifier(std::string_view name) {
  if (name.empty() || !isIdentStart(name[0])) return false;
  for (char c : name) {
    if (!isIdentBody(c)) return false;
  }
  return true;
}

}  // namespace

std::string nameToken(std::string_view name) {
  std::string out;
  appendNameToken(out, name);
  return out;
}

void appendNameToken(std::string& out, std::string_view name) {
  if (isPlainIdentifier(name)) {
    out += name;
    return;
  }
  out += '"';
  out += name;
  out += '"';
}

void writeProblem(std::ostream& os, const Problem& problem) {
  os << "problem \"" << problem.name() << "\" {\n";
  if (problem.maxPower() != Watts::max()) {
    os << "  pmax ";
    writeWatts(os, problem.maxPower());
    os << "\n";
  }
  if (problem.minPower() > Watts::zero()) {
    os << "  pmin ";
    writeWatts(os, problem.minPower());
    os << "\n";
  }
  if (problem.backgroundPower() > Watts::zero()) {
    os << "  background ";
    writeWatts(os, problem.backgroundPower());
    os << "\n";
  }
  if (problem.battery().has_value()) {
    const BatteryTraits& traits = *problem.battery();
    os << "  battery {";
    for (const RateBand& band : traits.bands) {
      os << " rate ";
      writeWatts(os, band.threshold);
      os << " " << band.factorPermille;
    }
    if (traits.recoverablePermille > 0) {
      os << " recoverable " << traits.recoverablePermille;
    }
    if (traits.recoveryRate > Watts::zero()) {
      os << " recovery ";
      writeWatts(os, traits.recoveryRate);
    }
    os << " }\n";
  }
  for (const SystemMode& mode : problem.modes()) {
    os << "  mode " << nameToken(mode.name) << " { ceiling "
       << static_cast<int>(mode.ceiling) << "  pmax_scale " << mode.pmaxPct
       << "  pmin_scale " << mode.pminPct << " }\n";
  }
  os << "\n";
  for (ResourceId r : problem.resourceIds()) {
    os << "  resource " << nameToken(problem.resource(r).name) << "\n";
  }
  os << "\n";
  for (TaskId v : problem.taskIds()) {
    const Task& t = problem.task(v);
    os << "  task " << nameToken(t.name) << " { resource "
       << nameToken(problem.resource(t.resource).name) << "  delay "
       << t.delay.ticks() << "  power ";
    writeWatts(os, t.power);
    if (t.droppable()) {
      os << "  droppable " << static_cast<int>(t.criticality);
    }
    os << " }\n";
  }
  os << "\n";
  for (const TimingConstraint& c : problem.constraints()) {
    const char* kw =
        c.kind == TimingConstraint::Kind::kMinSeparation ? "min" : "max";
    if (c.from == kAnchorTask) {
      // Anchor-relative constraints round-trip through release/deadline.
      if (c.kind == TimingConstraint::Kind::kMinSeparation) {
        os << "  release " << nameToken(problem.task(c.to).name) << " "
           << c.separation.ticks() << "\n";
      } else {
        os << "  deadline " << nameToken(problem.task(c.to).name) << " "
           << (c.separation + problem.task(c.to).delay).ticks() << "\n";
      }
      continue;
    }
    os << "  " << kw << " " << nameToken(problem.task(c.from).name) << " -> "
       << nameToken(problem.task(c.to).name) << " " << c.separation.ticks()
       << "\n";
  }
  os << "}\n";
}

std::string problemToText(const Problem& problem) {
  std::ostringstream os;
  writeProblem(os, problem);
  return os.str();
}

void writeScheduleCsv(std::ostream& os, const Schedule& schedule) {
  const Problem& p = schedule.problem();
  std::vector<TaskId> order = p.taskIds();
  std::sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    if (schedule.start(a) != schedule.start(b)) {
      return schedule.start(a) < schedule.start(b);
    }
    return a < b;
  });
  os << "task,resource,start,end,power_mw,energy_mwticks\n";
  for (TaskId v : order) {
    const Task& t = p.task(v);
    os << t.name << ',' << p.resource(t.resource).name << ','
       << schedule.start(v).ticks() << ',' << schedule.end(v).ticks() << ','
       << t.power.milliwatts() << ',' << t.energy().milliwattTicks() << "\n";
  }
}

std::string scheduleToCsv(const Schedule& schedule) {
  std::ostringstream os;
  writeScheduleCsv(os, schedule);
  return os.str();
}

void writeProfileCsv(std::ostream& os, const PowerProfile& profile) {
  os << "begin,end,power_mw\n";
  for (const PowerSegment& s : profile.segments()) {
    os << s.interval.begin().ticks() << ',' << s.interval.end().ticks()
       << ',' << s.power.milliwatts() << "\n";
  }
}

std::string profileToCsv(const PowerProfile& profile) {
  std::ostringstream os;
  writeProfileCsv(os, profile);
  return os.str();
}

void writeChromeTrace(std::ostream& os, const Schedule& schedule) {
  const Problem& p = schedule.problem();
  os << "{\"traceEvents\":[";
  bool first = true;
  for (TaskId v : p.taskIds()) {
    const Task& t = p.task(v);
    if (!first) os << ',';
    first = false;
    // tid = resource row; ts/dur in microseconds (1 tick -> 1 us keeps the
    // viewer's zoom sane for second-scale schedules).
    os << "{\"name\":\"" << t.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
       << t.resource.value() + 1 << ",\"ts\":" << schedule.start(v).ticks()
       << ",\"dur\":" << t.delay.ticks() << ",\"args\":{\"power_mw\":"
       << t.power.milliwatts() << ",\"energy_mwticks\":"
       << t.energy().milliwattTicks() << "}}";
  }
  // Resource-name metadata rows.
  for (ResourceId r : p.resourceIds()) {
    os << ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
       << r.value() + 1 << ",\"args\":{\"name\":\""
       << p.resource(r).name << "\"}}";
  }
  os << "]}";
}

std::string scheduleToChromeTrace(const Schedule& schedule) {
  std::ostringstream os;
  writeChromeTrace(os, schedule);
  return os.str();
}

}  // namespace paws::io
