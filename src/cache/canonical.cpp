#include "cache/canonical.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <tuple>
#include <vector>

#include "base/hash.hpp"
#include "graph/longest_path.hpp"

namespace paws::cache {

namespace {

// The canonical rendering is computed on every cache probe, so it is on
// the hit path. One renderer feeds one of two sinks: a string (kFull keeps
// the text) or a running FNV-1a-64 state (the exact-hit key needs only
// the hash, so the text is never built). Both see the same bytes in the
// same order, so the hash sink's state is fnv1a64 of the text.

struct TextSink {
  std::string& out;
  void put(std::string_view piece) { out += piece; }
};

struct HashSink {
  std::uint64_t state = kFnv1a64OffsetBasis;
  void put(std::string_view piece) { state = fnv1a64Append(state, piece); }
};

template <class Sink>
void putNum(Sink& sink, std::int64_t v) {
  char buf[24];
  const char* end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  sink.put(std::string_view(buf, static_cast<std::size_t>(end - buf)));
}

/// Canonical spelling of a watt quantity: exact milliwatts, or "inf" for
/// the unbounded Pmax sentinel.
template <class Sink>
void putMw(Sink& sink, Watts w) {
  if (w == Watts::max()) {
    sink.put("inf");
  } else {
    putNum(sink, w.milliwatts());
  }
}

/// The anchor renders as "@" among the constraint endpoints.
std::string_view endpointName(const Problem& problem, TaskId v) {
  return v == kAnchorTask ? std::string_view("@")
                          : std::string_view(problem.task(v).name);
}

/// The declaration-order-free orderings both renderings share.
struct CanonicalOrder {
  std::vector<ResourceId> resources;
  std::vector<TaskId> tasks;
  std::vector<const TimingConstraint*> constraints;
};

CanonicalOrder canonicalOrder(const Problem& problem) {
  const std::size_t n = problem.numVertices();
  CanonicalOrder order;

  order.resources = problem.resourceIds();
  std::sort(order.resources.begin(), order.resources.end(),
            [&](ResourceId a, ResourceId b) {
              return problem.resource(a).name < problem.resource(b).name;
            });

  // Every later comparison is on integers: each vertex's rank among the
  // endpoint names, anchor included. Quoted names may sort below "@"
  // ("1x", " a"), and a task may even be named "@", so the anchor is
  // ranked with the rest and equal names share a rank.
  std::vector<std::uint32_t> byName(n);
  for (std::size_t v = 0; v < n; ++v) byName[v] = static_cast<std::uint32_t>(v);
  const auto nameOf = [&](std::uint32_t v) {
    return endpointName(problem, TaskId(v));
  };
  std::sort(byName.begin(), byName.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return nameOf(a) < nameOf(b);
            });
  std::vector<std::uint32_t> rank(n, 0);
  for (std::size_t i = 1; i < n; ++i) {
    rank[byName[i]] = rank[byName[i - 1]] +
                      (nameOf(byName[i - 1]) == nameOf(byName[i]) ? 0 : 1);
  }

  // Task depth = longest-path distance from the anchor, a declaration-
  // order-free property of the constraint system. On a positive cycle the
  // distances are undefined; name order alone still canonicalizes.
  const ConstraintGraph graph = problem.buildGraph();
  LongestPathEngine engine(graph);
  const LongestPathResult& lp = engine.compute(kAnchorTask);
  order.tasks = problem.taskIds();
  std::sort(order.tasks.begin(), order.tasks.end(), [&](TaskId a, TaskId b) {
    if (lp.feasible && lp.dist[a.index()] != lp.dist[b.index()]) {
      return lp.dist[a.index()] < lp.dist[b.index()];
    }
    return rank[a.index()] < rank[b.index()];
  });

  // Constraints by (kind, from-name, to-name, separation).
  const std::vector<TimingConstraint>& all = problem.constraints();
  order.constraints.reserve(all.size());
  for (const TimingConstraint& c : all) order.constraints.push_back(&c);
  const auto constraintKey = [&](const TimingConstraint* c) {
    return std::tuple(static_cast<int>(c->kind), rank[c->from.index()],
                      rank[c->to.index()], c->separation.ticks());
  };
  std::sort(order.constraints.begin(), order.constraints.end(),
            [&](const TimingConstraint* a, const TimingConstraint* b) {
              return constraintKey(a) < constraintKey(b);
            });
  return order;
}

template <class Sink>
void putConstraints(const Problem& problem, const CanonicalOrder& order,
                    Sink& sink) {
  for (const TimingConstraint* c : order.constraints) {
    sink.put(c->kind == TimingConstraint::Kind::kMinSeparation ? "min "
                                                               : "max ");
    sink.put(endpointName(problem, c->from));
    sink.put(" -> ");
    sink.put(endpointName(problem, c->to));
    sink.put(" ");
    putNum(sink, c->separation.ticks());
    sink.put("\n");
  }
}

/// The key: every semantic field in exact integer form.
template <class Sink>
void renderKey(const Problem& problem, const CanonicalOrder& order,
               Sink& sink) {
  sink.put("paws-canonical 1\nproblem ");
  sink.put(problem.name());
  sink.put("\nlimits pmax=");
  putMw(sink, problem.maxPower());
  sink.put(" pmin=");
  putNum(sink, problem.minPower().milliwatts());
  sink.put(" background=");
  putNum(sink, problem.backgroundPower().milliwatts());
  sink.put("\n");
  // Battery/mode lines render only when declared, so every pre-existing
  // problem keeps its canonical text (and cache hash) bit-for-bit.
  if (problem.battery().has_value()) {
    const BatteryTraits& traits = *problem.battery();
    sink.put("battery");
    for (const RateBand& band : traits.bands) {
      sink.put(" rate=");
      putNum(sink, band.threshold.milliwatts());
      sink.put(":");
      putNum(sink, band.factorPermille);
    }
    sink.put(" recoverable=");
    putNum(sink, traits.recoverablePermille);
    sink.put(" recovery=");
    putNum(sink, traits.recoveryRate.milliwatts());
    sink.put("\n");
  }
  for (const SystemMode& mode : problem.modes()) {
    sink.put("mode ");
    sink.put(mode.name);
    sink.put(" ceiling=");
    putNum(sink, mode.ceiling);
    sink.put(" pmax=");
    putNum(sink, mode.pmaxPct);
    sink.put(" pmin=");
    putNum(sink, mode.pminPct);
    sink.put("\n");
  }
  for (ResourceId r : order.resources) {
    sink.put("resource ");
    sink.put(problem.resource(r).name);
    sink.put("\n");
  }
  for (TaskId v : order.tasks) {
    const Task& t = problem.task(v);
    sink.put("task ");
    sink.put(t.name);
    sink.put(" resource=");
    sink.put(problem.resource(t.resource).name);
    sink.put(" delay=");
    putNum(sink, t.delay.ticks());
    sink.put(" power=");
    putNum(sink, t.power.milliwatts());
    sink.put(" crit=");
    putNum(sink, t.criticality);
    sink.put("\n");
  }
  putConstraints(problem, order, sink);
}

/// The near-miss skeleton: no limits, no per-task delay/power.
template <class Sink>
void renderStructural(const Problem& problem, const CanonicalOrder& order,
                      Sink& sink) {
  sink.put("paws-structural 1\nproblem ");
  sink.put(problem.name());
  sink.put("\n");
  for (ResourceId r : order.resources) {
    sink.put("resource ");
    sink.put(problem.resource(r).name);
    sink.put("\n");
  }
  for (TaskId v : order.tasks) {
    const Task& t = problem.task(v);
    sink.put("task ");
    sink.put(t.name);
    sink.put(" resource=");
    sink.put(problem.resource(t.resource).name);
    sink.put(" crit=");
    putNum(sink, t.criticality);
    sink.put("\n");
  }
  putConstraints(problem, order, sink);
}

}  // namespace

CanonicalForm canonicalize(const Problem& problem, CanonicalParts parts) {
  const CanonicalOrder order = canonicalOrder(problem);
  CanonicalForm form;
  if (parts == CanonicalParts::kKeyOnly) {
    HashSink key;
    renderKey(problem, order, key);
    form.hash = key.state;
    return form;
  }
  form.text.reserve(64 + 64 * (problem.numVertices() +
                               order.resources.size() +
                               order.constraints.size()));
  TextSink text{form.text};
  renderKey(problem, order, text);
  form.hash = fnv1a64(form.text);
  HashSink structural;
  renderStructural(problem, order, structural);
  form.structuralHash = structural.state;
  return form;
}

std::uint64_t optionsFingerprint(std::string_view scheduler,
                                 std::uint32_t trials) {
  std::uint64_t h = fnv1a64Append(kFnv1a64OffsetBasis, "scheduler=");
  h = fnv1a64Append(h, scheduler);
  if (scheduler == "pipeline") {
    h = fnv1a64Append(h, ";trials=");
    char buf[16];
    std::snprintf(buf, sizeof buf, "%u", trials);
    h = fnv1a64Append(h, buf);
  }
  return h;
}

}  // namespace paws::cache
