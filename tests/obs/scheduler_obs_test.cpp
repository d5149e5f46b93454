// End-to-end observability: run the real schedulers and the runtime
// executor with an ObsContext attached and check that the recorded trace
// and the metrics registry agree with the returned SchedulerStats.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "graph/longest_path.hpp"
#include "model/paper_example.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rover/rover_model.hpp"
#include "runtime/executor.hpp"
#include "sched/power_aware_scheduler.hpp"

namespace paws {
namespace {

using obs::TraceEventKind;

std::size_t countKind(const obs::TraceSink& sink, TraceEventKind kind) {
  return static_cast<std::size_t>(
      std::count_if(sink.events().begin(), sink.events().end(),
                    [kind](const obs::TraceEvent& e) { return e.kind == kind; }));
}

bool hasPhaseSpan(const obs::TraceSink& sink, const std::string& name) {
  return std::any_of(sink.events().begin(), sink.events().end(),
                     [&name](const obs::TraceEvent& e) {
                       return e.kind == TraceEventKind::kPhase &&
                              name == e.label;
                     });
}

TEST(SchedulerObsTest, PipelineRecordsPhasesEventsAndConsistentMetrics) {
  const Problem p = makePaperExampleProblem();
  obs::TraceSink sink;
  obs::MetricsRegistry metrics;
  PowerAwareOptions options;
  options.obs.trace = &sink;
  options.obs.metrics = &metrics;
  PowerAwareScheduler scheduler(p, options);
  const ScheduleResult r = scheduler.schedule();
  ASSERT_TRUE(r.ok());

  // Every pipeline stage contributed a wall-clock phase span.
  for (const char* phase : {"pipeline", "trial", "timing", "max-power",
                            "min-power"}) {
    EXPECT_TRUE(hasPhaseSpan(sink, phase)) << "missing phase " << phase;
    EXPECT_GE(metrics.histogram(std::string("phase.") + phase + ".wall_us")
                  .count,
              1u)
        << phase;
  }
  // The paper example is built to exercise spike elimination.
  EXPECT_GT(r.stats.delays + r.stats.locks, 0u);
#if PAWS_TRACE_ENABLED
  // The search itself showed up as typed events (compiled out with
  // PAWS_TRACE=OFF; phase spans and metrics remain).
  EXPECT_GT(countKind(sink, TraceEventKind::kCandidate), 0u);
  EXPECT_GT(countKind(sink, TraceEventKind::kLongestPath), 0u);
  EXPECT_GT(countKind(sink, TraceEventKind::kScanPass), 0u);
  // The trials share one timing + max-power run: its delay and lock events
  // are traced once, while the stats charge that run to every trial.
  const std::uint64_t trials = metrics.counter("pipeline.trials");
  EXPECT_EQ(countKind(sink, TraceEventKind::kDelay) * trials, r.stats.delays);
  EXPECT_EQ(countKind(sink, TraceEventKind::kLock) * trials, r.stats.locks);
#endif

  // The registry's search.* counters reconstruct the stats struct exactly.
  const SchedulerStats fromMetrics = statsFromMetrics(metrics);
  EXPECT_EQ(fromMetrics.longestPathRuns, r.stats.longestPathRuns);
  EXPECT_EQ(fromMetrics.backtracks, r.stats.backtracks);
  EXPECT_EQ(fromMetrics.delays, r.stats.delays);
  EXPECT_EQ(fromMetrics.locks, r.stats.locks);
  EXPECT_EQ(fromMetrics.recursions, r.stats.recursions);
  EXPECT_EQ(fromMetrics.scans, r.stats.scans);
  EXPECT_EQ(fromMetrics.improvements, r.stats.improvements);

  // Pipeline bookkeeping and the acceptance-criteria floor of 10 metrics.
  EXPECT_EQ(metrics.counter("pipeline.trials"), 4u);
  EXPECT_GE(metrics.counter("pipeline.trials_ok"), 1u);
  EXPECT_GE(metrics.size(), 10u);
}

TEST(SchedulerObsTest, DisabledContextLeavesSinkUntouched) {
  const Problem p = makePaperExampleProblem();
  PowerAwareScheduler scheduler(p);  // default options: no hooks
  const ScheduleResult r = scheduler.schedule();
  ASSERT_TRUE(r.ok());
  // Nothing observable to assert — the point is the null-sink path runs the
  // whole pipeline without an ObsContext and still produces the schedule.
  EXPECT_GT(r.stats.longestPathRuns, 0u);
}

TEST(LongestPathObsTest, EngineEmitsSpansAndRunCounters) {
  const Problem p = makePaperExampleProblem();
  ConstraintGraph g = p.buildGraph();
  obs::TraceSink sink;
  obs::MetricsRegistry metrics;
  LongestPathEngine engine(g);
  engine.setObs(obs::ObsContext{&sink, &metrics});

  ASSERT_TRUE(engine.compute(kAnchorTask).feasible);
  EXPECT_EQ(metrics.counter("longest_path.runs"), 1u);
  EXPECT_EQ(metrics.counter("longest_path.incremental_runs"), 0u);
  EXPECT_EQ(metrics.histogram("phase.longest_path.wall_us").count, 1u);

  // A re-run after an edge *addition* relaxes incrementally and is counted
  // separately (and labelled so in the trace).
  const TaskId first = p.taskIds().front();
  g.addEdge(kAnchorTask, first, Duration(1), EdgeKind::kRelease);
  ASSERT_TRUE(engine.compute(kAnchorTask).feasible);
  EXPECT_EQ(metrics.counter("longest_path.runs"), 2u);
  EXPECT_EQ(metrics.counter("longest_path.incremental_runs"), 1u);
#if PAWS_TRACE_ENABLED
  ASSERT_EQ(countKind(sink, TraceEventKind::kLongestPath), 2u);
  EXPECT_STREQ(sink.events().back().label, "incremental");
#endif
}

TEST(ExecutorObsTest, IterationSpansAndOutcomeCounters) {
  const Problem p = rover::makeRoverProblem(rover::RoverCase::kTypical, 1);
  PowerAwareScheduler scheduler(p);
  const ScheduleResult r = scheduler.schedule();
  ASSERT_TRUE(r.ok());
  const std::vector<runtime::CaseBinding> bindings = {
      {"typical", Watts::zero(), &p, *r.schedule, 2}};
  runtime::RuntimeExecutor executor(rover::missionSolarProfile(),
                                    rover::missionBattery(), bindings);
  obs::TraceSink sink;
  obs::MetricsRegistry metrics;
  runtime::ExecutorConfig config;
  config.targetSteps = 8;
  config.traceTasks = false;
  config.obs.trace = &sink;
  config.obs.metrics = &metrics;
  const runtime::ExecutionResult result = executor.run(config);

  EXPECT_TRUE(hasPhaseSpan(sink, "executor"));
  EXPECT_EQ(countKind(sink, TraceEventKind::kIteration),
            metrics.counter("executor.iterations"));
  EXPECT_GT(metrics.counter("executor.iterations"), 0u);
  EXPECT_EQ(metrics.counter("executor.missions_complete"),
            result.complete ? 1u : 0u);
  EXPECT_EQ(metrics.gauge("executor.steps"),
            static_cast<double>(result.steps));
}

}  // namespace
}  // namespace paws
