// paws::exec::Pool — a small work-stealing thread pool.
//
// Each worker owns a deque guarded by its own mutex: the owner pushes and
// pops at the back (LIFO, cache-warm), idle workers steal from the front
// of a victim's deque (FIFO, oldest-first — steals grab the work most
// likely to fan out further). Submission round-robins across workers so
// independent batches spread without a central queue becoming the
// bottleneck; stealing rebalances whatever the round-robin got wrong.
//
// Lifetime and blocking semantics:
//   * submit()/async() never block (beyond the victim deque's mutex);
//   * the destructor drains every queued task, then joins — a Pool going
//     out of scope is a full barrier;
//   * tasks must not throw (async() captures exceptions in its future;
//     plain submit() tasks run under noexcept expectations — PAWS_CHECK
//     failures abort, like everywhere else in the code base).
//
// Backpressure: a Pool may be constructed with a queue capacity, bounding
// how many tasks can sit *waiting* in the deques (running tasks do not
// count). trySubmit() then refuses — immediately, without blocking — once
// the bound is reached; submit() always enqueues regardless (internal
// callers like parallelFor must never be refused mid-algorithm). This is
// the admission-control primitive pawsd's bounded intake queue is built
// on: a full queue is an explicit, countable rejection, never silent
// latency.
//
// The pool is instrumented for the paws::obs registry via exportMetrics():
//   exec.pool_threads   (gauge)   worker count
//   exec.tasks_run      (counter) tasks taken by workers (counted as a
//                                 worker takes one, before it runs)
//   exec.tasks_stolen   (counter) tasks taken from another worker's deque
//   exec.tasks_rejected (counter) trySubmit() refusals at the queue bound
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace paws::obs {
class MetricsRegistry;
}  // namespace paws::obs

namespace paws::exec {

class Pool {
 public:
  /// Spawns `threads` workers; 0 means defaultJobs() (PAWS_JOBS or
  /// hardware_concurrency). `maxQueued` bounds the number of tasks
  /// *waiting* in the deques (0 = unbounded): beyond it trySubmit()
  /// refuses. Tasks already claimed by a worker no longer count.
  explicit Pool(std::size_t threads = 0, std::size_t maxQueued = 0);

  /// Drains all remaining tasks, then joins the workers.
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  [[nodiscard]] std::size_t numThreads() const { return workers_.size(); }

  /// Enqueues a fire-and-forget task. Always accepts, even on a bounded
  /// pool — algorithmic callers (parallelFor helpers, nested solves) may
  /// not be refused mid-flight. Admission-controlled traffic goes through
  /// trySubmit().
  void submit(std::function<void()> fn);

  /// Bounded enqueue: refuses (returns false, counts a rejection) when
  /// the pool was built with a queue capacity and that many tasks are
  /// already waiting. Never blocks — this is the queue-full ⇒ immediate
  /// structured backpressure primitive. On an unbounded pool it behaves
  /// exactly like submit() and always returns true.
  [[nodiscard]] bool trySubmit(std::function<void()> fn);

  /// Tasks currently waiting in the deques (an instantaneous upper
  /// bound — concurrent pops may race it down). The overload ladder reads
  /// this as its queue-depth signal.
  [[nodiscard]] std::size_t queueDepth() const {
    return queued_.load(std::memory_order_acquire);
  }

  /// The trySubmit() bound this pool was built with (0 = unbounded).
  [[nodiscard]] std::size_t maxQueued() const { return maxQueued_; }

  /// Enqueues `fn` and returns a future for its result (exceptions are
  /// captured into the future, as with std::async).
  template <typename F>
  auto async(F fn) -> std::future<std::invoke_result_t<F&>> {
    using R = std::invoke_result_t<F&>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> future = task->get_future();
    submit([task] { (*task)(); });
    return future;
  }

  struct Stats {
    std::uint64_t tasksRun = 0;
    std::uint64_t tasksStolen = 0;
    std::uint64_t tasksRejected = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// Publishes exec.pool_threads / exec.tasks_run / exec.tasks_stolen /
  /// exec.tasks_rejected.
  void exportMetrics(obs::MetricsRegistry& registry) const;

 private:
  struct Worker {
    std::mutex mu;
    std::deque<std::function<void()>> deque;
  };

  void workerLoop(std::size_t self);
  bool tryPop(std::size_t self, std::function<void()>& out);
  /// Pushes `fn` onto a deque and wakes a worker. `queued_` must already
  /// have been incremented for this task.
  void enqueueCounted(std::function<void()> fn);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  // queued_ is an upper bound on tasks sitting in deques (incremented
  // before the push, decremented after a successful pop), so the idle
  // predicate can be checked without sweeping every deque.
  std::atomic<std::size_t> queued_{0};
  std::atomic<std::size_t> nextWorker_{0};
  std::atomic<bool> stop_{false};
  std::size_t maxQueued_ = 0;
  std::mutex idleMu_;
  std::condition_variable idleCv_;

  std::atomic<std::uint64_t> tasksRun_{0};
  std::atomic<std::uint64_t> tasksStolen_{0};
  std::atomic<std::uint64_t> tasksRejected_{0};
};

}  // namespace paws::exec
