#include "exec/pool.hpp"

#include "base/check.hpp"
#include "exec/jobs.hpp"
#include "obs/metrics.hpp"

namespace paws::exec {

Pool::Pool(std::size_t threads, std::size_t maxQueued)
    : maxQueued_(maxQueued) {
  const std::size_t n = threads > 0 ? threads : defaultJobs();
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { workerLoop(i); });
  }
}

Pool::~Pool() {
  stop_.store(true, std::memory_order_release);
  {
    // Empty critical section: a worker between its predicate check and its
    // wait must either see stop_ or receive the notify below.
    std::lock_guard<std::mutex> lk(idleMu_);
  }
  idleCv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void Pool::submit(std::function<void()> fn) {
  PAWS_CHECK_MSG(fn != nullptr, "null task submitted to exec::Pool");
  queued_.fetch_add(1, std::memory_order_release);
  enqueueCounted(std::move(fn));
}

bool Pool::trySubmit(std::function<void()> fn) {
  PAWS_CHECK_MSG(fn != nullptr, "null task submitted to exec::Pool");
  if (maxQueued_ == 0) {
    queued_.fetch_add(1, std::memory_order_release);
    enqueueCounted(std::move(fn));
    return true;
  }
  // Reserve a queue slot first, back out if the reservation overshot the
  // bound: concurrent submitters can never lastingly exceed maxQueued_,
  // and the failure path touches no deque mutex.
  const std::size_t prior = queued_.fetch_add(1, std::memory_order_acq_rel);
  if (prior >= maxQueued_) {
    queued_.fetch_sub(1, std::memory_order_release);
    tasksRejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  enqueueCounted(std::move(fn));
  return true;
}

void Pool::enqueueCounted(std::function<void()> fn) {
  const std::size_t w =
      nextWorker_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  {
    std::lock_guard<std::mutex> lk(workers_[w]->mu);
    workers_[w]->deque.push_back(std::move(fn));
  }
  {
    std::lock_guard<std::mutex> lk(idleMu_);
  }
  idleCv_.notify_one();
}

bool Pool::tryPop(std::size_t self, std::function<void()>& out) {
  // Own deque first, newest task (LIFO keeps the working set warm).
  {
    Worker& w = *workers_[self];
    std::lock_guard<std::mutex> lk(w.mu);
    if (!w.deque.empty()) {
      out = std::move(w.deque.back());
      w.deque.pop_back();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  // Steal oldest-first from the other workers, scanning from self+1 so
  // victims spread instead of everyone mobbing worker 0.
  const std::size_t n = workers_.size();
  for (std::size_t hop = 1; hop < n; ++hop) {
    Worker& victim = *workers_[(self + hop) % n];
    std::lock_guard<std::mutex> lk(victim.mu);
    if (!victim.deque.empty()) {
      out = std::move(victim.deque.front());
      victim.deque.pop_front();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      tasksStolen_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void Pool::workerLoop(std::size_t self) {
  std::function<void()> task;
  for (;;) {
    if (tryPop(self, task)) {
      // Counted before it runs: a task publishes its result from inside
      // task(), and whoever has seen that result must read a count that
      // already includes it.
      tasksRun_.fetch_add(1, std::memory_order_relaxed);
      task();
      task = nullptr;
      continue;
    }
    std::unique_lock<std::mutex> lk(idleMu_);
    idleCv_.wait(lk, [this] {
      return stop_.load(std::memory_order_acquire) ||
             queued_.load(std::memory_order_acquire) > 0;
    });
    // Drain-then-exit: stop only takes effect once the deques are empty.
    if (stop_.load(std::memory_order_acquire) &&
        queued_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

Pool::Stats Pool::stats() const {
  return Stats{tasksRun_.load(std::memory_order_relaxed),
               tasksStolen_.load(std::memory_order_relaxed),
               tasksRejected_.load(std::memory_order_relaxed)};
}

void Pool::exportMetrics(obs::MetricsRegistry& registry) const {
  const Stats s = stats();
  registry.set("exec.pool_threads", static_cast<double>(numThreads()));
  registry.add("exec.tasks_run", s.tasksRun);
  registry.add("exec.tasks_stolen", s.tasksStolen);
  registry.add("exec.tasks_rejected", s.tasksRejected);
}

}  // namespace paws::exec
