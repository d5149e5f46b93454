#include "serve/ladder.hpp"

#include <algorithm>
#include <array>

namespace paws::serve {

const char* toString(ServiceMode mode) {
  switch (mode) {
    case ServiceMode::kHealthy:
      return "healthy";
    case ServiceMode::kDegraded:
      return "degraded";
    case ServiceMode::kCacheOnly:
      return "cache_only";
    case ServiceMode::kRejectNew:
      return "reject_new";
  }
  return "?";
}

ServiceMode ServiceLadder::demandOf(const LadderSignals& s) const {
  ServiceMode demand = ServiceMode::kHealthy;
  if (s.queueCapacity > 0) {
    const std::uint64_t permille =
        static_cast<std::uint64_t>(s.queueDepth) * 1000u / s.queueCapacity;
    if (permille >= config_.rejectPermille) {
      demand = ServiceMode::kRejectNew;
    } else if (permille >= config_.cacheOnlyPermille) {
      demand = ServiceMode::kCacheOnly;
    } else if (permille >= config_.degradePermille) {
      demand = ServiceMode::kDegraded;
    }
  }
  // Latency trigger: a p99 blowing through the budget means the queue
  // depth alone understates the pressure (slow requests, not many
  // requests) — force at least the degraded rung.
  if (config_.p99BudgetMultiple > 0 && s.defaultBudgetUs > 0 &&
      s.p99ServiceUs >
          s.defaultBudgetUs *
              static_cast<std::int64_t>(config_.p99BudgetMultiple)) {
    demand = std::max(demand, ServiceMode::kDegraded);
  }
  return demand;
}

ModeChange ServiceLadder::observe(const LadderSignals& signals) {
  const ServiceMode demand = demandOf(signals);
  std::lock_guard<std::mutex> lock(mu_);
  ModeChange change;
  change.from = mode_;
  if (demand > mode_) {
    // Escalate straight to what the signals demand: under a burst, the
    // intermediate rungs would each cost a batch of mis-admitted work.
    mode_ = demand;
    cleanStreak_ = 0;
  } else if (demand < mode_) {
    if (++cleanStreak_ >= config_.deescalateAfterClean) {
      // One rung at a time on the way down — anti-flap hysteresis.
      mode_ = static_cast<ServiceMode>(static_cast<std::uint8_t>(mode_) - 1);
      cleanStreak_ = 0;
    }
  } else {
    cleanStreak_ = 0;
  }
  change.to = mode_;
  change.changed = change.from != change.to;
  return change;
}

void ServiceLadder::recordServiceUs(std::int64_t us) {
  std::lock_guard<std::mutex> lock(mu_);
  window_[windowNext_] = us;
  windowNext_ = (windowNext_ + 1) % kWindow;
  windowUsed_ = std::min(windowUsed_ + 1, kWindow);
}

std::int64_t ServiceLadder::p99ServiceUs() const {
  // Read on every request, exact hits included: a stack copy and a
  // linear-time selection, not an allocation and a full sort.
  std::array<std::int64_t, kWindow> sample{};
  std::size_t n = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    n = windowUsed_;
    std::copy_n(window_.begin(), n, sample.begin());
  }
  if (n == 0) return 0;
  // Nearest-rank p99 on the copied sample, outside the lock.
  const std::size_t rank = (n * 99 + 99) / 100;  // ceil(n * 0.99), 1-based
  const auto nth =
      sample.begin() + static_cast<std::ptrdiff_t>(std::min(rank, n) - 1);
  std::nth_element(sample.begin(), nth,
                   sample.begin() + static_cast<std::ptrdiff_t>(n));
  return *nth;
}

}  // namespace paws::serve
