// Cooperative cancellation for scheduling runs.
//
// A CancelSource owns the cancellation flag; CancelTokens are cheap,
// copyable views of it that schedulers and pool workers poll at safe
// points (node expansions, chunk boundaries, pass boundaries). Dropping
// the source never invalidates outstanding tokens — the flag is shared —
// and a default-constructed token is permanently "not cancelled", so the
// clean path pays exactly one null check per poll.
//
// Cancellation is strictly cooperative: nothing is interrupted mid-
// mutation. Every scheduler unwinds through its existing trail and the
// checkpoint/restore of its one flat power profile (power::ProfileEngine)
// before returning, so a cancelled run leaves its graph and profile
// exactly as consistent as a failed one.
#pragma once

#include <atomic>
#include <memory>

namespace paws::guard {

class CancelSource;

/// Read-only view of a cancellation flag. Copyable, thread-safe, and
/// valid for as long as any source or token referencing the flag lives.
class CancelToken {
 public:
  /// A token that can never be cancelled (the clean fast path).
  CancelToken() = default;

  [[nodiscard]] bool cancelled() const {
    return flag_ != nullptr && flag_->load(std::memory_order_relaxed);
  }

  /// True when this token is connected to a source (cancellable at all).
  [[nodiscard]] bool connected() const { return flag_ != nullptr; }

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<const std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  std::shared_ptr<const std::atomic<bool>> flag_;
};

/// Owner side: create one per request, hand token() to the run, call
/// cancel() from any thread to stop it at the next safe point.
class CancelSource {
 public:
  CancelSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() { flag_->store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancelled() const {
    return flag_->load(std::memory_order_relaxed);
  }
  [[nodiscard]] CancelToken token() const { return CancelToken(flag_); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

}  // namespace paws::guard
