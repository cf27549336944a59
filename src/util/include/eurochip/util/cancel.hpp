// Cooperative cancellation for long-running work (flow jobs, benches).
//
// A CancelSource owns the cancellation state; CancelToken is a cheap,
// copyable view that workers poll between units of work. Both sides are
// thread-safe: request_cancel()/set_deadline() may race freely with
// cancelled() checks from other threads (all state is atomic).
//
// Deadlines are absolute steady_clock instants so a token can be handed
// across threads without re-basing; helpers below convert from relative
// durations.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>

namespace eurochip::util {

namespace internal {
struct CancelState {
  std::atomic<bool> cancelled{false};
  /// steady_clock time_since_epoch in nanoseconds; max() = no deadline.
  std::atomic<std::int64_t> deadline_ns{std::numeric_limits<std::int64_t>::max()};
};
}  // namespace internal

/// Copyable, thread-safe view on a CancelSource. A default-constructed
/// token is never cancelled and has no deadline (safe "null" token).
class CancelToken {
 public:
  CancelToken() = default;

  /// True once the owning source requested cancellation.
  [[nodiscard]] bool cancel_requested() const {
    return state_ && state_->cancelled.load(std::memory_order_relaxed);
  }

  /// True once the source's deadline (if any) has passed.
  [[nodiscard]] bool deadline_passed() const {
    if (!state_) return false;
    const std::int64_t ns = state_->deadline_ns.load(std::memory_order_relaxed);
    if (ns == std::numeric_limits<std::int64_t>::max()) return false;
    return std::chrono::steady_clock::now().time_since_epoch() >=
           std::chrono::nanoseconds(ns);
  }

  /// Either explicitly cancelled or past deadline — "stop now".
  [[nodiscard]] bool cancelled() const {
    return cancel_requested() || deadline_passed();
  }

  /// Identity: both tokens view the same source (or both are null).
  [[nodiscard]] bool operator==(const CancelToken&) const = default;

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<internal::CancelState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<internal::CancelState> state_;
};

/// Owner side: create one per cancellable unit of work, hand out tokens.
class CancelSource {
 public:
  CancelSource() : state_(std::make_shared<internal::CancelState>()) {}

  void request_cancel() {
    state_->cancelled.store(true, std::memory_order_relaxed);
  }

  /// Sets (or moves) the absolute deadline.
  void set_deadline(std::chrono::steady_clock::time_point tp) {
    state_->deadline_ns.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            tp.time_since_epoch())
            .count(),
        std::memory_order_relaxed);
  }

  /// Pushes an existing deadline `ms` milliseconds further out; no-op when
  /// no deadline is set. Used to suspend the deadline clock while a job is
  /// parked at a flow breakpoint: the parked duration is credited back on
  /// resume, so wall time spent inspecting never counts against the job.
  void extend_deadline_ms(double ms) {
    const std::int64_t ns =
        state_->deadline_ns.load(std::memory_order_relaxed);
    if (ns == std::numeric_limits<std::int64_t>::max()) return;
    state_->deadline_ns.store(ns + static_cast<std::int64_t>(ms * 1e6),
                              std::memory_order_relaxed);
  }

  /// Deadline `ms` milliseconds from now.
  void set_deadline_after_ms(double ms) {
    set_deadline(std::chrono::steady_clock::now() +
                 std::chrono::nanoseconds(
                     static_cast<std::int64_t>(ms * 1e6)));
  }

  [[nodiscard]] CancelToken token() const { return CancelToken(state_); }

  [[nodiscard]] bool cancel_requested() const {
    return state_->cancelled.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<internal::CancelState> state_;
};

}  // namespace eurochip::util
