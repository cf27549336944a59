#include "eurochip/flow/breakpoint.hpp"

#include <chrono>

namespace eurochip::flow {

namespace {
/// Cancellation poll interval while parked. Short enough that cancel and
/// shutdown stay responsive; resume() additionally notifies the condition
/// variable, so the common path never waits a full interval.
constexpr std::chrono::milliseconds kParkPoll{5};
}  // namespace

void BreakController::set_hooks(const util::CancelToken& owner,
                                std::function<void()> on_park,
                                std::function<void(double)> on_resume) {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(hooks_, [&owner](const Hooks& h) { return h.owner == owner; });
  hooks_.push_back({owner, std::move(on_park), std::move(on_resume)});
}

void BreakController::clear_hooks(const util::CancelToken& owner) {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(hooks_, [&owner](const Hooks& h) { return h.owner == owner; });
}

double BreakController::park(const FlowContext& ctx,
                             const util::CancelToken& cancel) {
  const auto t0 = std::chrono::steady_clock::now();
  // The owner hook fires BEFORE the parked context is published: once
  // wait_parked()/parked() observe the park, the owner's bookkeeping
  // (gauges, flight entries) is already in place.
  Hooks hooks;
  std::uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    epoch = resume_epoch_;
    for (const Hooks& h : hooks_) {
      if (h.owner == cancel) hooks = h;
    }
  }
  if (hooks.on_park) hooks.on_park();
  {
    std::lock_guard<std::mutex> lock(mu_);
    parked_.push_back(&ctx);
  }
  cv_.notify_all();

  {
    std::unique_lock<std::mutex> lock(mu_);
    // Deadline deliberately ignored: only resume() or an explicit cancel
    // ends the park. The parked duration is credited back via on_resume.
    while (resume_epoch_ == epoch && !cancel.cancel_requested()) {
      cv_.wait_for(lock, kParkPoll);
    }
    for (auto it = parked_.begin(); it != parked_.end(); ++it) {
      if (*it == &ctx) {
        parked_.erase(it);
        break;
      }
    }
  }
  cv_.notify_all();
  const double parked_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  if (hooks.on_resume) hooks.on_resume(parked_ms);
  return parked_ms;
}

void BreakController::resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++resume_epoch_;
  }
  cv_.notify_all();
}

bool BreakController::wait_parked(double timeout_ms) const {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock,
                      std::chrono::nanoseconds(
                          static_cast<std::int64_t>(timeout_ms * 1e6)),
                      [this] { return !parked_.empty(); });
}

bool BreakController::parked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !parked_.empty();
}

bool BreakController::inspect(
    const std::function<void(const FlowContext&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (parked_.empty()) return false;
  fn(*parked_.back());
  return true;
}

}  // namespace eurochip::flow
