// Flow breakpoints: park a running flow after a named step so its
// intermediate artifacts can be inspected, then resume (or cancel) it.
//
// A BreakController is the rendezvous between the flow thread (which calls
// park() from FlowTemplate::execute after the break step completes) and an
// inspector (a hub::JobServer debug query, a test, a REPL). Semantics:
//
//   * While parked, the deadline clock is suspended: park() polls only
//     explicit cancellation (cancel_requested), never deadline_passed, and
//     reports the parked duration to the on_resume hook so the owner can
//     credit it back (util::CancelSource::extend_deadline_ms). Explicit
//     cancel is still honored promptly — a parked job is cancellable.
//   * Hooks belong to the cancel token their owner's flow parks with, so
//     owners sharing a controller never take each other's park or credit.
//   * inspect() runs a callback on the parked FlowContext under the
//     controller lock; the flow thread cannot leave the park while the
//     callback runs, so reads of the intermediate artifacts are race-free.
//   * resume() releases every parked thread (a controller may be parked by
//     more than one attempt of the same job — retries, a failed-over rerun,
//     a zombie hub — each parks and resumes independently and epoch
//     counting wakes them all). Resuming before the flow reaches the
//     breakpoint is a no-op for that epoch, not a lost wakeup: callers who
//     want park-then-resume sequencing use wait_parked() first.
//
// The controller is shared by std::shared_ptr (FlowConfig::breakpoint and
// hub::JobSpec both carry one) and every method is thread-safe.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "eurochip/util/cancel.hpp"

namespace eurochip::flow {

struct FlowContext;

class BreakController {
 public:
  /// Installs (or replaces) the hooks that park(ctx, owner) runs. `on_park`
  /// fires just before the flow thread publishes the parked context (so an
  /// observer woken by wait_parked() already sees the owner's bookkeeping);
  /// `on_resume` fires after it unparks, with the parked duration in ms.
  /// Both run on the flow thread, outside the controller lock.
  void set_hooks(const util::CancelToken& owner, std::function<void()> on_park,
                 std::function<void(double parked_ms)> on_resume);

  /// Drops `owner`'s hooks (the owner is done with this controller).
  void clear_hooks(const util::CancelToken& owner);

  /// Blocks the calling flow thread, running `cancel`'s hooks, until
  /// resume() or explicit cancellation; returns the parked duration in ms.
  /// Called by FlowTemplate::execute — not by inspectors.
  double park(const FlowContext& ctx, const util::CancelToken& cancel);

  /// Releases every currently parked flow thread. Idempotent; a resume
  /// with nobody parked only invalidates nothing (epochs are only compared
  /// against parks that are already waiting).
  void resume();

  /// Blocks until some flow thread is parked here, up to `timeout_ms`.
  [[nodiscard]] bool wait_parked(double timeout_ms) const;

  [[nodiscard]] bool parked() const;

  /// Runs `fn` on the most recently parked context while holding the
  /// controller lock (the flow thread cannot unpark underneath it).
  /// Returns false — without calling `fn` — if nothing is parked.
  bool inspect(const std::function<void(const FlowContext&)>& fn) const;

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  /// Contexts of currently parked flow threads, in park order. Each entry
  /// stays valid exactly while its thread waits inside park().
  std::vector<const FlowContext*> parked_;
  std::uint64_t resume_epoch_ = 0;
  struct Hooks {
    util::CancelToken owner;
    std::function<void()> on_park;
    std::function<void(double)> on_resume;
  };
  std::vector<Hooks> hooks_;  ///< at most one entry per owner
};

}  // namespace eurochip::flow
