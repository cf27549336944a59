// JobServer: the hub's concurrent flow-job execution engine.
//
// Where core::EnablementHub::simulate_queue *models* the shared platform
// of Recommendation 7 as a mean-field discrete-event simulation, JobServer
// *is* that platform in miniature: a fixed-size worker pool (capacity =
// EnablementHub::Options::job_capacity) executing real
// flow::run_reference_flow jobs concurrently, with
//   * tier-aware priority scheduling + per-member fairness (TierScheduler,
//     Recommendation 8) and beginner open-node gating at submission via
//     EnablementHub::check_member_access;
//   * per-job deadlines and cooperative cancellation, checked between flow
//     steps through util::CancelToken;
//   * bounded automatic retries with exponential backoff + deterministic
//     jitter (per-job util::Rng stream derived from the server seed);
//   * a lock-safe MetricsRegistry recording queue wait, run time, retries,
//     and per-step durations harvested from FlowResult::steps;
//   * end-to-end tracing: with a util::trace session active, every job
//     runs under a "job:<name>" span (trace track = JobId) with
//     per-attempt child spans and enqueue/shed/breaker/retry instants,
//     and every JobRecord carries a flight record — the per-job
//     timestamped event log rendered by render_flight_record().
//
// Resilience (DESIGN.md "Failure model"): the platform is shared, so one
// bad job must never take the hub down and overload must degrade
// gracefully —
//   * exception isolation: anything thrown out of a work function is
//     caught by the worker and finalizes the job as a retryable kInternal
//     failure carrying the what() text, instead of std::terminate;
//   * admission control: Options::max_queue_depth bounds the queue
//     (rejections are kResourceExhausted), and Options::shed_watermark
//     downgrades kCommercial submissions to open effort under backlog
//     (JobRecord::degraded, jobs_degraded counter);
//   * a per-(node, design) circuit breaker that opens after
//     Options::breaker_threshold consecutive permanent failures and
//     fast-fails submissions (kUnavailable) until breaker_cooldown_ms
//     elapses, then lets one probe through (half-open);
//   * checkpoint-resume retries: with a FlowCache attached, a retry after
//     a mid-flow failure restores every step the failed attempt stored
//     (JobRecord::resume_depth) instead of restarting at elaboration.
//
// measured_queue_report() renders completed work in the same QueueReport
// shape simulate_queue produces (time unit: milliseconds), so the
// simulated and measured views of the hub are directly comparable — see
// bench/bench_hub_server.cpp.
//
// Thread-safety: all public methods are safe to call from any thread.
// Internally one mutex guards the queue/records; metrics have their own
// lock and are never updated while the server mutex is held by the same
// thread path that locks them (no lock-order cycles).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "eurochip/core/enablement.hpp"
#include "eurochip/dbg/debug.hpp"
#include "eurochip/flow/cache.hpp"
#include "eurochip/hub/job.hpp"
#include "eurochip/hub/metrics.hpp"
#include "eurochip/hub/scheduler.hpp"
#include "eurochip/util/result.hpp"

namespace eurochip::hub {

/// Deterministic, pure backoff schedule: min(cap, base * 2^(attempt-1))
/// scaled by a jitter factor in [1.0, 1.5) drawn from `rng`. `attempt` is
/// the 1-based attempt that just failed. Exposed for tests.
[[nodiscard]] double backoff_delay_ms(const JobSpec& spec, int attempt,
                                      util::Rng& rng);

class JobServer {
 public:
  struct Options {
    int capacity = 4;                  ///< worker threads
    std::uint64_t seed = 0xEC0FFEEuLL; ///< root of per-job rng/jitter streams
    /// Workers idle until start() — lets tests submit a full batch first
    /// so dispatch order is a pure function of the scheduler.
    bool start_paused = false;
    SchedulerOptions scheduler;
    /// Default per-job deadline when JobSpec::deadline_ms == 0;
    /// 0 = unlimited.
    double default_deadline_ms = 0.0;
    /// When set, submissions with a node_name are gated through
    /// hub->check_member_access (tier gating, NDA/export rules). The hub
    /// must outlive the server. Its job_capacity does NOT override
    /// `capacity`; use for_hub() for that.
    const core::EnablementHub* hub = nullptr;
    /// Shared per-stage flow artifact cache, handed to every job through
    /// JobContext::cache (borrowed; must outlive the server). Cache
    /// activity observed by this server is mirrored into the metrics as
    /// flow_cache_{hits,misses,stores,evictions} counters and
    /// flow_cache_{bytes,entries} gauges after each job. Each server
    /// baselines the cache's counters at construction and mirrors only
    /// deltas since then, so servers sharing one cache each report the
    /// activity observed during their own lifetime (concurrent servers
    /// attribute interleaved activity to whichever syncs it first — the
    /// per-server sums stay consistent, nothing is counted twice from a
    /// fixed observation point).
    flow::FlowCache* cache = nullptr;
    /// Admission control: reject submissions with kResourceExhausted once
    /// the queue holds this many jobs. 0 = unbounded (no shedding).
    std::size_t max_queue_depth = 0;
    /// Load shedding: at or above this queue depth, kCommercial
    /// submissions are admitted at open effort instead of being rejected
    /// (JobContext::degraded / JobRecord::degraded). 0 = disabled.
    std::size_t shed_watermark = 0;
    /// Circuit breaker: consecutive *permanent* failures of one
    /// (node, design) pair before its breaker opens and submissions
    /// fast-fail with kUnavailable. 0 = disabled.
    int breaker_threshold = 0;
    /// How long an open breaker rejects before letting one probe through.
    double breaker_cooldown_ms = 1000.0;
    /// Invoked (outside the server lock) every time a job reaches a
    /// terminal state — except kMigrated, whose lifecycle continues on
    /// another server — with the job's published record: the server's own
    /// record object, shared, never written again. A federation books it
    /// to settle the job without polling or copying. Must not call back
    /// into this server synchronously with blocking intent (submit/cancel
    /// are fine; wait would deadlock the worker).
    std::function<void(std::shared_ptr<const JobRecord>)> on_terminal;
    /// Incarnation number stamped into every JobRecord::hub_epoch. A
    /// federation bumps it each time it rebuilds a crashed hub, and drops
    /// terminal records carrying a stale epoch (zombie fencing). 0 is a
    /// valid epoch for standalone servers.
    std::uint64_t epoch = 0;
  };

  explicit JobServer(Options options);

  /// Convenience: a server sized and gated by an existing EnablementHub
  /// (capacity = hub.options().job_capacity).
  [[nodiscard]] static Options options_for(const core::EnablementHub& hub);

  /// Cancels everything still pending and joins the workers.
  ~JobServer();

  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  /// Enqueues a job. Fails with kPermissionDenied / kNotFound if the hub
  /// gate rejects it, kInvalidArgument for a missing work function,
  /// kFailedPrecondition after shutdown, kResourceExhausted when the
  /// bounded queue is full, and kUnavailable while the (node, design)
  /// circuit breaker is open.
  util::Result<JobId> submit(JobSpec spec);

  /// Circuit-breaker introspection (tests/benches): true while submissions
  /// for this (node, design) pair fast-fail.
  [[nodiscard]] bool breaker_open(const std::string& node_name,
                                  const std::string& design_name);

  /// Wakes the workers when constructed with start_paused.
  void start();

  /// Pauses dispatch: workers finish their current job but pick up no new
  /// ones until start(). Submissions still enqueue. The federation's
  /// chaos layer uses this to model a hung hub (fed.hub.hang).
  void pause();

  /// Requests cancellation. Queued jobs finalize immediately as
  /// kCancelled; running jobs get their token flipped and finalize when
  /// the work function observes it. Returns false for unknown/terminal.
  bool cancel(JobId id);

  /// Blocks until `id` reaches a terminal state; returns its record.
  /// Equivalent to wait_for(id, -1).
  [[nodiscard]] util::Result<JobRecord> wait(JobId id);

  /// Bounded wait: like wait() but gives up with kDeadlineExceeded after
  /// `timeout_ms` (the job itself is unaffected — it stays queued or
  /// running). Negative timeout = wait forever.
  [[nodiscard]] util::Result<JobRecord> wait_for(JobId id, double timeout_ms);

  /// Blocks until the queue is empty and all workers are idle (resuming a
  /// paused server first), then returns every record sorted by id.
  std::vector<JobRecord> drain();

  enum class DrainMode {
    kDrain,          ///< finish all queued work, then stop
    kCancelPending,  ///< cancel queued + running work, stop ASAP
  };

  /// Graceful shutdown with drain semantics; idempotent. After it
  /// returns, workers are joined and submit() fails.
  void shutdown(DrainMode mode = DrainMode::kDrain);

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }

  /// The measured twin of EnablementHub::simulate_queue: terminal jobs
  /// rendered as a QueueReport whose time unit is milliseconds since the
  /// server epoch (QueueReport is unit-agnostic). Jobs still queued or
  /// running are excluded.
  [[nodiscard]] core::EnablementHub::QueueReport measured_queue_report();

  [[nodiscard]] std::size_t queued_count();
  [[nodiscard]] std::size_t running_count();
  [[nodiscard]] int capacity() const { return options_.capacity; }

  /// A queued job plucked out of this server by export_queued: everything
  /// a peer needs to resubmit it, plus how long it already waited here.
  struct StolenJob {
    JobId id = 0;           ///< id ON THE DONOR (terminal as kMigrated)
    JobSpec spec;           ///< the original submission, work fn included
    double waited_ms = 0.0; ///< donor queue time already consumed
  };

  /// Work stealing (donor side): pops up to `max_jobs` queued jobs off the
  /// scheduler and finalizes them here as kMigrated (jobs_exported
  /// counter; queue-wait/run histograms are NOT observed — the job's wait
  /// continues on the recipient). Returns the stolen specs; wait()ers on
  /// an exported id wake and see kMigrated. Running jobs are never stolen.
  /// Returns empty after shutdown.
  [[nodiscard]] std::vector<StolenJob> export_queued(std::size_t max_jobs);

  /// Swaps the shared FlowCache (or detaches with nullptr) and re-baselines
  /// the metrics mirror so the new cache's pre-existing totals are not
  /// attributed to this server. Safe while jobs are running: in-flight
  /// jobs keep the pointer they started with.
  void set_cache(flow::FlowCache* cache);

  // --- design-debug service ----------------------------------------------
  // A job submitted with a breakpoint (JobSpec::breakpoint, minted by
  // make_flow_job from FlowConfig::break_after) parks its flow thread
  // after the named step. The server records park/resume in the flight
  // record, exports a jobs_parked gauge, suspends the job's deadline for
  // the parked duration, and answers queries against the parked context.
  // Parked jobs still occupy their worker (they are running, not queued),
  // are never stolen, and honor cancel() promptly.

  /// True while job `id`'s flow thread is parked at its breakpoint.
  [[nodiscard]] bool job_parked(JobId id);

  /// Blocks until job `id` parks (or `timeout_ms` elapses; negative =
  /// forever). False for unknown jobs, jobs without a breakpoint, and
  /// jobs that reach a terminal state without parking.
  [[nodiscard]] bool wait_parked(JobId id, double timeout_ms);

  /// Releases job `id` from its breakpoint. Safe before the park (the
  /// flow simply never waits for that epoch) and after terminal states.
  /// False only for unknown jobs or jobs without a breakpoint.
  bool resume(JobId id);

  /// Currently parked jobs (== the jobs_parked gauge).
  [[nodiscard]] std::size_t parked_count();

  /// Answers a debug query about job `id`. kFlight/kTrace are served from
  /// the server's own records in any state. Artifact queries (where_is /
  /// why_slack / net_route / cone_of) are answered from the live parked
  /// FlowContext when the job is parked; otherwise from the leading run of
  /// FlowCache entries via JobSpec::debug (kNotFound when neither
  /// source exists — e.g. a synthetic job, or a flow job with no cache).
  [[nodiscard]] util::Result<dbg::QueryResult> query(JobId id,
                                                     const dbg::Query& q);

 private:
  struct Entry {
    JobSpec spec;
    /// Written under mu_ until the job is terminal; immutable after, when
    /// it is published through on_terminal and handed out by pointer.
    std::shared_ptr<JobRecord> record = std::make_shared<JobRecord>();
    util::CancelSource cancel;
  };

  /// Breaker state machine (per node/design key, guarded by mu_):
  /// closed -> (threshold consecutive permanent failures) -> open ->
  /// (cooldown elapses; next submit is the half-open probe) -> closed on
  /// success, re-open on another permanent failure.
  struct Breaker {
    int consecutive_failures = 0;
    bool open = false;
    double open_until_ms = 0.0;
    std::uint64_t trips = 0;
  };

  void worker_loop(int index);
  double now_ms() const;
  /// Finalizes under lock (metrics too: metrics_ has its own lock and no
  /// other lock is taken), drops the spec's work function with whatever
  /// its closure captured and its breakpoint hooks (the controller lock
  /// never waits on mu_), and returns the record, immutable from here on.
  std::shared_ptr<const JobRecord> finalize_locked(Entry& entry, JobState state,
                                                   util::Status status);
  void run_job(const std::shared_ptr<Entry>& entry);
  static std::string breaker_key(const JobSpec& spec);
  /// Feeds a terminal outcome into the breaker for the job's key.
  /// Called with mu_ held.
  void update_breaker_locked(const Entry& entry, JobState state,
                             util::ErrorCode code);
  /// Mirrors FlowCache counters into metrics_ as deltas since the last
  /// sync. Called with mu_ held (cache_seen_ is guarded by it).
  void sync_cache_metrics_locked();
  /// Fires Options::on_terminal for a non-migrated terminal record. Must
  /// be called WITHOUT mu_ held.
  void notify_terminal(std::shared_ptr<const JobRecord> record);
  /// Installs park/resume hooks on `entry`'s breakpoint controller (flight
  /// entries, jobs_parked gauge, deadline credit) at submission. They are
  /// registered for the entry's cancel token, so only the entry's own flow
  /// fires them even when other submissions (copies, a stolen job's
  /// recipient) share the controller; finalize_locked drops them. The
  /// hooks append flight entries only to a record that is not terminal.
  void install_breakpoint_hooks(const std::shared_ptr<Entry>& entry);

  Options options_;
  /// Live cache pointer (seeded from Options::cache, swapped by
  /// set_cache). Atomic because run_job reads it without the lock.
  std::atomic<flow::FlowCache*> cache_;
  MetricsRegistry metrics_;
  std::chrono::steady_clock::time_point epoch_;

  std::mutex mu_;
  std::condition_variable cv_work_;   ///< workers: queue/stop/pause changes
  std::condition_variable cv_done_;   ///< waiters: job transitions
  TierScheduler scheduler_;
  std::map<JobId, std::shared_ptr<Entry>> entries_;
  JobId next_id_ = 1;
  std::size_t running_ = 0;
  std::size_t parked_ = 0;  ///< jobs currently parked at a breakpoint
  bool paused_ = false;
  bool stopping_ = false;   ///< no new submissions
  bool stop_now_ = false;   ///< workers exit even with queued work
  /// Last cache stats mirrored to metrics; initialized to the cache's
  /// counters at construction so a server attached to a warm (or shared)
  /// cache reports only activity from its own lifetime.
  flow::FlowCache::Stats cache_seen_;
  std::map<std::string, Breaker> breakers_;  ///< keyed node|design
  std::vector<std::thread> workers_;
};

}  // namespace eurochip::hub
