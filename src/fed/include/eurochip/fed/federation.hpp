// FederatedService: several hub::JobServers operated as one platform.
//
// The paper argues for *shared* enablement infrastructure (Recommendations
// 7/8); one JobServer is a single hub. This module federates N of them:
//
//   * a sharded front end (Router): submissions route by the
//     (node, design) identity digest on a consistent-hash ring, so one
//     design's jobs always land on the same hub — its L1 FlowCache and
//     circuit breaker accumulate that design's history;
//   * a shared second-level cache (RemoteCache wired into every hub's
//     FlowCache as flow::CacheTier): step entries computed on one hub are
//     fetched — as verified bytes, over a modeled network — by every
//     other, so cross-hub duplicate work is only paid once;
//   * cross-hub work stealing: a background rebalancer moves queued jobs
//     from the most-backlogged hub onto idle peers (the donor finalizes
//     them as kMigrated; the federation re-maps the job id), respecting
//     the recipient's admission control and circuit breakers;
//   * global tier quotas: a federation-wide cap on concurrently admitted
//     kCommercial-effort jobs, enforced at submission (degrade-to-open or
//     reject), on top of each hub's local shedding;
//   * an availability layer (HealthMonitor + epoch fencing): heartbeat
//     probes classify each hub kUp/kSuspect/kDown/kRejoining; a hub
//     declared down is masked off the ring and its book-kept jobs are
//     failed over to survivors (queued jobs verbatim, running jobs with
//     their original seeds, restoring every step still in the shared
//     L2); zombie terminals from a declared-dead hub
//     are fenced so nothing settles twice; a restarted hub rejoins the
//     ring gradually while the rebalancer backfills it. See DESIGN.md
//     "Availability & failure domains" for the full protocol, including
//     the federation/hub lock-order contract.
//
// Determinism contract: federated execution changes WHERE and WHEN a job
// runs, never its result. For a fixed spec seed, a job's artifact digest
// (JobRecord::artifact_digest) is identical on 1 hub or N, with stealing
// on or off, cold caches or warm, hubs crashing and rejoining or not —
// bench_federation and bench_failover enforce this with hard gates.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "eurochip/fed/health.hpp"
#include "eurochip/fed/remote_cache.hpp"
#include "eurochip/fed/router.hpp"
#include "eurochip/flow/cache.hpp"
#include "eurochip/hub/server.hpp"
#include "eurochip/util/clock.hpp"

namespace eurochip::fed {

/// Federation-wide job handle. Stable across migrations and failovers (the
/// underlying hub-local JobId changes when a job is re-homed).
using FedJobId = std::uint64_t;

class FederatedService {
 public:
  struct Options {
    /// Member hubs. Each gets its own JobServer + L1 FlowCache.
    std::size_t hubs = 2;
    /// Template for every hub's JobServer (capacity, scheduler, admission
    /// control, ...). Per-hub overrides applied by the federation: `seed`
    /// is decorrelated per hub, `cache` points at the hub's own L1,
    /// `epoch` carries the hub's incarnation number, and `on_terminal` is
    /// taken over for quota accounting.
    hub::JobServer::Options hub_options;
    /// Per-hub L1 FlowCache byte budget.
    std::size_t l1_bytes = 64u << 20;
    /// Shared L2 tier; disable to make hubs cache-islands (ablation).
    bool enable_remote_cache = true;
    RemoteCache::Options remote;
    Router::Options router;
    /// Cross-hub work stealing by the background rebalancer.
    bool steal = true;
    double steal_interval_ms = 5.0;
    /// Max queued jobs moved per donor per rebalance round.
    std::size_t steal_batch = 4;
    /// Global quota: max concurrently admitted (queued or running)
    /// kCommercial-effort jobs across all hubs. 0 = unlimited.
    std::size_t max_commercial_inflight = 0;
    /// At the quota: true = admit degraded to open effort (counts
    /// quota_degraded), false = reject with kResourceExhausted.
    bool quota_degrade = true;
    /// Availability: run the background heartbeat thread (probe every hub
    /// each heartbeat_interval_ms, apply HealthMonitor transitions —
    /// masking, failover, rejoin ramp). Disable to drive detection
    /// manually with heartbeat_once(); deterministic tests do that with a
    /// FakeClock.
    bool health = true;
    double heartbeat_interval_ms = 5.0;
    HealthMonitor::Options monitor;
    /// Time source for heartbeat timestamps and failover bookkeeping
    /// (borrowed; must outlive the service). Null = util::Clock::system().
    util::Clock* clock = nullptr;
  };

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;       ///< terminal on some hub (not migrated)
    std::uint64_t stolen = 0;          ///< successful migrations
    std::uint64_t steal_returned = 0;  ///< steals bounced back to the donor
    std::uint64_t orphaned = 0;        ///< re-homed jobs no hub would take
    std::uint64_t quota_degraded = 0;
    std::uint64_t quota_rejected = 0;
    std::size_t commercial_inflight = 0;
    // Availability counters.
    std::uint64_t failed_over = 0;     ///< jobs re-homed off a down hub
    std::uint64_t rerouted = 0;        ///< submissions re-routed off a dead home
    std::uint64_t stale_terminals_dropped = 0;  ///< zombie terminals fenced
    std::uint64_t crash_terminals_dropped = 0;  ///< black-holed by a crash
    /// settle attempts on an already-settled job. The exactly-once
    /// invariant says this stays 0 — bench_failover hard-gates on it.
    std::uint64_t duplicate_settlements = 0;
    std::uint64_t hub_down_events = 0;  ///< kDown declarations
    std::uint64_t hub_rejoins = 0;      ///< kRejoining -> kUp completions
    std::uint64_t zombies_reaped = 0;   ///< fenced jobs cancelled on heal
  };

  explicit FederatedService(Options options);
  ~FederatedService();

  FederatedService(const FederatedService&) = delete;
  FederatedService& operator=(const FederatedService&) = delete;

  /// Wakes hubs constructed with start_paused.
  void start();

  /// Routes and enqueues. Fails like JobServer::submit, plus
  /// kResourceExhausted when the global commercial quota rejects. A home
  /// hub that turns out to be dead (kFailedPrecondition) is skipped: the
  /// submission re-routes to the next surviving hub (stats.rerouted).
  util::Result<FedJobId> submit(hub::JobSpec spec);

  /// Blocks until the federation has settled the job — wherever it ran,
  /// however often it was stolen or failed over — and returns the record
  /// booked at settlement: its queue_wait_ms includes time spent queued on
  /// every hub that held the job, its failovers field counts re-homings
  /// off dead hubs, and its flight record carries the federation's
  /// steal/failover entries. Never waits on a hub. Equivalent to
  /// wait_for(id, -1).
  [[nodiscard]] util::Result<hub::JobRecord> wait(FedJobId id);

  /// Bounded wait: like wait() but gives up with kDeadlineExceeded after
  /// `timeout_ms` (the job itself is unaffected). Negative = wait forever.
  /// Once hubs can die, an unbounded wait is the wrong default for
  /// callers that cannot tolerate operator intervention windows.
  [[nodiscard]] util::Result<hub::JobRecord> wait_for(FedJobId id,
                                                     double timeout_ms);

  /// Cancels wherever the job currently lives; a cancel racing a steal or
  /// failover is re-applied after the job lands on its new home.
  bool cancel(FedJobId id);

  // --- design-debug service ----------------------------------------------
  // The breakpoint controller (hub::JobSpec::breakpoint) travels with the
  // book-kept spec across steals and failovers, so these work wherever the
  // job currently lives — including a zombie hub the federation has
  // already declared dead (the park is on the shared controller, not on
  // any one incarnation).

  /// True while the job's flow thread is parked at its breakpoint.
  [[nodiscard]] bool job_parked(FedJobId id);

  /// Blocks until the job parks (negative = forever). False for unknown
  /// ids, jobs without a breakpoint, and jobs that settle without ever
  /// reaching the break step.
  [[nodiscard]] bool wait_parked(FedJobId id, double timeout_ms);

  /// Releases the job from its breakpoint, wherever it is parked.
  bool resume(FedJobId id);

  /// Routes a debug query to the job's current home hub, re-resolving the
  /// home when a migration or failover races the query. kFlight on a
  /// settled or orphaned job is served from the federation's own book with
  /// the steal/failover story merged in — a hub's record memory dies with
  /// its incarnation, the federation's does not.
  [[nodiscard]] util::Result<dbg::QueryResult> query(FedJobId id,
                                                     const dbg::Query& q);

  /// Runs one rebalance round synchronously (also what the background
  /// thread does); returns jobs moved. Exposed for deterministic tests.
  std::size_t rebalance_once();

  /// Drains every hub (stealing paused) and returns all federation job
  /// records in FedJobId order.
  std::vector<hub::JobRecord> drain();

  /// Stops the heartbeat + rebalancer threads and shuts every hub down;
  /// idempotent.
  void shutdown(
      hub::JobServer::DrainMode mode = hub::JobServer::DrainMode::kDrain);

  [[nodiscard]] Stats stats();

  /// Concatenated per-hub metrics, each labeled {hub="hub-<i>"}, followed
  /// by the shared remote tier's stats as eurochip_fed_remote_* samples
  /// and per-hub health/epoch gauges (eurochip_fed_hub_health encodes
  /// HubHealth as 0=up 1=suspect 2=down 3=rejoining).
  [[nodiscard]] std::string export_prometheus();

  // --- Availability & chaos surface --------------------------------------
  // crash/restart/partition are the operator/chaos controls bench_failover
  // scripts; probe faults can also be injected with the FaultInjector
  // sites fed.hub.crash / fed.hub.hang / fed.hub.partition, evaluated per
  // hub (in index order) on every heartbeat round.

  /// One synchronous heartbeat round: probes every hub, feeds outcomes and
  /// a timeout tick into the HealthMonitor at the current clock time, and
  /// applies the resulting transitions (vnode masking, failover, zombie
  /// reconciliation, rejoin ramp). Returns the number of transitions.
  /// This is exactly what the background heartbeat thread runs.
  std::size_t heartbeat_once();

  /// Chaos: kills hub `i` — cancels its work, joins its workers, loses its
  /// L1. Terminal callbacks from the dying incarnation are black-holed
  /// (stats.crash_terminals_dropped), leaving the book intact for
  /// failover. Detection still flows through heartbeats. No-op if already
  /// crashed.
  void crash_hub(std::size_t i);

  /// Chaos: rebuilds a crashed hub — fresh JobServer under a bumped epoch,
  /// cold L1 over the still-warm shared L2. The hub stays masked until
  /// the monitor walks it kDown -> kRejoining -> kUp. No-op unless
  /// crashed.
  void restart_hub(std::size_t i);

  /// Chaos: black-holes hub `i`'s heartbeat probes WITHOUT stopping its
  /// workers — the canonical zombie: jobs keep finishing on a hub the
  /// federation has declared dead. Their terminals are fenced, not
  /// settled. `partitioned = false` heals the link.
  void partition_hub(std::size_t i, bool partitioned);

  [[nodiscard]] HealthMonitor& health() { return *monitor_; }
  /// Current incarnation number of hub `i` (starts at 1; bumped by
  /// restart_hub).
  [[nodiscard]] std::uint64_t hub_epoch(std::size_t i);

  [[nodiscard]] std::size_t num_hubs() const { return num_hubs_; }
  /// Current server/cache for hub `i`. The reference is invalidated by
  /// restart_hub(i) — do not hold it across a restart.
  [[nodiscard]] hub::JobServer& hub(std::size_t i);
  [[nodiscard]] flow::FlowCache& l1_cache(std::size_t i);
  [[nodiscard]] RemoteCache* remote_cache() { return remote_.get(); }
  [[nodiscard]] const Router& router() const { return router_; }

 private:
  struct JobRef {
    std::size_t hub = 0;          ///< current home hub index
    hub::JobId local_id = 0;      ///< id on that hub
    std::uint64_t generation = 0; ///< bumped on every migration/failover
    double prior_wait_ms = 0.0;   ///< queue time consumed on previous hubs
    bool charged_commercial = false;
    bool settled = false;         ///< quota released / completion counted
    bool cancel_requested = false;
    /// Set when no hub holds the job any more (failed re-admission after a
    /// steal or failover): the federation-authored terminal record.
    std::shared_ptr<const hub::JobRecord> orphan;
    /// The hub's published terminal record, booked by pointer at
    /// settlement (the hub never writes it again). It outlives the hub's
    /// incarnation (crash + restart_hub), so wait() is served from here.
    std::shared_ptr<const hub::JobRecord> final_record;
    /// Book-kept copy of the submission, exactly as admitted (post-quota
    /// degrade) — what failover resubmits verbatim. The work function is
    /// dropped at settlement to release captured artifacts.
    hub::JobSpec spec;
    double submit_ms = 0.0;  ///< federation clock at submission
    int failovers = 0;       ///< re-homings off a down hub
    /// Federation-level flight entries (steal/failover), t_ms measured
    /// from the federation submission; merged into returned records.
    std::vector<hub::FlightEntry> fed_flight;
    /// The job's waiters (wait_for) block here until `settled`.
    std::condition_variable settled_cv;
  };

  /// A settled job as its waiters see it: the booked record plus the
  /// federation's story, taken under mu_ so that the record itself —
  /// immutable — is copied after unlocking.
  struct Settlement {
    std::shared_ptr<const hub::JobRecord> record;
    double prior_wait_ms = 0.0;
    int failovers = 0;
    std::vector<hub::FlightEntry> fed_flight;
  };

  void on_hub_terminal(std::size_t hub_index,
                       std::shared_ptr<const hub::JobRecord> record);
  /// Releases the quota charge, counts completion and wakes the job's
  /// waiters; counts (and ignores) duplicate attempts. Caller holds mu_.
  void settle_locked(JobRef& ref);
  void rebalancer_loop();
  void heartbeat_loop();
  /// Re-homes one stolen job onto `target` (falling back to the donor,
  /// then any survivor, then an orphan record), holding mu_ across the
  /// hub submits. Returns true if it landed on `target`.
  bool place_stolen(std::size_t donor, std::size_t target,
                    hub::JobServer::StolenJob job);
  /// RPC-analog liveness probe of hub `i`, gated by the chaos state and
  /// the fed.hub.{crash,hang,partition} fault sites.
  bool probe_hub(std::size_t i);
  void apply_transitions(const std::vector<HealthMonitor::Transition>& ts);
  /// Masks hub `i` off the ring, fences its book-kept jobs, and fails
  /// them over to survivors.
  void declare_down(std::size_t i, double now_ms);
  /// Resubmits one fenced job to a surviving hub (or orphans it). Caller
  /// holds mu_; hubs needing a sticky-cancel re-application are appended
  /// to `reapply` (the caller cancels them after unlocking).
  void fail_over_locked(std::size_t from, FedJobId id, double now_ms,
                        std::vector<std::pair<std::size_t, hub::JobId>>* reapply);
  /// Best-effort cancel of fenced zombies on a healed (not rebuilt) hub.
  void reconcile_zombies(std::size_t i);
  [[nodiscard]] std::size_t route_for(const hub::JobSpec& spec) const;
  [[nodiscard]] std::shared_ptr<hub::JobServer> hub_ptr(std::size_t i);
  /// Builds the JobServer for hub `i` at `epoch`. Caller holds mu_ (or is
  /// the constructor).
  void build_hub_locked(std::size_t i, std::uint64_t epoch);
  /// Takes a settled job's booked record and story. Caller holds mu_.
  static Settlement settlement_locked(const JobRef& ref);
  /// The record waiters get: a copy of the booked record with the
  /// federation's story (prior wait, failovers, fed flight) merged in.
  static hub::JobRecord merged_record(const Settlement& s);

  // Declaration order is destruction-order-critical: hub worker threads
  // call on_hub_terminal (locks mu_, touches the maps) until each hub is
  // shut down, so mu_ and the maps are declared BEFORE hubs_ (destroyed
  // after them); caches_ and remote_ likewise outlive the hubs using them.
  Options options_;
  std::size_t num_hubs_ = 0;
  Router router_;
  util::Clock* clock_ = nullptr;
  std::unique_ptr<HealthMonitor> monitor_;

  std::mutex mu_;
  std::map<FedJobId, JobRef> jobs_;
  /// (hub, local id) -> fed id, one map per hub. Installed under mu_ in
  /// the same critical section as the hub submit that minted the local
  /// id, so a terminal never arrives before its mapping.
  std::vector<std::unordered_map<hub::JobId, FedJobId>> reverse_;
  /// Fencing tombstones: (hub, local id) of jobs re-homed off a hub that
  /// was declared down while their original copies may still run there.
  /// A terminal arriving for a fenced pair is dropped, not settled.
  std::set<std::pair<std::size_t, hub::JobId>> fenced_;
  /// Per-hub incarnation number (starts at 1; bumped by restart_hub and
  /// stamped into records via JobServer::Options::epoch).
  std::vector<std::uint64_t> hub_epochs_;
  std::vector<char> crashed_;  ///< chaos: hub killed, callbacks black-holed
  std::vector<char> partitioned_;  ///< chaos: probes black-holed, hub alive
  std::vector<char> hung_;     ///< fed.hub.hang fired: dispatch paused
  FedJobId next_id_ = 1;
  std::size_t commercial_inflight_ = 0;
  Stats stats_;
  bool started_ = false;  ///< start() called (restarted hubs must not pause)
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopping_{false};

  std::unique_ptr<RemoteCache> remote_;
  /// Hub slots are shared_ptr so restart_hub can swap an incarnation while
  /// concurrent submit/wait/rebalance calls keep the old one alive (they
  /// copy the pointer under mu_ and never index the vectors unlocked).
  std::vector<std::shared_ptr<flow::FlowCache>> caches_;
  std::vector<std::shared_ptr<hub::JobServer>> hubs_;

  std::mutex steal_mu_;
  std::condition_variable cv_steal_;
  std::mutex health_mu_;
  std::condition_variable cv_health_;
  std::thread rebalancer_;
  std::thread heartbeat_;
};

}  // namespace eurochip::fed
