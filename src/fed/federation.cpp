#include "eurochip/fed/federation.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "eurochip/util/fault.hpp"

namespace eurochip::fed {

namespace {
// Golden-ratio stride decorrelates per-hub seed streams (retry jitter,
// synthetic work) without touching flow determinism: artifact results
// depend only on the spec's own FlowConfig seed.
constexpr std::uint64_t kHubSeedStride = 0x9E3779B97F4A7C15uLL;

double steady_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

FederatedService::FederatedService(Options options)
    : options_(std::move(options)),
      num_hubs_(std::max<std::size_t>(1, options_.hubs)),
      router_(std::max<std::size_t>(1, options_.hubs), options_.router),
      clock_(options_.clock != nullptr ? options_.clock
                                       : util::Clock::system()) {
  const std::size_t n = num_hubs_;
  if (options_.enable_remote_cache) {
    remote_ = std::make_unique<RemoteCache>(options_.remote);
  }
  monitor_ =
      std::make_unique<HealthMonitor>(n, options_.monitor, clock_->now_ms());
  reverse_.resize(n);
  hub_epochs_.assign(n, 1);
  crashed_.assign(n, 0);
  partitioned_.assign(n, 0);
  hung_.assign(n, 0);
  caches_.resize(n);
  hubs_.resize(n);
  for (std::size_t i = 0; i < n; ++i) build_hub_locked(i, 1);
  if (options_.steal && n > 1) {
    rebalancer_ = std::thread([this] { rebalancer_loop(); });
  }
  if (options_.health) {
    heartbeat_ = std::thread([this] { heartbeat_loop(); });
  }
}

void FederatedService::build_hub_locked(std::size_t i, std::uint64_t epoch) {
  flow::FlowCache::Options copts;
  copts.max_bytes = options_.l1_bytes;
  copts.second_level = remote_.get();
  caches_[i] = std::make_shared<flow::FlowCache>(copts);

  hub::JobServer::Options hopts = options_.hub_options;
  // The epoch joins the seed so a rebuilt incarnation's jitter streams do
  // not replay its predecessor's; artifact determinism is untouched (it
  // depends only on each spec's own FlowConfig seed).
  hopts.seed = options_.hub_options.seed + kHubSeedStride * (i + 1) +
               (epoch - 1) * 0x10001uLL;
  hopts.cache = caches_[i].get();
  hopts.epoch = epoch;
  if (started_) hopts.start_paused = false;
  hopts.on_terminal = [this, i](std::shared_ptr<const hub::JobRecord> record) {
    on_hub_terminal(i, std::move(record));
  };
  hubs_[i] = std::make_shared<hub::JobServer>(std::move(hopts));
}

FederatedService::~FederatedService() {
  shutdown(hub::JobServer::DrainMode::kCancelPending);
}

void FederatedService::start() {
  std::vector<std::shared_ptr<hub::JobServer>> hubs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
    hubs = hubs_;
  }
  for (auto& h : hubs) h->start();
}

std::shared_ptr<hub::JobServer> FederatedService::hub_ptr(std::size_t i) {
  std::lock_guard<std::mutex> lock(mu_);
  return i < hubs_.size() ? hubs_[i] : nullptr;
}

hub::JobServer& FederatedService::hub(std::size_t i) {
  std::lock_guard<std::mutex> lock(mu_);
  return *hubs_.at(i);
}

flow::FlowCache& FederatedService::l1_cache(std::size_t i) {
  std::lock_guard<std::mutex> lock(mu_);
  return *caches_.at(i);
}

std::uint64_t FederatedService::hub_epoch(std::size_t i) {
  std::lock_guard<std::mutex> lock(mu_);
  return i < hub_epochs_.size() ? hub_epochs_[i] : 0;
}

std::size_t FederatedService::route_for(const hub::JobSpec& spec) const {
  // Shard by (node, design) so one design's history stays on one hub.
  // Synthetic jobs without a design name shard by job name instead.
  const std::string& design =
      spec.design_name.empty() ? spec.name : spec.design_name;
  return router_.hub_for(Router::shard_key(spec.node_name, design));
}

util::Result<FedJobId> FederatedService::submit(hub::JobSpec spec) {
  if (stopping_.load(std::memory_order_relaxed)) {
    return util::Status::FailedPrecondition("federation is shut down");
  }
  bool charged = false;
  if (options_.max_commercial_inflight > 0 &&
      spec.quality == flow::FlowQuality::kCommercial && !spec.degraded) {
    std::lock_guard<std::mutex> lock(mu_);
    if (commercial_inflight_ >= options_.max_commercial_inflight) {
      if (options_.quota_degrade) {
        spec.degraded = true;
        ++stats_.quota_degraded;
      } else {
        ++stats_.quota_rejected;
        return util::Status::ResourceExhausted(
            "global commercial quota reached (" +
            std::to_string(options_.max_commercial_inflight) + " in flight)");
      }
    } else {
      ++commercial_inflight_;
      charged = true;
    }
  }
  const std::size_t n = num_hubs_;
  const std::size_t home0 = route_for(spec);
  util::Result<hub::JobId> local =
      util::Status::Internal("federation routed to no hub");
  std::size_t home = home0;
  bool rerouted = false;
  // The weighted ring already avoids hubs *declared* down; a hub that died
  // in the detection window answers kFailedPrecondition, and the
  // submission walks to the next survivor instead of bouncing the error
  // back to the member.
  //
  // mu_ is held across hub placement so the book's local-id mapping is
  // atomic w.r.t. the hub's terminal callback and the rebalancer: neither
  // can see the local id before reverse_ maps it (fed -> hub is the
  // sanctioned lock order, and JobServer::submit never fires on_terminal
  // synchronously, so this cannot deadlock).
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t attempt = 0; attempt < n; ++attempt) {
    const std::size_t cand = (home0 + attempt) % n;
    if (attempt > 0 && monitor_->state(cand) == HubHealth::kDown) continue;
    local = hubs_[cand]->submit(spec);  // spec intact for the next attempt
    home = cand;
    if (local.ok()) break;
    if (local.status().code() != util::ErrorCode::kFailedPrecondition) break;
    rerouted = true;
  }
  if (!local.ok()) {
    if (charged && commercial_inflight_ > 0) --commercial_inflight_;
    return local.status();
  }
  if (rerouted) ++stats_.rerouted;
  const FedJobId id = next_id_++;
  JobRef& ref = jobs_.try_emplace(id).first->second;
  ref.hub = home;
  ref.local_id = *local;
  ref.charged_commercial = charged;
  ref.spec = std::move(spec);
  ref.submit_ms = clock_->now_ms();
  ++stats_.submitted;
  reverse_[home][*local] = id;
  return id;
}

void FederatedService::on_hub_terminal(
    std::size_t hub_index, std::shared_ptr<const hub::JobRecord> record) {
  std::lock_guard<std::mutex> lock(mu_);
  // Fencing, outermost first. (1) A crashing hub's shutdown fires a
  // cancel storm for everything it still held; those terminals describe
  // the crash, not the jobs' fates — the book stays intact so failover
  // can re-home them. (2) A record stamped with a stale epoch comes from
  // a dead incarnation that was since rebuilt. (3) A fenced (hub, local)
  // pair is a same-incarnation zombie: the job was already re-homed when
  // this hub was declared down, and this late terminal must not settle
  // it a second time.
  if (hub_index < crashed_.size() && crashed_[hub_index]) {
    ++stats_.crash_terminals_dropped;
    return;
  }
  if (hub_index < hub_epochs_.size() &&
      record->hub_epoch != hub_epochs_[hub_index]) {
    ++stats_.stale_terminals_dropped;
    return;
  }
  const auto fit = fenced_.find({hub_index, record->id});
  if (fit != fenced_.end()) {
    fenced_.erase(fit);
    ++stats_.stale_terminals_dropped;
    return;
  }
  // Every federation placement maps its local id under mu_ before the hub
  // can finish the job, so an unmapped terminal belongs to a job that was
  // submitted to the hub directly: not ours to settle.
  auto& rmap = reverse_[hub_index];
  const auto rit = rmap.find(record->id);
  if (rit == rmap.end()) return;
  const FedJobId id = rit->second;
  rmap.erase(rit);
  const auto jit = jobs_.find(id);
  if (jit != jobs_.end()) {
    jit->second.final_record = std::move(record);
    settle_locked(jit->second);
  }
}

void FederatedService::settle_locked(JobRef& ref) {
  if (ref.settled) {
    // Exactly-once settlement is the availability layer's core invariant;
    // any arrival here means a fence failed. Counted so the chaos soak
    // can hard-gate on zero.
    ++stats_.duplicate_settlements;
    return;
  }
  ref.settled = true;
  if (ref.charged_commercial && commercial_inflight_ > 0) {
    --commercial_inflight_;
  }
  // The book-kept work function is no longer needed (no further failover
  // resubmits a settled job); drop it to release the captured design.
  ref.spec.work = nullptr;
  ++stats_.completed;
  ref.settled_cv.notify_all();
}

FederatedService::Settlement FederatedService::settlement_locked(
    const JobRef& ref) {
  Settlement s;
  s.record = ref.orphan != nullptr ? ref.orphan : ref.final_record;
  // An orphan record already counts the prior wait (it was authored from
  // it); a hub's record counts only the wait on its own queue.
  s.prior_wait_ms = ref.orphan != nullptr ? 0.0 : ref.prior_wait_ms;
  s.failovers = ref.failovers;
  s.fed_flight = ref.fed_flight;
  return s;
}

hub::JobRecord FederatedService::merged_record(const Settlement& s) {
  hub::JobRecord out = *s.record;
  out.queue_wait_ms += s.prior_wait_ms;
  out.failovers = s.failovers;
  // Federation entries precede the final hub's own timeline (their t_ms
  // is measured from the federation submission; the hub's entries
  // restart at its local submit).
  out.flight.insert(out.flight.begin(), s.fed_flight.begin(),
                    s.fed_flight.end());
  return out;
}

util::Result<hub::JobRecord> FederatedService::wait(FedJobId id) {
  return wait_for(id, -1.0);
}

util::Result<hub::JobRecord> FederatedService::wait_for(FedJobId id,
                                                        double timeout_ms) {
  Settlement settlement;
  {
    std::unique_lock<std::mutex> lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      return util::Status::NotFound("unknown federation job " +
                                    std::to_string(id));
    }
    // The book is the only place to wait: settlement happens exactly once
    // per job, after every steal, failover and fence has run its course,
    // and JobRef nodes are never erased, so `ref` stays valid.
    JobRef& ref = it->second;
    const auto settled = [&ref] { return ref.settled; };
    if (timeout_ms < 0.0) {
      ref.settled_cv.wait(lock, settled);
    } else if (!ref.settled_cv.wait_for(
                   lock,
                   std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double, std::milli>(timeout_ms)),
                   settled)) {
      return util::Status::DeadlineExceeded(
          "federation job " + std::to_string(id) + " not settled after " +
          std::to_string(timeout_ms) + " ms");
    }
    settlement = settlement_locked(ref);
  }
  return merged_record(settlement);
}

bool FederatedService::cancel(FedJobId id) {
  for (;;) {
    std::size_t home = 0;
    hub::JobId local = 0;
    std::uint64_t generation = 0;
    std::shared_ptr<hub::JobServer> hub_sp;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = jobs_.find(id);
      if (it == jobs_.end() || it->second.orphan) return false;
      // Sticky: a cancel that races a migration or failover is re-applied
      // after the job lands on its new home.
      it->second.cancel_requested = true;
      home = it->second.hub;
      local = it->second.local_id;
      generation = it->second.generation;
      if (crashed_[home]) return true;  // applied when failover re-homes it
      hub_sp = hubs_[home];
    }
    if (hub_sp->cancel(local)) return true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = jobs_.find(id);
      if (it == jobs_.end() || it->second.orphan) return false;
      // Same mapping and the hub refused: genuinely terminal (or mid-
      // migration, in which case the sticky flag finishes the cancel).
      if (it->second.generation == generation) return false;
    }
    // Migrated between our read and the hub call — retry on the new home.
  }
}

bool FederatedService::job_parked(FedJobId id) {
  std::shared_ptr<flow::BreakController> bp;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return false;
    bp = it->second.spec.breakpoint;
  }
  return bp != nullptr && bp->parked();
}

bool FederatedService::wait_parked(FedJobId id, double timeout_ms) {
  std::shared_ptr<flow::BreakController> bp;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return false;
    bp = it->second.spec.breakpoint;
  }
  if (bp == nullptr) return false;
  // Sliced wait (the controller has no unbounded wait) so a job that
  // settles or orphans without ever parking unblocks the caller.
  const double t0 = steady_ms();
  for (;;) {
    double slice = 20.0;
    if (timeout_ms >= 0.0) {
      const double remaining = timeout_ms - (steady_ms() - t0);
      if (remaining <= 0.0) return bp->parked();
      slice = std::min(slice, remaining);
    }
    if (bp->wait_parked(slice)) return true;
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second.settled) return bp->parked();
  }
}

bool FederatedService::resume(FedJobId id) {
  std::shared_ptr<flow::BreakController> bp;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return false;
    bp = it->second.spec.breakpoint;
  }
  if (bp == nullptr) return false;
  // Resuming on the controller (not through any one hub) releases every
  // parked attempt at once — the re-homed copy and a zombie original alike.
  bp->resume();
  return true;
}

util::Result<dbg::QueryResult> FederatedService::query(FedJobId id,
                                                       const dbg::Query& q) {
  for (;;) {
    std::size_t home = 0;
    hub::JobId local = 0;
    std::uint64_t generation = 0;
    std::shared_ptr<hub::JobServer> hub_sp;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = jobs_.find(id);
      if (it == jobs_.end()) {
        return util::Status::NotFound("unknown federation job " +
                                      std::to_string(id));
      }
      JobRef& ref = it->second;
      // Settled (orphans included): serve the flight record from the
      // federation's book with the cross-hub story merged in. (Artifact
      // queries fall through to the last home hub — its cache may still
      // answer.)
      if (ref.settled && q.kind == dbg::QueryKind::kFlight) {
        dbg::QueryResult r;
        r.kind = q.kind;
        r.found = true;
        r.text = hub::render_flight_record(
            merged_record(settlement_locked(ref)));
        return r;
      }
      if (ref.orphan != nullptr) {
        return util::Status::FailedPrecondition(
            "federation job " + std::to_string(id) +
            " was orphaned; only its flight record survives");
      }
      home = ref.hub;
      local = ref.local_id;
      generation = ref.generation;
      hub_sp = hubs_[home];
    }
    // A crashed-but-not-restarted hub is a shut-down JobServer whose
    // records (and the shared controller) are still reachable — querying
    // it is safe; a restarted incarnation answers NotFound and the retry
    // below follows the failover re-homing.
    auto r = hub_sp->query(local, q);
    if (r.ok()) return r;
    if (r.status().code() != util::ErrorCode::kNotFound) return r.status();
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = jobs_.find(id);
      if (it == jobs_.end() || it->second.generation == generation) {
        return r.status();
      }
    }
    // Re-homed between our read and the hub call — retry on the new home.
  }
}

std::size_t FederatedService::rebalance_once() {
  if (stopping_.load(std::memory_order_relaxed) ||
      draining_.load(std::memory_order_relaxed)) {
    return 0;
  }
  const std::size_t n = num_hubs_;
  if (n < 2) return 0;
  std::vector<std::shared_ptr<hub::JobServer>> hubs;
  std::vector<char> skip(n, 0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    hubs = hubs_;
    for (std::size_t i = 0; i < n; ++i) skip[i] = crashed_[i];
  }
  // Load snapshot; each probe takes only that hub's lock. Hubs declared
  // down neither donate nor receive; a kRejoining hub is a prime
  // recipient (idle, empty, cold L1 over a warm L2) — this is the
  // backfill that re-warms a returning hub.
  std::vector<std::size_t> queued(n), idle(n);
  std::size_t donor = 0;
  std::size_t donor_queued = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (skip[i] || monitor_->state(i) == HubHealth::kDown) {
      skip[i] = 1;
      continue;
    }
    queued[i] = hubs[i]->queued_count();
    const auto cap = static_cast<std::size_t>(std::max(0, hubs[i]->capacity()));
    const std::size_t running = hubs[i]->running_count();
    idle[i] = cap > running ? cap - running : 0;
    if (queued[i] > donor_queued) {
      donor_queued = queued[i];
      donor = i;
    }
  }
  if (donor_queued == 0) return 0;
  std::size_t moved = 0;
  for (std::size_t t = 0; t < n && donor_queued > 0; ++t) {
    // Steal only into genuinely idle peers: free workers AND an empty
    // queue, so migration never makes the recipient's backlog worse.
    if (t == donor || skip[t] || idle[t] == 0 || queued[t] != 0) continue;
    const std::size_t want =
        std::min({idle[t], donor_queued, options_.steal_batch});
    if (want == 0) continue;
    auto stolen = hubs[donor]->export_queued(want);
    if (stolen.empty()) break;  // queue drained under us
    donor_queued -= std::min(donor_queued, stolen.size());
    for (auto& job : stolen) {
      if (place_stolen(donor, t, std::move(job))) ++moved;
    }
  }
  return moved;
}

bool FederatedService::place_stolen(std::size_t donor, std::size_t target,
                                    hub::JobServer::StolenJob job) {
  // mu_ is held across the placement, as in submit(): the new local id is
  // mapped before its hub can report the job terminal.
  std::unique_lock<std::mutex> lock(mu_);
  auto& rmap = reverse_[donor];
  const auto rit = rmap.find(job.id);
  if (rit == rmap.end()) {
    // Not a federation job (submitted directly to the hub). Hand it back
    // to the donor so we never lose work we do not track.
    (void)hubs_[donor]->submit(std::move(job.spec));
    return false;
  }
  const FedJobId id = rit->second;
  rmap.erase(rit);

  hub::JobSpec forward = job.spec;  // job.spec kept intact for the fallback
  bool deadline_spent = false;
  if (forward.deadline_ms > 0.0) {
    // The deadline budget is measured from submission; the recipient's
    // clock restarts, so subtract what the donor's queue already consumed.
    const double remaining = forward.deadline_ms - job.waited_ms;
    if (remaining <= 0.0) {
      deadline_spent = true;
    } else {
      forward.deadline_ms = remaining;
    }
  }

  util::Result<hub::JobId> placed =
      util::Status::DeadlineExceeded("deadline consumed while queued");
  std::size_t home = target;
  bool landed = false;
  if (!deadline_spent) {
    placed = hubs_[target]->submit(forward);
    landed = placed.ok();
    if (!landed) {
      // Recipient refused (queue bound, breaker, gate) — return the job
      // to the donor under its original spec; if the donor died in the
      // meantime, any survivor will do before we orphan tracked work.
      placed = hubs_[donor]->submit(job.spec);
      home = donor;
      if (!placed.ok() &&
          placed.status().code() == util::ErrorCode::kFailedPrecondition) {
        for (std::size_t a = 0; a < num_hubs_ && !placed.ok(); ++a) {
          if (a == donor || a == target || crashed_[a]) continue;
          placed = hubs_[a]->submit(job.spec);
          home = a;
        }
      }
    }
  }

  const auto jit = jobs_.find(id);
  if (jit == jobs_.end()) return landed;
  JobRef& ref = jit->second;
  ref.prior_wait_ms += job.waited_ms;
  if (!placed.ok()) {
    // No hub holds the job any more: the federation authors the terminal
    // record (kTimedOut when the deadline ran out in-queue, else kFailed
    // carrying the resubmission status).
    auto orphan = std::make_shared<hub::JobRecord>();
    orphan->name = forward.name;
    orphan->member = forward.member;
    orphan->tier = forward.tier;
    orphan->state = deadline_spent ? hub::JobState::kTimedOut
                                   : hub::JobState::kFailed;
    orphan->status = placed.status();
    orphan->queue_wait_ms = ref.prior_wait_ms;
    ref.orphan = std::move(orphan);
    ++ref.generation;
    ++stats_.orphaned;
    settle_locked(ref);
    return false;
  }
  ref.hub = home;
  ref.local_id = *placed;
  ++ref.generation;
  ref.fed_flight.push_back(
      {clock_->now_ms() - ref.submit_ms, "steal",
       "hub-" + std::to_string(donor) + " -> hub-" + std::to_string(home),
       landed ? "stolen by idle peer after " +
                    std::to_string(static_cast<int>(job.waited_ms)) +
                    " ms queued"
              : "recipient refused; returned"});
  reverse_[home][*placed] = id;
  if (landed) {
    ++stats_.stolen;
  } else {
    ++stats_.steal_returned;
  }
  if (!ref.cancel_requested) return landed;
  // A cancel raced the migration; apply it on the new home. mu_ must be
  // released first: cancelling a queued job fires the hub's on_terminal
  // callback synchronously on this thread, and that callback
  // (on_hub_terminal) takes mu_ — holding it here self-deadlocks. If the
  // job migrates again before this lands, the hub refuses (kMigrated is
  // terminal) and the sticky flag re-applies on the next placement.
  const std::shared_ptr<hub::JobServer> new_home = hubs_[home];
  lock.unlock();
  (void)new_home->cancel(*placed);
  return landed;
}

// --- Availability layer ----------------------------------------------------

bool FederatedService::probe_hub(std::size_t i) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (crashed_[i] || partitioned_[i]) return false;
  }
  // Injectable failure modes, evaluated once per hub per heartbeat round
  // (hub-index order keeps the fault streams deterministic when rounds
  // are driven manually):
  //   crash     — kill the hub outright (workers cancelled + joined);
  //   hang      — hub stops dispatching but stays allocated (paused);
  //   partition — only the probe is black-holed; the hub keeps executing
  //               (the zombie case the epoch/fence machinery exists for).
  if (util::FaultInjector* fi = util::FaultInjector::installed()) {
    if (!fi->check("fed.hub.crash").ok()) {
      crash_hub(i);
      return false;
    }
    if (!fi->check("fed.hub.hang").ok()) {
      auto h = hub_ptr(i);
      {
        std::lock_guard<std::mutex> lock(mu_);
        hung_[i] = 1;
      }
      if (h) h->pause();
      return false;
    }
    if (!fi->check("fed.hub.partition").ok()) return false;
  }
  auto h = hub_ptr(i);
  if (!h) return false;
  (void)h->queued_count();  // the RPC-analog liveness call
  bool resume = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (hung_[i]) {
      hung_[i] = 0;
      resume = true;
    }
  }
  if (resume) h->start();  // hang cleared: resume dispatch
  return true;
}

std::size_t FederatedService::heartbeat_once() {
  const double now = clock_->now_ms();
  std::vector<HealthMonitor::Transition> all;
  for (std::size_t i = 0; i < num_hubs_; ++i) {
    const bool ok = probe_hub(i);
    auto ts = monitor_->observe(i, ok, now);
    all.insert(all.end(), ts.begin(), ts.end());
  }
  auto ticked = monitor_->tick(now);
  all.insert(all.end(), ticked.begin(), ticked.end());
  apply_transitions(all);
  // Ramp rejoining hubs back into the ring: every healthy beat unmasks
  // another slice of vnodes (rejoin_progress) until kUp restores all.
  for (std::size_t i = 0; i < num_hubs_; ++i) {
    if (monitor_->state(i) == HubHealth::kRejoining) {
      router_.set_weight(i, monitor_->rejoin_progress(i));
    }
  }
  return all.size();
}

void FederatedService::apply_transitions(
    const std::vector<HealthMonitor::Transition>& ts) {
  for (const auto& t : ts) {
    switch (t.to) {
      case HubHealth::kDown:
        if (t.from != HubHealth::kDown) declare_down(t.hub, t.at_ms);
        break;
      case HubHealth::kRejoining:
        router_.set_weight(t.hub, monitor_->rejoin_progress(t.hub));
        // A healed (not rebuilt) hub may still hold fenced zombies;
        // reap them now that we can talk to it again.
        reconcile_zombies(t.hub);
        break;
      case HubHealth::kUp:
        router_.set_weight(t.hub, 1.0);
        if (t.from == HubHealth::kRejoining) {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.hub_rejoins;
        }
        break;
      case HubHealth::kSuspect:
        break;  // advisory: still routed, still trusted
    }
  }
}

void FederatedService::declare_down(std::size_t i, double now_ms) {
  // Mask first: nothing new routes to the dead hub while we re-home.
  router_.set_weight(i, 0.0);
  std::vector<std::pair<std::size_t, hub::JobId>> reapply;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.hub_down_events;
    auto& rmap = reverse_[i];
    std::vector<FedJobId> to_move;
    to_move.reserve(rmap.size());
    for (const auto& [local, fid] : rmap) {
      fenced_.insert({i, local});
      to_move.push_back(fid);
    }
    rmap.clear();
    // unordered_map iteration order is not deterministic; failover in
    // FedJobId order so recovery placement is reproducible.
    std::sort(to_move.begin(), to_move.end());
    for (const FedJobId fid : to_move) {
      fail_over_locked(i, fid, now_ms, &reapply);
    }
  }
  for (const auto& [h, local] : reapply) {
    // Sticky cancels re-applied outside mu_ (a queued-job cancel fires
    // on_hub_terminal synchronously on this thread).
    (void)hub_ptr(h)->cancel(local);
  }
}

void FederatedService::fail_over_locked(
    std::size_t from, FedJobId id, double now_ms,
    std::vector<std::pair<std::size_t, hub::JobId>>* reapply) {
  const auto jit = jobs_.find(id);
  if (jit == jobs_.end()) return;
  JobRef& ref = jit->second;
  if (ref.orphan != nullptr || ref.settled) return;

  hub::JobSpec spec = ref.spec;  // copy: the work fn is shared, not cloned
  bool deadline_spent = false;
  if (spec.deadline_ms > 0.0) {
    const double remaining = spec.deadline_ms - (now_ms - ref.submit_ms);
    if (remaining <= 0.0) {
      deadline_spent = true;
    } else {
      spec.deadline_ms = remaining;
    }
  }

  util::Result<hub::JobId> placed = util::Status::DeadlineExceeded(
      "deadline consumed before failover could re-home the job");
  std::size_t target = from;
  if (!deadline_spent) {
    // Preferred new home: wherever the masked ring now says — survivors
    // keep shard locality, and every future submission of this design
    // agrees with the failover's choice. Walk the remaining hubs if the
    // preferred one refuses.
    // `from` is not special-cased: in the declare_down paths it is always
    // filtered out here (crashed, or just transitioned to kDown), while in
    // the restart path its NEW incarnation is a legitimate home.
    const std::size_t pref = route_for(spec);
    for (std::size_t a = 0; a < num_hubs_ && !placed.ok(); ++a) {
      const std::size_t cand = (pref + a) % num_hubs_;
      if (crashed_[cand]) continue;
      if (monitor_->state(cand) == HubHealth::kDown) continue;
      // Lock order fed -> hub permits submitting with mu_ held.
      placed = hubs_[cand]->submit(spec);
      if (placed.ok()) target = cand;
    }
  }

  ++ref.failovers;
  ++ref.generation;
  if (!placed.ok()) {
    auto orphan = std::make_shared<hub::JobRecord>();
    orphan->name = ref.spec.name;
    orphan->member = ref.spec.member;
    orphan->tier = ref.spec.tier;
    orphan->state = deadline_spent ? hub::JobState::kTimedOut
                                   : hub::JobState::kFailed;
    orphan->status = placed.status();
    orphan->queue_wait_ms = ref.prior_wait_ms;
    ref.orphan = std::move(orphan);
    ref.fed_flight.push_back({now_ms - ref.submit_ms, "failover",
                              "hub-" + std::to_string(from) + " -> none",
                              "no surviving hub accepted the job"});
    ++stats_.orphaned;
    settle_locked(ref);
    return;
  }
  ref.hub = target;
  ref.local_id = *placed;
  ref.fed_flight.push_back(
      {now_ms - ref.submit_ms, "failover",
       "hub-" + std::to_string(from) + " -> hub-" + std::to_string(target),
       "home declared down; resubmitted (same seed, restores the steps "
       "in the shared cache)"});
  ++stats_.failed_over;
  reverse_[target][*placed] = id;
  if (ref.cancel_requested && reapply != nullptr) {
    reapply->push_back({target, *placed});
  }
}

void FederatedService::reconcile_zombies(std::size_t i) {
  std::vector<hub::JobId> locals;
  std::shared_ptr<hub::JobServer> h;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [hub_index, local] : fenced_) {
      if (hub_index == i) locals.push_back(local);
    }
    h = i < hubs_.size() ? hubs_[i] : nullptr;
  }
  if (!h) return;
  std::size_t reaped = 0;
  for (const hub::JobId local : locals) {
    // Best effort: a zombie that already finished answers false (its
    // terminal was — or will be — dropped by the fence); a still-queued
    // or running duplicate is cancelled so the healed hub does not burn
    // capacity on work that lives elsewhere now.
    if (h->cancel(local)) ++reaped;
  }
  if (reaped > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.zombies_reaped += reaped;
  }
}

void FederatedService::crash_hub(std::size_t i) {
  if (i >= num_hubs_) return;
  std::shared_ptr<hub::JobServer> victim;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (crashed_[i]) return;
    // Flag BEFORE shutdown: the dying hub cancels everything it holds and
    // fires a terminal storm; black-holing it keeps the book intact so
    // declare_down can fail the jobs over instead of settling them as
    // cancelled.
    crashed_[i] = 1;
    victim = hubs_[i];
  }
  victim->shutdown(hub::JobServer::DrainMode::kCancelPending);
}

void FederatedService::restart_hub(std::size_t i) {
  if (i >= num_hubs_) return;
  std::vector<std::pair<std::size_t, hub::JobId>> reapply;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!crashed_[i]) return;
    const std::uint64_t epoch = ++hub_epochs_[i];
    // Jobs still booked to the dead incarnation — the crash may not have
    // been *detected* yet (no declare_down ran), in which case their
    // terminals can never arrive. Collect them for re-homing below.
    std::vector<FedJobId> strays;
    strays.reserve(reverse_[i].size());
    for (const auto& [local, fid] : reverse_[i]) strays.push_back(fid);
    std::sort(strays.begin(), strays.end());
    // The new incarnation reuses local job ids from 1; purge every
    // per-hub keying of the old incarnation so they cannot collide.
    for (auto it = fenced_.begin(); it != fenced_.end();) {
      it = it->first == i ? fenced_.erase(it) : std::next(it);
    }
    reverse_[i].clear();
    // Cold L1 (the crash lost it), warm shared L2: the rebuilt hub's first
    // jobs fast-forward through whatever steps the federation already
    // computed. The ring keeps the hub masked until the health monitor
    // walks it kDown -> kRejoining -> kUp.
    build_hub_locked(i, epoch);
    crashed_[i] = 0;
    // Epoch fencing (not the fenced_ set) covers any zombie terminal the
    // old incarnation managed to emit; the strays just need a live home —
    // survivors, or the new incarnation itself when the ring still trusts
    // this hub.
    const double now = clock_->now_ms();
    for (const FedJobId fid : strays) {
      fail_over_locked(i, fid, now, &reapply);
    }
  }
  for (const auto& [h, local] : reapply) {
    (void)hub_ptr(h)->cancel(local);  // sticky cancels, applied unlocked
  }
}

void FederatedService::partition_hub(std::size_t i, bool partitioned) {
  if (i >= num_hubs_) return;
  std::lock_guard<std::mutex> lock(mu_);
  partitioned_[i] = partitioned ? 1 : 0;
}

// --- Drain / shutdown / background threads ---------------------------------

std::vector<hub::JobRecord> FederatedService::drain() {
  draining_.store(true, std::memory_order_relaxed);
  std::vector<std::shared_ptr<hub::JobServer>> hubs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    hubs = hubs_;
  }
  for (auto& h : hubs) (void)h->drain();
  std::vector<FedJobId> ids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ids.reserve(jobs_.size());
    for (const auto& [id, ref] : jobs_) ids.push_back(id);
  }
  std::vector<hub::JobRecord> out;
  out.reserve(ids.size());
  for (const FedJobId id : ids) {
    auto record = wait(id);
    if (record.ok()) out.push_back(std::move(*record));
  }
  draining_.store(false, std::memory_order_relaxed);
  return out;
}

void FederatedService::shutdown(hub::JobServer::DrainMode mode) {
  bool expected = false;
  if (stopping_.compare_exchange_strong(expected, true)) {
    {
      std::lock_guard<std::mutex> lock(steal_mu_);
    }
    cv_steal_.notify_all();
    if (rebalancer_.joinable()) rebalancer_.join();
    {
      std::lock_guard<std::mutex> lock(health_mu_);
    }
    cv_health_.notify_all();
    if (heartbeat_.joinable()) heartbeat_.join();
  }
  std::vector<std::shared_ptr<hub::JobServer>> hubs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    hubs = hubs_;
  }
  for (auto& h : hubs) h->shutdown(mode);
}

void FederatedService::rebalancer_loop() {
  const auto interval = std::chrono::duration<double, std::milli>(
      std::max(0.1, options_.steal_interval_ms));
  std::unique_lock<std::mutex> lock(steal_mu_);
  while (!stopping_.load(std::memory_order_relaxed)) {
    cv_steal_.wait_for(lock, interval, [this] {
      return stopping_.load(std::memory_order_relaxed);
    });
    if (stopping_.load(std::memory_order_relaxed)) break;
    lock.unlock();
    if (!draining_.load(std::memory_order_relaxed)) (void)rebalance_once();
    lock.lock();
  }
}

void FederatedService::heartbeat_loop() {
  const auto interval = std::chrono::duration<double, std::milli>(
      std::max(0.1, options_.heartbeat_interval_ms));
  std::unique_lock<std::mutex> lock(health_mu_);
  while (!stopping_.load(std::memory_order_relaxed)) {
    cv_health_.wait_for(lock, interval, [this] {
      return stopping_.load(std::memory_order_relaxed);
    });
    if (stopping_.load(std::memory_order_relaxed)) break;
    lock.unlock();
    (void)heartbeat_once();
    lock.lock();
  }
}

FederatedService::Stats FederatedService::stats() {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.commercial_inflight = commercial_inflight_;
  return s;
}

std::string FederatedService::export_prometheus() {
  std::vector<std::shared_ptr<hub::JobServer>> hubs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    hubs = hubs_;
  }
  std::string out;
  for (std::size_t i = 0; i < hubs.size(); ++i) {
    out += hubs[i]->metrics().export_prometheus("hub",
                                                "hub-" + std::to_string(i));
  }
  if (remote_) {
    const RemoteCache::Stats rs = remote_->stats();
    const auto counter = [&out](const char* name, std::uint64_t v) {
      const std::string pn = std::string("eurochip_fed_remote_") + name;
      out += "# TYPE " + pn + " counter\n";
      out += pn + " " + std::to_string(v) + "\n";
    };
    const auto gauge = [&out](const char* name, double v) {
      const std::string pn = std::string("eurochip_fed_remote_") + name;
      out += "# TYPE " + pn + " gauge\n";
      out += pn + " " + std::to_string(v) + "\n";
    };
    counter("fetch_hits", rs.fetch_hits);
    counter("fetch_misses", rs.fetch_misses);
    counter("publishes", rs.publishes);
    counter("publish_dupes", rs.publish_dupes);
    counter("evictions", rs.evictions);
    counter("bytes_fetched", rs.bytes_fetched);
    counter("bytes_published", rs.bytes_published);
    gauge("simulated_network_ms", rs.simulated_network_ms);
    gauge("bytes", static_cast<double>(rs.bytes));
    gauge("entries", static_cast<double>(rs.entries));
  }
  for (std::size_t i = 0; i < num_hubs_; ++i) {
    const std::string label = "{hub=\"hub-" + std::to_string(i) + "\"}";
    out += "# TYPE eurochip_fed_hub_health gauge\n";
    out += "eurochip_fed_hub_health" + label + " " +
           std::to_string(static_cast<int>(monitor_->state(i))) + "\n";
    out += "# TYPE eurochip_fed_hub_epoch gauge\n";
    out += "eurochip_fed_hub_epoch" + label + " " +
           std::to_string(hub_epoch(i)) + "\n";
  }
  return out;
}

}  // namespace eurochip::fed
