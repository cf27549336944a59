#include "eurochip/hub/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "eurochip/util/trace.hpp"

namespace eurochip::hub {

namespace {

constexpr std::uint64_t kSeedMix = 0x9E3779B97F4A7C15uLL;  // golden-ratio odd

std::string fmt_ms(double ms) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3fms", ms);
  return buf;
}

}  // namespace

double backoff_delay_ms(const JobSpec& spec, int attempt, util::Rng& rng) {
  const double base = std::max(0.0, spec.backoff_base_ms);
  const double cap = std::max(base, spec.backoff_cap_ms);
  const double exponential =
      base * std::pow(2.0, static_cast<double>(std::max(1, attempt) - 1));
  // Jitter multiplies in [1.0, 1.5) so the schedule stays >= the
  // exponential floor and <= 1.5x the cap.
  return std::min(cap, exponential) * (1.0 + 0.5 * rng.uniform());
}

JobServer::JobServer(Options options)
    : options_(std::move(options)),
      cache_(options_.cache),
      epoch_(std::chrono::steady_clock::now()),
      scheduler_(options_.scheduler),
      paused_(options_.start_paused) {
  options_.capacity = std::max(1, options_.capacity);
  // Baseline, not zero: a cache attached mid-life (warm, or shared with
  // another server) must not have its pre-existing totals mirrored into
  // this server's metrics as if they happened here.
  if (options_.cache != nullptr) cache_seen_ = options_.cache->stats();
  // Live load gauges exist from birth so a scrape of an idle server shows
  // explicit zeros instead of absent series.
  metrics_.set_gauge("queue_depth", 0.0);
  metrics_.set_gauge("running", 0.0);
  metrics_.set_gauge("jobs_parked", 0.0);
  workers_.reserve(static_cast<std::size_t>(options_.capacity));
  for (int i = 0; i < options_.capacity; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

JobServer::Options JobServer::options_for(const core::EnablementHub& hub) {
  Options opt;
  opt.capacity = hub.options().job_capacity;
  opt.hub = &hub;
  return opt;
}

JobServer::~JobServer() { shutdown(DrainMode::kCancelPending); }

double JobServer::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::string JobServer::breaker_key(const JobSpec& spec) {
  return spec.node_name + "|" + spec.design_name;
}

util::Result<JobId> JobServer::submit(JobSpec spec) {
  if (!spec.work) {
    return util::Status::InvalidArgument("job '" + spec.name +
                                         "' has no work function");
  }
  if (options_.hub != nullptr && !spec.node_name.empty()) {
    util::Status gate = options_.hub->check_member_access(
        spec.member, spec.tier, spec.node_name);
    if (!gate.ok()) {
      metrics_.increment("jobs_rejected");
      return gate;
    }
  }
  const double deadline_ms =
      spec.deadline_ms > 0.0 ? spec.deadline_ms : options_.default_deadline_ms;

  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) {
    return util::Status::FailedPrecondition("job server is shut down");
  }
  // Circuit breaker: fast-fail while open; after the cool-down the next
  // submission goes through as the half-open probe (the breaker stays
  // open until that probe's outcome closes or re-opens it).
  if (options_.breaker_threshold > 0 &&
      !(spec.node_name.empty() && spec.design_name.empty())) {
    const auto it = breakers_.find(breaker_key(spec));
    if (it != breakers_.end() && it->second.open &&
        now_ms() < it->second.open_until_ms) {
      metrics_.increment("jobs_breaker_rejected");
      if (util::trace::enabled()) {
        util::trace::instant("hub.breaker-reject", "hub",
                             spec.node_name + "|" + spec.design_name);
      }
      return util::Status::Unavailable(
          "circuit breaker open for (" + spec.node_name + ", " +
          spec.design_name + "): " +
          std::to_string(it->second.consecutive_failures) +
          " consecutive permanent failures");
    }
  }
  // Admission control: a bounded queue rejects instead of growing without
  // limit; a watermark below the bound sheds load by degrading effort.
  if (options_.max_queue_depth > 0 &&
      scheduler_.size() >= options_.max_queue_depth) {
    metrics_.increment("jobs_overload_rejected");
    if (util::trace::enabled()) {
      util::trace::instant("hub.overload-reject", "hub", spec.name);
    }
    return util::Status::ResourceExhausted(
        "queue full (" + std::to_string(scheduler_.size()) + " of " +
        std::to_string(options_.max_queue_depth) + " slots)");
  }
  // Degrade when the submitter already decided to (JobSpec::degraded — a
  // federation quota) OR the local queue crossed the shedding watermark.
  bool degraded = spec.degraded;
  if (!degraded && options_.shed_watermark > 0 &&
      scheduler_.size() >= options_.shed_watermark &&
      spec.quality == flow::FlowQuality::kCommercial) {
    degraded = true;
    if (util::trace::enabled()) {
      util::trace::instant("hub.shed-degrade", "hub", spec.name);
    }
  }
  if (degraded) metrics_.increment("jobs_degraded");
  const JobId id = next_id_++;
  auto entry = std::make_shared<Entry>();
  JobRecord& rec = *entry->record;
  rec.id = id;
  rec.name = spec.name;
  rec.member = spec.member;
  rec.tier = spec.tier;
  rec.degraded = degraded;
  rec.hub_epoch = options_.epoch;
  rec.submit_ms = now_ms();
  if (deadline_ms > 0.0) entry->cancel.set_deadline_after_ms(deadline_ms);
  entry->spec = std::move(spec);
  install_breakpoint_hooks(entry);
  rec.flight.push_back({0.0, "submit", entry->spec.name,
                        std::string("tier=") + edu::to_string(rec.tier) +
                            (degraded ? ", degraded to open effort" : "")});
  if (util::trace::enabled()) {
    util::trace::instant("hub.enqueue", "hub",
                         entry->spec.name + " id=" + std::to_string(id));
  }
  scheduler_.push(id, rec.member, rec.tier);
  entries_.emplace(id, std::move(entry));
  metrics_.increment("jobs_submitted");
  metrics_.set_gauge("queue_depth", static_cast<double>(scheduler_.size()));
  cv_work_.notify_one();
  return id;
}

void JobServer::start() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = false;
  cv_work_.notify_all();
}

void JobServer::pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

std::shared_ptr<const JobRecord> JobServer::finalize_locked(
    Entry& entry, JobState state, util::Status status) {
  JobRecord& rec = *entry.record;
  rec.state = state;
  rec.status = std::move(status);
  rec.finish_ms = now_ms();
  if (rec.start_ms >= 0.0) {
    rec.queue_wait_ms = rec.start_ms - rec.submit_ms;
    rec.run_ms = rec.finish_ms - rec.start_ms;
  } else {
    rec.queue_wait_ms = rec.finish_ms - rec.submit_ms;
  }
  rec.flight.push_back({rec.finish_ms - rec.submit_ms, "finish",
                        to_string(state),
                        rec.status.ok() ? "" : rec.status.message()});

  switch (state) {
    case JobState::kSucceeded: metrics_.increment("jobs_succeeded"); break;
    case JobState::kFailed: metrics_.increment("jobs_failed"); break;
    case JobState::kCancelled: metrics_.increment("jobs_cancelled"); break;
    case JobState::kTimedOut: metrics_.increment("jobs_timed_out"); break;
    case JobState::kMigrated: metrics_.increment("jobs_exported"); break;
    default: break;
  }
  // Migrated jobs are terminal here but their life continues on a peer:
  // observing a partial queue wait would skew the latency histograms.
  if (state != JobState::kMigrated) {
    metrics_.observe("queue_wait_ms", rec.queue_wait_ms);
    if (rec.start_ms >= 0.0) metrics_.observe("run_ms", rec.run_ms);
    // Restored steps carry the original run's runtime; only executed
    // steps are observations of this job.
    for (const flow::StepRecord& step : rec.steps) {
      if (!step.cached) {
        metrics_.observe("step_" + step.name + "_ms", step.runtime_ms);
      }
    }
  }
  metrics_.set_gauge("queue_depth", static_cast<double>(scheduler_.size()));
  // A finished job never runs again; its closure may hold a design and
  // configs that nothing else needs.
  entry.spec.work = nullptr;
  if (entry.spec.breakpoint != nullptr) {
    entry.spec.breakpoint->clear_hooks(entry.cancel.token());
  }
  return entry.record;
}

void JobServer::notify_terminal(std::shared_ptr<const JobRecord> record) {
  if (options_.on_terminal && record->state != JobState::kMigrated) {
    options_.on_terminal(std::move(record));
  }
}

void JobServer::install_breakpoint_hooks(const std::shared_ptr<Entry>& entry) {
  if (entry->spec.breakpoint == nullptr) return;
  // The break step's name lives in the debug-info config.
  const std::string step =
      entry->spec.debug != nullptr && !entry->spec.debug->config.break_after.empty()
          ? entry->spec.debug->config.break_after
          : std::string("breakpoint");
  // weak_ptr, not shared: hooks live inside the controller, which the spec
  // owns — a shared_ptr would make Entry immortal through its own spec.
  std::weak_ptr<Entry> weak = entry;
  entry->spec.breakpoint->set_hooks(
      entry->cancel.token(),
      // on_park: runs on the flow thread right after it published the
      // parked context. Outside the controller lock, so taking mu_ here
      // cannot deadlock against inspect()/set_hooks() callers under mu_.
      [this, weak, step] {
        const auto e = weak.lock();
        if (!e) return;
        if (util::trace::enabled()) {
          util::trace::instant("hub.park", "hub",
                               e->spec.name + " after " + step);
        }
        std::lock_guard<std::mutex> lock(mu_);
        ++parked_;
        metrics_.set_gauge("jobs_parked", static_cast<double>(parked_));
        JobRecord& rec = *e->record;
        if (is_terminal(rec.state)) return;  // published: read-only
        rec.flight.push_back({now_ms() - rec.submit_ms, "park", step,
                              "flow parked at breakpoint"});
      },
      // on_resume: credit the parked wall time back to the deadline before
      // anything else — the flow re-checks the token immediately after.
      [this, weak, step](double parked_ms) {
        const auto e = weak.lock();
        if (!e) return;
        e->cancel.extend_deadline_ms(parked_ms);
        if (util::trace::enabled()) {
          util::trace::instant("hub.resume", "hub",
                               e->spec.name + " after " + fmt_ms(parked_ms));
        }
        std::lock_guard<std::mutex> lock(mu_);
        if (parked_ > 0) --parked_;
        metrics_.set_gauge("jobs_parked", static_cast<double>(parked_));
        JobRecord& rec = *e->record;
        if (is_terminal(rec.state)) return;  // published: read-only
        rec.flight.push_back({now_ms() - rec.submit_ms, "resume", step,
                              "parked " + fmt_ms(parked_ms)});
      });
}

void JobServer::run_job(const std::shared_ptr<Entry>& entry) {
  // No server lock held here: this is the parallel section.
  const JobSpec& spec = entry->spec;
  // Fields set before dispatch; the park/resume hooks write only `flight`.
  JobRecord& record = *entry->record;
  const util::CancelToken token = entry->cancel.token();
  // Per-job deterministic stream: depends on the server seed and job id
  // only, never on worker interleaving.
  util::Rng rng(options_.seed ^ (kSeedMix * record.id));

  // Trace lineage: every span this job opens carries the JobId as its
  // track, so one job's activity can be isolated in the export.
  util::trace::ContextScope trace_scope({0, record.id});
  util::trace::Span job_span;
  const double submit_ms = record.submit_ms;
  if (util::trace::enabled()) {
    job_span.begin("job:" + spec.name, "hub.job");
    job_span.annotate("id", record.id);
    job_span.annotate("member", static_cast<std::uint64_t>(spec.member));
    job_span.annotate("tier", std::string(edu::to_string(record.tier)));
    job_span.annotate("queue_wait_ms", record.start_ms - submit_ms);
    if (record.degraded) job_span.annotate("degraded", true);
  }
  std::vector<FlightEntry> flight;

  const int max_attempts = std::max(1, spec.max_attempts);
  JobState final_state = JobState::kFailed;
  util::Status final_status;
  std::vector<flow::StepRecord> steps;
  flow::PpaReport ppa;
  int attempts = 0;

  std::size_t cache_hits = 0;
  std::size_t resume_depth = 0;
  util::Digest artifact_digest;
  util::Status prev_error;  // previous attempt's failure, Ok on attempt 1
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    attempts = attempt;
    JobContext ctx;
    ctx.cancel = token;
    ctx.attempt = attempt;
    ctx.rng = &rng;
    ctx.cache = cache_.load(std::memory_order_relaxed);
    ctx.degraded = record.degraded;
    ctx.last_error = prev_error;
    const double t_attempt = now_ms() - submit_ms;
    flight.push_back({t_attempt, "attempt",
                      "attempt " + std::to_string(attempt),
                      attempt > 1 ? "after " + prev_error.to_string() : ""});
    util::trace::Span attempt_span;
    if (util::trace::enabled()) {
      attempt_span.begin("attempt " + std::to_string(attempt), "hub.job");
    }
    // Exception isolation: the platform is shared, so a work function
    // throwing (a bug in a flow engine, an injected std::logic_error)
    // must fail THIS job, not the process. The escape is converted to a
    // retryable kInternal failure carrying the what() text.
    util::Status s;
    try {
      s = spec.work(ctx);
    } catch (const std::exception& e) {
      s = util::Status::Internal(std::string("uncaught exception: ") +
                                 e.what());
      metrics_.increment("jobs_exceptions_isolated");
    } catch (...) {
      s = util::Status::Internal("uncaught non-standard exception");
      metrics_.increment("jobs_exceptions_isolated");
    }
    steps = std::move(ctx.steps);
    ppa = ctx.ppa;
    cache_hits = ctx.cache_hits;
    artifact_digest = ctx.artifact_digest;
    if (attempt > 1 && ctx.cache_hits > resume_depth) {
      // Checkpoint-resume: this retry restored the steps the failed
      // attempt stored (one cache entry per completed step).
      resume_depth = ctx.cache_hits;
    }
    if (attempt_span.active()) {
      attempt_span.annotate("ok", s.ok());
      if (!s.ok()) attempt_span.annotate("error", s.to_string());
      attempt_span.end();
    }
    if (ctx.cache_hits > 0) {
      flight.push_back({t_attempt, "cache", "resume",
                        std::to_string(ctx.cache_hits) +
                            " steps restored from cache"});
    }
    // Step entries replay the attempt's internal timeline: each executed
    // step lands at the attempt start plus the runtime executed so far.
    double cursor = t_attempt;
    for (const flow::StepRecord& step : steps) {
      if (!step.cached) cursor += step.runtime_ms;
      flight.push_back({cursor, "step", step.name,
                        step.cached ? "cached" : fmt_ms(step.runtime_ms)});
    }

    if (s.ok()) {
      final_state = JobState::kSucceeded;
      final_status = util::Status::Ok();
      break;
    }
    if (token.cancel_requested() || s.code() == util::ErrorCode::kCancelled) {
      final_state = JobState::kCancelled;
      final_status =
          s.code() == util::ErrorCode::kCancelled
              ? std::move(s)
              : util::Status::Cancelled("cancelled during attempt " +
                                        std::to_string(attempt));
      break;
    }
    if (token.deadline_passed() ||
        s.code() == util::ErrorCode::kDeadlineExceeded) {
      final_state = JobState::kTimedOut;
      final_status =
          s.code() == util::ErrorCode::kDeadlineExceeded
              ? std::move(s)
              : util::Status::DeadlineExceeded("deadline passed during attempt " +
                                               std::to_string(attempt));
      break;
    }
    if (!util::is_retryable(s.code()) || attempt == max_attempts) {
      final_state = JobState::kFailed;
      final_status = std::move(s);
      break;
    }

    // Retryable failure with attempts left: back off, interruptibly.
    prev_error = std::move(s);
    metrics_.increment("jobs_retried");
    const double delay_ms = backoff_delay_ms(spec, attempt, rng);
    flight.push_back({now_ms() - submit_ms, "retry", "backoff",
                      fmt_ms(delay_ms) + " after " + prev_error.to_string()});
    if (job_span.active()) {
      job_span.event("retry-backoff",
                     fmt_ms(delay_ms) + " before attempt " +
                         std::to_string(attempt + 1));
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_work_.wait_for(
        lock,
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(delay_ms)),
        [&] { return stop_now_ || token.cancelled(); });
    if (stop_now_ || token.cancel_requested()) {
      final_state = JobState::kCancelled;
      final_status = util::Status::Cancelled("cancelled during retry backoff");
      break;
    }
    if (token.deadline_passed()) {
      final_state = JobState::kTimedOut;
      final_status =
          util::Status::DeadlineExceeded("deadline passed during retry backoff");
      break;
    }
  }

  if (job_span.active()) {
    job_span.annotate("state", std::string(to_string(final_state)));
    job_span.annotate("attempts", static_cast<std::int64_t>(attempts));
    job_span.annotate("cache_hits", static_cast<std::uint64_t>(cache_hits));
    if (resume_depth > 0) {
      job_span.annotate("resume_depth",
                        static_cast<std::uint64_t>(resume_depth));
    }
  }

  std::shared_ptr<const JobRecord> done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    record.attempts = attempts;
    record.steps = std::move(steps);
    record.ppa = ppa;
    record.cache_hits = cache_hits;
    record.resume_depth = resume_depth;
    record.artifact_digest = artifact_digest;
    for (FlightEntry& fe : flight) record.flight.push_back(std::move(fe));
    if (resume_depth > 0) {
      metrics_.increment("steps_resumed", resume_depth);
      metrics_.observe("resume_depth", static_cast<double>(resume_depth));
    }
    update_breaker_locked(*entry, final_state, final_status.code());
    done = finalize_locked(*entry, final_state, std::move(final_status));
    sync_cache_metrics_locked();
  }
  notify_terminal(std::move(done));
}

void JobServer::update_breaker_locked(const Entry& entry, JobState state,
                                      util::ErrorCode code) {
  if (options_.breaker_threshold <= 0) return;
  const JobSpec& spec = entry.spec;
  if (spec.node_name.empty() && spec.design_name.empty()) return;
  Breaker& b = breakers_[breaker_key(spec)];
  if (state == JobState::kSucceeded) {
    b.consecutive_failures = 0;
    if (b.open) {
      b.open = false;  // half-open probe succeeded
      metrics_.increment("breaker_closed");
    }
    return;
  }
  // Only deterministic failures count toward opening: a congested retry
  // or a cancelled/timed-out job says nothing about the (node, design)
  // pair itself.
  if (state != JobState::kFailed || util::is_retryable(code)) return;
  ++b.consecutive_failures;
  if (b.consecutive_failures >= options_.breaker_threshold) {
    if (!b.open) {
      ++b.trips;
      metrics_.increment("breaker_trips");
    }
    b.open = true;
    b.open_until_ms = now_ms() + options_.breaker_cooldown_ms;
    metrics_.set_gauge("breakers_open",
                       static_cast<double>(std::count_if(
                           breakers_.begin(), breakers_.end(),
                           [](const auto& kv) { return kv.second.open; })));
  }
}

bool JobServer::breaker_open(const std::string& node_name,
                             const std::string& design_name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = breakers_.find(node_name + "|" + design_name);
  return it != breakers_.end() && it->second.open &&
         now_ms() < it->second.open_until_ms;
}

void JobServer::sync_cache_metrics_locked() {
  flow::FlowCache* cache = cache_.load(std::memory_order_relaxed);
  if (cache == nullptr) return;
  const flow::FlowCache::Stats s = cache->stats();
  metrics_.increment("flow_cache_hits", s.hits - cache_seen_.hits);
  metrics_.increment("flow_cache_misses", s.misses - cache_seen_.misses);
  metrics_.increment("flow_cache_stores", s.stores - cache_seen_.stores);
  metrics_.increment("flow_cache_evictions",
                     s.evictions - cache_seen_.evictions);
  metrics_.set_gauge("flow_cache_bytes", static_cast<double>(s.bytes));
  metrics_.set_gauge("flow_cache_entries", static_cast<double>(s.entries));
  cache_seen_ = s;
}

void JobServer::worker_loop(int index) {
  util::trace::set_thread_name("hub-worker-" + std::to_string(index));
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_work_.wait(lock, [&] {
      return stop_now_ || (stopping_ && scheduler_.empty() && !paused_) ||
             (!paused_ && !scheduler_.empty());
    });
    if (stop_now_) break;
    if (scheduler_.empty()) {
      if (stopping_) break;
      continue;
    }
    const auto id = scheduler_.pop();
    if (!id) continue;
    const auto it = entries_.find(*id);
    if (it == entries_.end()) continue;
    std::shared_ptr<Entry> entry = it->second;

    // Deadline may have passed while the job sat in the queue.
    if (entry->cancel.token().deadline_passed()) {
      auto done =
          finalize_locked(*entry, JobState::kTimedOut,
                          util::Status::DeadlineExceeded("timed out in queue"));
      cv_done_.notify_all();
      if (options_.on_terminal) {
        lock.unlock();
        notify_terminal(std::move(done));
        lock.lock();
      }
      continue;
    }

    JobRecord& rec = *entry->record;
    rec.state = JobState::kRunning;
    rec.start_ms = now_ms();
    const double queue_wait_ms = rec.start_ms - rec.submit_ms;
    rec.flight.push_back({queue_wait_ms, "start",
                          "hub-worker-" + std::to_string(index),
                          "queue_wait=" + fmt_ms(queue_wait_ms)});
    ++running_;
    metrics_.set_gauge("queue_depth", static_cast<double>(scheduler_.size()));
    metrics_.set_gauge("running", static_cast<double>(running_));

    lock.unlock();
    run_job(entry);
    lock.lock();

    --running_;
    metrics_.set_gauge("running", static_cast<double>(running_));
    cv_done_.notify_all();
  }
}

bool JobServer::cancel(JobId id) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  Entry& entry = *it->second;
  if (is_terminal(entry.record->state)) return false;
  if (entry.record->state == JobState::kQueued) {
    scheduler_.remove(id);
    auto done = finalize_locked(
        entry, JobState::kCancelled,
        util::Status::Cancelled("cancelled while queued"));
    cv_done_.notify_all();
    if (options_.on_terminal) {
      lock.unlock();
      notify_terminal(std::move(done));
    }
    return true;
  }
  // Running: flip the token; the worker finalizes when the work function
  // observes it (between flow steps for flow jobs).
  entry.cancel.request_cancel();
  cv_work_.notify_all();  // wake any backoff sleep
  return true;
}

util::Result<JobRecord> JobServer::wait(JobId id) {
  return wait_for(id, -1.0);
}

util::Result<JobRecord> JobServer::wait_for(JobId id, double timeout_ms) {
  std::shared_ptr<const JobRecord> record;
  {
    std::unique_lock<std::mutex> lock(mu_);
    const auto it = entries_.find(id);
    if (it == entries_.end()) {
      return util::Status::NotFound("unknown job id " + std::to_string(id));
    }
    record = it->second->record;
    const auto done = [&] { return is_terminal(record->state); };
    if (timeout_ms < 0.0) {
      cv_done_.wait(lock, done);
    } else if (!cv_done_.wait_for(
                   lock,
                   std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double, std::milli>(timeout_ms)),
                   done)) {
      return util::Status::DeadlineExceeded(
          "job " + std::to_string(id) + " not terminal after " +
          std::to_string(timeout_ms) + " ms (state " +
          std::string(to_string(record->state)) + ")");
    }
  }
  return *record;  // terminal, so immutable: copied without the lock
}

std::vector<JobRecord> JobServer::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  paused_ = false;
  cv_work_.notify_all();
  cv_done_.wait(lock, [&] { return scheduler_.empty() && running_ == 0; });
  std::vector<JobRecord> records;
  records.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) records.push_back(*entry->record);
  return records;  // map order == id order
}

void JobServer::shutdown(DrainMode mode) {
  std::unique_lock<std::mutex> lock(mu_);
  if (stopping_ && workers_.empty()) return;  // already fully shut down
  stopping_ = true;
  paused_ = false;
  std::vector<std::shared_ptr<const JobRecord>> cancelled;
  if (mode == DrainMode::kCancelPending) {
    for (auto& [id, entry] : entries_) {
      if (entry->record->state == JobState::kQueued) {
        scheduler_.remove(id);
        auto done = finalize_locked(*entry, JobState::kCancelled,
                                    util::Status::Cancelled("server shutdown"));
        if (options_.on_terminal) cancelled.push_back(std::move(done));
      } else if (entry->record->state == JobState::kRunning) {
        entry->cancel.request_cancel();
      }
    }
    stop_now_ = true;
  }
  cv_work_.notify_all();
  cv_done_.notify_all();
  if (mode == DrainMode::kDrain) {
    cv_done_.wait(lock, [&] { return scheduler_.empty() && running_ == 0; });
    stop_now_ = true;
    cv_work_.notify_all();
  }
  std::vector<std::thread> workers = std::move(workers_);
  workers_.clear();
  lock.unlock();
  for (auto& rec : cancelled) notify_terminal(std::move(rec));
  for (std::thread& t : workers) t.join();
}

core::EnablementHub::QueueReport JobServer::measured_queue_report() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<core::EnablementHub::Job> jobs;
  std::vector<core::EnablementHub::JobOutcome> outcomes;
  for (const auto& [id, entry] : entries_) {
    const JobRecord& rec = *entry->record;
    if (!is_terminal(rec.state) || rec.start_ms < 0.0) continue;
    core::EnablementHub::Job job;
    job.member = rec.member;
    job.submit_time_h = rec.submit_ms;
    job.duration_h = rec.run_ms;
    jobs.push_back(job);
    core::EnablementHub::JobOutcome out;
    out.start_h = rec.start_ms;
    out.finish_h = rec.finish_ms;
    outcomes.push_back(out);
  }
  return core::EnablementHub::summarize_outcomes(jobs, std::move(outcomes),
                                                 options_.capacity);
}

std::vector<JobServer::StolenJob> JobServer::export_queued(
    std::size_t max_jobs) {
  std::vector<StolenJob> stolen;
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) return stolen;
  while (stolen.size() < max_jobs && !scheduler_.empty()) {
    const auto id = scheduler_.pop();
    if (!id) break;
    const auto it = entries_.find(*id);
    if (it == entries_.end()) continue;
    Entry& entry = *it->second;
    StolenJob job;
    job.id = *id;
    job.spec = entry.spec;  // work fn is a shared std::function — copyable
    job.waited_ms = now_ms() - entry.record->submit_ms;
    stolen.push_back(std::move(job));
    entry.record->flight.push_back(
        {job.waited_ms, "migrate", "exported",
         "stolen after " + fmt_ms(stolen.back().waited_ms) + " queued"});
    finalize_locked(entry, JobState::kMigrated,
                    util::Status::Ok());
    if (util::trace::enabled()) {
      util::trace::instant("hub.export", "hub",
                           entry.spec.name + " id=" + std::to_string(*id));
    }
  }
  // Wake wait()ers: an exported id is terminal here (kMigrated).
  if (!stolen.empty()) cv_done_.notify_all();
  return stolen;
}

void JobServer::set_cache(flow::FlowCache* cache) {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.store(cache, std::memory_order_relaxed);
  options_.cache = cache;
  // Re-baseline: a cache attached mid-life (warm, or shared) must not
  // have its pre-existing totals mirrored into this server's metrics.
  cache_seen_ = cache != nullptr ? cache->stats() : flow::FlowCache::Stats{};
}

std::size_t JobServer::queued_count() {
  std::lock_guard<std::mutex> lock(mu_);
  return scheduler_.size();
}

std::size_t JobServer::running_count() {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

bool JobServer::job_parked(JobId id) {
  std::shared_ptr<flow::BreakController> bp;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(id);
    if (it == entries_.end()) return false;
    bp = it->second->spec.breakpoint;
  }
  return bp != nullptr && bp->parked();
}

std::size_t JobServer::parked_count() {
  std::lock_guard<std::mutex> lock(mu_);
  return parked_;
}

bool JobServer::wait_parked(JobId id, double timeout_ms) {
  std::shared_ptr<flow::BreakController> bp;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(id);
    if (it == entries_.end()) return false;
    bp = it->second->spec.breakpoint;
  }
  if (bp == nullptr) return false;
  // Wait in slices so a job that goes terminal without ever parking
  // (cancelled in the queue, failed before the break step) unblocks the
  // caller instead of burning the whole timeout.
  const auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    double slice = 20.0;
    if (timeout_ms >= 0.0) {
      const double elapsed = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
      const double remaining = timeout_ms - elapsed;
      if (remaining <= 0.0) return bp->parked();
      slice = std::min(slice, remaining);
    }
    if (bp->wait_parked(slice)) return true;
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(id);
    if (it == entries_.end() || is_terminal(it->second->record->state)) {
      return bp->parked();
    }
  }
}

bool JobServer::resume(JobId id) {
  std::shared_ptr<flow::BreakController> bp;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(id);
    if (it == entries_.end()) return false;
    bp = it->second->spec.breakpoint;
  }
  if (bp == nullptr) return false;
  bp->resume();
  return true;
}

util::Result<dbg::QueryResult> JobServer::query(JobId id,
                                                const dbg::Query& q) {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(id);
    if (it == entries_.end()) {
      return util::Status::NotFound("unknown job id " + std::to_string(id));
    }
    entry = it->second;
  }

  // The hub-owned records: answerable in any job state.
  if (q.kind == dbg::QueryKind::kFlight) {
    dbg::QueryResult r;
    r.kind = q.kind;
    r.found = true;
    JobRecord snapshot;
    {
      std::lock_guard<std::mutex> lock(mu_);
      snapshot = *entry->record;
    }
    r.text = render_flight_record(snapshot);
    return r;
  }
  if (q.kind == dbg::QueryKind::kTrace) {
    dbg::QueryResult r;
    r.kind = q.kind;
    char buf[64];
    std::string lines;
    std::size_t n = 0;
    for (const util::trace::Event& e : util::trace::snapshot()) {
      if (e.track != id) continue;
      ++n;
      std::snprintf(buf, sizeof buf, "  %+12.3fus  ", e.start_us);
      lines += buf;
      if (e.kind == util::trace::Event::Kind::kSpan) {
        std::snprintf(buf, sizeof buf, "span %10.3fus  ", e.dur_us);
        lines += buf;
      } else {
        lines += "instant            ";
      }
      lines += e.name;
      lines += '\n';
    }
    r.found = n > 0;
    r.text = r.found
                 ? "trace slice: job " + std::to_string(id) + " (" +
                       std::to_string(n) + " events)\n" + lines
                 : "no trace events for job " + std::to_string(id) +
                       " (no trace session, or the job has not run yet)";
    return r;
  }

  // Artifact queries: prefer the live parked context — inspect() holds the
  // controller lock, so the flow thread cannot resume mid-answer. mu_ is
  // deliberately NOT held here (the park/resume hooks take mu_ on the flow
  // thread; holding both here would couple the lock orders).
  if (entry->spec.breakpoint != nullptr) {
    dbg::QueryResult out;
    const bool answered = entry->spec.breakpoint->inspect(
        [&](const flow::FlowContext& ctx) { out = dbg::answer(q, ctx); });
    if (answered) return out;
  }

  // Not parked: answer from the leading run of FlowCache entries.
  const std::shared_ptr<const JobDebugInfo> debug = entry->spec.debug;
  if (debug == nullptr || debug->design == nullptr) {
    return util::Status::NotFound(
        "job " + std::to_string(id) +
        " is not parked and carries no debug info (synthetic job?)");
  }
  flow::FlowCache* cache = cache_.load(std::memory_order_relaxed);
  if (cache == nullptr) {
    return util::Status::NotFound(
        "job " + std::to_string(id) +
        " is not parked and this server has no FlowCache to answer from");
  }
  flow::FlowConfig cfg = debug->config;
  {
    // Degraded admission reruns the flow at open effort — the entries in
    // the cache were keyed under that effective config, not the requested
    // one.
    std::lock_guard<std::mutex> lock(mu_);
    if (entry->record->degraded) cfg.quality = flow::FlowQuality::kOpen;
  }
  return dbg::answer_from_cache(q, *debug->design, cfg, *cache);
}

}  // namespace eurochip::hub
