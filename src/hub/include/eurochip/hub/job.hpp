// Job vocabulary for the hub execution engine (Recommendation 7 made
// real): what a member submits, what the worker pool hands the job while
// it runs, and the record the platform keeps about it.
//
// A job's payload is a plain callable so tests and benches can submit
// synthetic work; make_flow_job wraps the real RTL-to-GDSII reference
// flow (flow::run_reference_flow) into that shape, threading the hub's
// cancellation token through FlowConfig so deadlines and cancellation
// fire between flow steps.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "eurochip/edu/tiers.hpp"
#include "eurochip/flow/breakpoint.hpp"
#include "eurochip/flow/flow.hpp"
#include "eurochip/rtl/ir.hpp"
#include "eurochip/util/cancel.hpp"
#include "eurochip/util/result.hpp"
#include "eurochip/util/rng.hpp"

namespace eurochip::hub {

using JobId = std::uint64_t;

/// Lifecycle of a submitted job. Terminal states are kSucceeded and later.
enum class JobState {
  kQueued,
  kRunning,
  kSucceeded,
  kFailed,      ///< non-transient error, or transient after max attempts
  kCancelled,   ///< cancel() while queued or running
  kTimedOut,    ///< per-job deadline passed while queued or running
  kMigrated,    ///< exported to a peer hub (fed work stealing); terminal
                ///< *for this server* — the federation tracks the new home
};

const char* to_string(JobState state);

/// True for terminal states (job record will no longer change).
[[nodiscard]] bool is_terminal(JobState state);

/// What the worker hands a job while it runs. `steps` and `ppa` are output
/// channels: a flow job fills them from its FlowResult so the server can
/// harvest per-step durations into the metrics registry without keeping
/// the heavyweight artifacts alive.
struct JobContext {
  util::CancelToken cancel;
  int attempt = 1;          ///< 1-based attempt number
  util::Rng* rng = nullptr; ///< per-job deterministic stream (seed ⊕ job id)
  /// Shared per-stage artifact cache (JobServer::Options::cache); flow
  /// jobs thread it through FlowConfig::cache. Null when caching is off.
  flow::FlowCache* cache = nullptr;
  /// Set by the server when the job was admitted above the load-shedding
  /// watermark: flow jobs downgrade kCommercial -> kOpen effort.
  bool degraded = false;
  /// Status of the previous attempt (Ok on the first). Lets the work
  /// function adapt its retry: flow jobs keep the same seed after a
  /// deterministic failure (maximizing checkpoint-resume from the cache)
  /// but reseed after genuine congestion (kResourceExhausted).
  util::Status last_error;
  std::vector<flow::StepRecord> steps;
  flow::PpaReport ppa;
  /// Output: leading flow steps satisfied from `cache` (FlowResult::cache_hits).
  std::size_t cache_hits = 0;
  /// Output: content digest of the final artifacts (mapped/placed/routed +
  /// GDS bytes). Zero for synthetic jobs. The federation bench uses it to
  /// prove bit-identical results across hub counts and stealing modes.
  util::Digest artifact_digest;
};

/// The work payload. Return Ok on success; transient failure codes
/// (kResourceExhausted, kInternal) are retried up to JobSpec::max_attempts.
using JobFn = std::function<util::Status(JobContext&)>;

/// What the debug service needs to answer artifact queries about a job
/// that is NOT parked at a breakpoint: the design plus the exact flow
/// config it ran under (cancel/cache/breakpoint stripped), enough to
/// recompute the FlowCache step keys and restore the leading run of
/// resident steps. Immutable after make_flow_job builds it; shared (not copied)
/// when a job migrates between hubs.
struct JobDebugInfo {
  std::shared_ptr<const rtl::Module> design;
  flow::FlowConfig config;
};

/// A submission. `node_name` is what the tier gate checks: when the server
/// is bound to a core::EnablementHub and node_name is non-empty,
/// check_member_access(member, tier, node_name) must pass at submission
/// (beginners stay on open nodes — Recommendation 8).
struct JobSpec {
  std::string name;
  std::size_t member = 0;
  edu::LearnerTier tier = edu::LearnerTier::kAdvanced;
  std::string node_name;
  /// Design identity for the per-(node, design) circuit breaker; set by
  /// make_flow_job, optional for synthetic jobs. Jobs with both node_name
  /// and design_name empty are never breaker-tracked.
  std::string design_name;
  /// Requested effort. Only consulted by admission control: kCommercial
  /// submissions above the shedding watermark are downgraded (the work
  /// function sees JobContext::degraded).
  flow::FlowQuality quality = flow::FlowQuality::kOpen;
  JobFn work;
  /// Force open-effort execution regardless of queue depth: the submitter
  /// (e.g. a federation router enforcing a global kCommercial quota) has
  /// already decided to degrade this job. ORed with the server's own
  /// shedding decision into JobContext::degraded.
  bool degraded = false;
  /// Retry policy: total attempts (1 = no retry), exponential backoff
  /// base doubling per retry, capped, with deterministic jitter.
  int max_attempts = 1;
  double backoff_base_ms = 1.0;
  double backoff_cap_ms = 1000.0;
  /// Wall-clock budget measured from submission; 0 = server default
  /// (which may itself be 0 = unlimited).
  double deadline_ms = 0.0;
  /// Flow breakpoint rendezvous, set by make_flow_job when
  /// FlowConfig::break_after names a step. The controller travels WITH the
  /// spec across work stealing and failover, so JobServer::resume and
  /// debug queries keep working wherever the job lands. Null for jobs
  /// without a breakpoint (and all synthetic jobs).
  std::shared_ptr<flow::BreakController> breakpoint;
  /// Debug-query context (design + config), set by make_flow_job. Lets
  /// JobServer::query answer artifact questions from FlowCache entries
  /// when the job is not parked. Null for synthetic jobs.
  std::shared_ptr<const JobDebugInfo> debug;
};

/// One timestamped line of a job's *flight record*: the per-job micro-log
/// the server keeps alongside its aggregate metrics, so an operator can
/// reconstruct exactly what happened to one submission — queueing, each
/// attempt, per-step progress, cache resumes, retry backoffs — without
/// replaying a whole trace. `t_ms` is milliseconds since the job's
/// submission (not the server epoch), so records from different jobs are
/// directly comparable.
/// `kind` values authored by the server: submit | start | attempt | step |
/// cache | retry | finish | migrate, plus park | resume when the job hits
/// a flow breakpoint. The federation adds cross-hub entries
/// when a job is re-homed: `steal` (work stealing, donor -> recipient) and
/// `failover` (home hub declared down); their t_ms is measured from the
/// *federation-level* submission, so a re-homed job's record tells the
/// whole story even though the final hub's own entries restart at its
/// local submit.
struct FlightEntry {
  double t_ms = 0.0;
  std::string kind;    ///< submit | start | attempt | step | cache | retry | finish
  std::string label;   ///< short identifier (step name, "attempt 2", ...)
  std::string detail;  ///< free-form: durations, error text, hit counts
};

/// Everything the platform remembers about a job. Times are milliseconds
/// since the server's epoch (its construction). start/finish are negative
/// until the corresponding transition happened.
struct JobRecord {
  JobId id = 0;
  std::string name;
  std::size_t member = 0;
  edu::LearnerTier tier = edu::LearnerTier::kAdvanced;
  JobState state = JobState::kQueued;
  util::Status status;
  int attempts = 0;
  double submit_ms = 0.0;
  double start_ms = -1.0;
  double finish_ms = -1.0;
  double queue_wait_ms = 0.0;
  double run_ms = 0.0;
  std::vector<flow::StepRecord> steps;
  flow::PpaReport ppa;
  /// Flow steps served from the shared FlowCache (0 = cold or no cache).
  std::size_t cache_hits = 0;
  /// Content digest of the final artifacts (JobContext::artifact_digest);
  /// zero for synthetic jobs and non-succeeded outcomes.
  util::Digest artifact_digest;
  /// True when admission control downgraded this job's effort
  /// (kCommercial -> kOpen) because the queue crossed the shedding
  /// watermark at submission.
  bool degraded = false;
  /// Steps a *retry* restored from the cache (max cache_hits over
  /// attempts >= 2); 0 when the job never retried or restarted cold.
  std::size_t resume_depth = 0;
  /// Times the federation re-homed this job off a hub that was declared
  /// down (0 for jobs that never saw a failure). Stamped by the
  /// federation, not the server.
  int failovers = 0;
  /// Incarnation number of the server that authored this record
  /// (JobServer::Options::epoch). The federation fences with it: a
  /// terminal stamped with a stale epoch comes from a dead hub's zombie
  /// incarnation and must not settle the job a second time.
  std::uint64_t hub_epoch = 0;
  /// Per-job flight record, in event order. Populated by the server:
  /// submit/start under its lock, the rest spliced in at finalization.
  std::vector<FlightEntry> flight;
};

/// Renders a JobRecord's flight record as aligned human-readable text:
/// a header summarizing the outcome, then one `+<t>ms  <kind>  <label>
/// <detail>` line per entry, in strictly nondecreasing t_ms order (entries
/// are stably sorted by timestamp first — park/resume entries and
/// federation steal/failover splices arrive out of append order).
[[nodiscard]] std::string render_flight_record(const JobRecord& record);

/// Wraps the reference flow into a JobSpec. The design is shared (not
/// copied) across retries and jobs; rtl::Module is immutable here, which
/// is what makes the sharing thread-safe. The spec's node_name is taken
/// from `config.node` so hub-side tier gating applies. When
/// config.break_after names a step, a BreakController is minted into
/// spec.breakpoint (unless config.breakpoint already carries one) and
/// threaded into every attempt's FlowConfig; spec.debug always carries the
/// design + sanitized config for cache-backed debug queries. Callers
/// running several flow jobs concurrently must give each config a distinct
/// gds_output_path (or none) — see the flow.hpp thread-safety contract.
[[nodiscard]] JobSpec make_flow_job(std::string name,
                                    std::shared_ptr<const rtl::Module> design,
                                    flow::FlowConfig config);

}  // namespace eurochip::hub
