#include "eurochip/hub/job.hpp"

#include <algorithm>
#include <cstdio>

#include "eurochip/flow/fingerprint.hpp"

namespace eurochip::hub {

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kSucceeded: return "succeeded";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kTimedOut: return "timed_out";
    case JobState::kMigrated: return "migrated";
  }
  return "?";
}

bool is_terminal(JobState state) {
  return state != JobState::kQueued && state != JobState::kRunning;
}

std::string render_flight_record(const JobRecord& record) {
  char buf[64];
  std::string out = "flight record: job " + std::to_string(record.id) + " '" +
                    record.name + "' (" + to_string(record.state) + ", " +
                    std::to_string(record.attempts) + " attempt" +
                    (record.attempts == 1 ? "" : "s") + ")\n";
  // Entries are appended from several sources (server lock sites, the
  // run_job splice, breakpoint hooks, federation steal/failover merges),
  // so stored order is not time order. Render strictly by timestamp;
  // stable so same-instant entries keep their append order.
  std::vector<FlightEntry> flight = record.flight;
  std::stable_sort(flight.begin(), flight.end(),
                   [](const FlightEntry& a, const FlightEntry& b) {
                     return a.t_ms < b.t_ms;
                   });
  std::size_t kind_width = 0;
  std::size_t label_width = 0;
  for (const FlightEntry& e : flight) {
    kind_width = std::max(kind_width, e.kind.size());
    label_width = std::max(label_width, e.label.size());
  }
  for (const FlightEntry& e : flight) {
    std::snprintf(buf, sizeof buf, "  %+10.3fms  ", e.t_ms);
    out += buf;
    out += e.kind;
    out.append(kind_width - e.kind.size() + 2, ' ');
    out += e.label;
    if (!e.detail.empty()) {
      out.append(label_width - e.label.size() + 2, ' ');
      out += e.detail;
    }
    out += '\n';
  }
  return out;
}

JobSpec make_flow_job(std::string name,
                      std::shared_ptr<const rtl::Module> design,
                      flow::FlowConfig config) {
  JobSpec spec;
  spec.name = std::move(name);
  spec.node_name = config.node.name;
  spec.design_name = design->name();
  spec.quality = config.quality;
  // Breakpoint rendezvous: minted here (not per attempt) so the controller
  // identity survives retries, stealing, and failover — everyone who ever
  // runs this job parks on the same controller.
  if (!config.break_after.empty() && config.breakpoint == nullptr) {
    config.breakpoint = std::make_shared<flow::BreakController>();
  }
  spec.breakpoint = config.breakpoint;
  // Debug-query context: the exact config the job runs under, minus the
  // per-run plumbing (cancel token, cache pointer, controller) that
  // answer_from_cache supplies itself. break_after is kept — it names the
  // break step for flight-record labels and does not enter any cache key.
  {
    auto dbg_info = std::make_shared<JobDebugInfo>();
    dbg_info->design = design;
    dbg_info->config = config;
    dbg_info->config.cancel = util::CancelToken{};
    dbg_info->config.cache = nullptr;
    dbg_info->config.breakpoint = nullptr;
    spec.debug = std::move(dbg_info);
  }
  spec.work = [design = std::move(design),
               config = std::move(config)](JobContext& ctx) -> util::Status {
    flow::FlowConfig cfg = config;
    cfg.cancel = ctx.cancel;
    // The server's shared artifact cache (if any). Safe across workers:
    // FlowCache is internally synchronized and the artifacts its entries
    // share are immutable.
    cfg.cache = ctx.cache;
    // Load shedding: admitted above the watermark -> run at open effort.
    if (ctx.degraded) cfg.quality = flow::FlowQuality::kOpen;
    // Retry seeding policy: after genuine congestion (kResourceExhausted)
    // re-run with a shifted seed so the stochastic stages explore a
    // different trajectory. After any other retryable failure (internal
    // hiccup, injected fault, crash isolated by the server) keep the seed —
    // the step keys then match the entries the previous attempt stored and
    // execute() restores those steps from the FlowCache instead of
    // rerunning them.
    if (ctx.last_error.code() == util::ErrorCode::kResourceExhausted) {
      cfg.seed = config.seed + static_cast<std::uint64_t>(ctx.attempt - 1);
    }
    auto result = flow::run_reference_flow(*design, cfg);
    if (!result.ok()) return result.status();
    ctx.steps = std::move(result->steps);
    ctx.ppa = result->ppa;
    ctx.cache_hits = result->cache_hits;
    // Artifact identity: lets the federation bench prove that results are
    // bit-identical regardless of which hub ran the job or whether it was
    // resumed from the shared cache tier.
    util::Hasher h;
    h.str("eurochip.artifact.v1");
    const flow::FlowArtifacts& a = result->artifacts;
    if (a.mapped) h.digest(flow::digest_of(*a.mapped));
    if (a.placed) h.digest(flow::digest_of(*a.placed));
    if (a.routed) h.digest(flow::digest_of(*a.routed));
    h.bytes(a.gds_bytes.data(), a.gds_bytes.size());
    ctx.artifact_digest = h.finalize();
    return util::Status::Ok();
  };
  return spec;
}

}  // namespace eurochip::hub
