// BENCH federation — the multi-hub enablement platform under load
// (Recommendations 7/8 scaled out to a European federation of hubs).
//
// Soaks a fed::FederatedService — consistent-hash router, per-hub L1
// FlowCaches over one shared RemoteCache (L2), cross-hub work stealing,
// global commercial quota — with a trace of real RTL-to-GDSII flow jobs:
// by default 10k jobs from 1k member universities over 120 distinct
// designs on 4 hubs (pass --smoke for a CI-sized 2-hub / 500-job / 200-
// member / 24-design run). Reports p50/p99 queue wait and run time, L1
// and L2 hit rates, steal/quota counters, and per-tier fairness.
//
// Hard determinism gate (exit 1 on violation): a fixed job trace is
// executed on {1 hub}, {4 hubs, stealing off}, and {4 hubs, stealing on}
// with fresh caches each time; every job's artifact digest
// (JobRecord::artifact_digest) must be identical in all three topologies.
// Federation placement, cache tier, and migration may change WHEN and
// WHERE a job runs — never its result.
//
// Emits BENCH_federation.json.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "eurochip/fed/federation.hpp"
#include "eurochip/hub/job.hpp"
#include "eurochip/pdk/registry.hpp"
#include "eurochip/rtl/designs.hpp"
#include "eurochip/util/stats.hpp"
#include "eurochip/util/strings.hpp"
#include "eurochip/util/trace.hpp"

namespace {

using namespace eurochip;  // NOLINT(google-build-using-namespace)

struct BenchConfig {
  bool smoke = false;
  std::size_t hubs = 4;
  std::size_t jobs = 10000;
  std::size_t members = 1000;
  std::size_t designs = 120;
  std::size_t gate_jobs = 600;
  int capacity = 2;  ///< workers per hub
};

std::vector<std::shared_ptr<const rtl::Module>> make_designs(std::size_t n) {
  std::vector<std::shared_ptr<const rtl::Module>> designs;
  designs.reserve(n);
  // Five cheap generator families at stepped widths: enough structural
  // variety to exercise every flow stage without making cold runs slow.
  for (int w = 4; designs.size() < n; ++w) {
    designs.push_back(
        std::make_shared<const rtl::Module>(rtl::designs::counter(w)));
    if (designs.size() < n)
      designs.push_back(
          std::make_shared<const rtl::Module>(rtl::designs::adder(w)));
    if (designs.size() < n)
      designs.push_back(
          std::make_shared<const rtl::Module>(rtl::designs::gray_encoder(w)));
    if (designs.size() < n)
      designs.push_back(
          std::make_shared<const rtl::Module>(rtl::designs::lfsr(w)));
    if (designs.size() < n)
      designs.push_back(
          std::make_shared<const rtl::Module>(rtl::designs::popcount(w)));
  }
  return designs;
}

flow::FlowConfig config_for(std::size_t design_index) {
  flow::FlowConfig cfg;
  cfg.node = pdk::standard_node("sky130ish").value();
  cfg.quality = flow::FlowQuality::kOpen;
  // Per-design fixed seed: every submission of design D is the same
  // computation, so caches hit and digests must agree across topologies.
  cfg.seed = 0xFEDull + design_index;
  return cfg;
}

hub::JobSpec spec_for(const BenchConfig& bc,
                      const std::vector<std::shared_ptr<const rtl::Module>>&
                          designs,
                      std::size_t i) {
  const std::size_t d = i % designs.size();
  auto spec = hub::make_flow_job("job" + std::to_string(i), designs[d],
                                 config_for(d));
  spec.member = i % bc.members;
  spec.tier = static_cast<edu::LearnerTier>(i % 3);
  // Every fifth job asks for commercial effort — pressure for the global
  // quota. (Degraded jobs run at open effort; their digests are excluded
  // from cross-topology identity because effort changes the artifacts.)
  if (i % 5 == 0) spec.quality = flow::FlowQuality::kCommercial;
  return spec;
}

fed::FederatedService::Options service_options(const BenchConfig& bc,
                                               std::size_t hubs, bool steal) {
  fed::FederatedService::Options opts;
  opts.hubs = hubs;
  opts.hub_options.capacity = bc.capacity;
  opts.l1_bytes = 8u << 20;  // small L1 forces real L2 traffic
  opts.remote.max_bytes = 512u << 20;
  opts.remote.latency_ms = 0.05;
  opts.remote.bandwidth_mb_per_s = 1000.0;
  opts.steal = steal;
  opts.steal_interval_ms = 1.0;
  opts.steal_batch = 4;
  opts.max_commercial_inflight = 8;
  opts.quota_degrade = true;
  return opts;
}

struct SoakResult {
  std::vector<hub::JobRecord> records;
  fed::FederatedService::Stats fed;
  flow::FlowCache::Stats l1;  ///< summed over hubs
  fed::RemoteCache::Stats l2;
  double wall_ms = 0.0;
};

SoakResult run_soak(const BenchConfig& bc) {
  fed::FederatedService service(service_options(bc, bc.hubs, true));
  const auto designs = make_designs(bc.designs);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<fed::FedJobId> ids;
  ids.reserve(bc.jobs);
  for (std::size_t i = 0; i < bc.jobs; ++i) {
    auto id = service.submit(spec_for(bc, designs, i));
    if (!id.ok()) {
      std::fprintf(stderr, "submit %zu failed: %s\n", i,
                   id.status().to_string().c_str());
      continue;
    }
    ids.push_back(*id);
  }
  // Wait per job rather than drain(): drain pauses the rebalancer, and the
  // interesting steal window is exactly the tail where some hubs sit idle
  // while others still hold deep queues.
  SoakResult out;
  out.records.reserve(ids.size());
  for (const fed::FedJobId id : ids) {
    auto record = service.wait(id);
    if (record.ok()) out.records.push_back(std::move(*record));
  }
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  out.fed = service.stats();
  for (std::size_t h = 0; h < service.num_hubs(); ++h) {
    const auto s = service.l1_cache(h).stats();
    out.l1.hits += s.hits;
    out.l1.misses += s.misses;
    out.l1.stores += s.stores;
    out.l1.evictions += s.evictions;
    out.l1.remote_hits += s.remote_hits;
    out.l1.remote_errors += s.remote_errors;
    out.l1.bytes += s.bytes;
    out.l1.entries += s.entries;
  }
  if (service.remote_cache() != nullptr) {
    out.l2 = service.remote_cache()->stats();
  }
  service.shutdown();
  return out;
}

/// Runs the identity trace on one topology; returns job name -> digest for
/// full-effort succeeded jobs (empty on any failure).
std::map<std::string, std::string> run_gate_topology(const BenchConfig& bc,
                                                     std::size_t hubs,
                                                     bool steal) {
  auto opts = service_options(bc, hubs, steal);
  // The quota is a load policy: which jobs it degrades depends on worker
  // count and completion timing, so it is disabled here. The gate claims
  // topology-invariant *results*, and the soak exercises the quota.
  opts.max_commercial_inflight = 0;
  fed::FederatedService service(opts);
  const auto designs = make_designs(bc.designs);
  std::vector<fed::FedJobId> ids;
  ids.reserve(bc.gate_jobs);
  for (std::size_t i = 0; i < bc.gate_jobs; ++i) {
    auto id = service.submit(spec_for(bc, designs, i));
    if (!id.ok()) {
      std::fprintf(stderr, "gate submit %zu failed: %s\n", i,
                   id.status().to_string().c_str());
      return {};
    }
    ids.push_back(*id);
  }
  std::map<std::string, std::string> digests;
  for (const auto id : ids) {
    auto record = service.wait(id);
    if (!record.ok() || record->state != hub::JobState::kSucceeded) {
      std::fprintf(stderr, "gate job did not succeed (%s)\n",
                   record.ok() ? record->name.c_str()
                               : record.status().to_string().c_str());
      return {};
    }
    // Quota-degraded jobs legitimately run at a different effort; only
    // full-effort results must be topology-invariant.
    if (record->degraded) continue;
    digests.emplace(record->name, record->artifact_digest.hex());
  }
  service.shutdown();
  return digests;
}

bool run_identity_gate(const BenchConfig& bc, std::string* detail) {
  const auto one = run_gate_topology(bc, 1, false);
  const auto four_nosteal = run_gate_topology(bc, bc.hubs, false);
  const auto four_steal = run_gate_topology(bc, bc.hubs, true);
  if (one.empty() || four_nosteal.empty() || four_steal.empty()) {
    *detail = "a gate topology failed to execute the trace";
    return false;
  }
  for (const auto* other : {&four_nosteal, &four_steal}) {
    if (other->size() != one.size()) {
      *detail = "gate topologies completed different full-effort job sets";
      return false;
    }
    for (const auto& [name, digest] : one) {
      const auto it = other->find(name);
      if (it == other->end() || it->second != digest) {
        *detail = "artifact digest of " + name + " differs across topologies";
        return false;
      }
    }
  }
  *detail = "identical across 1 hub / " + std::to_string(bc.hubs) +
            " hubs / stealing";
  return true;
}

std::string summary_json(std::vector<double> samples) {
  return util::to_json(util::summarize_percentiles(std::move(samples)));
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig bc;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      bc.smoke = true;
      bc.hubs = 2;
      bc.jobs = 500;
      bc.members = 200;
      bc.designs = 24;
      bc.gate_jobs = 120;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    }
  }
  std::printf("federation soak: %zu hubs x %d workers, %zu jobs, "
              "%zu members, %zu designs\n",
              bc.hubs, bc.capacity, bc.jobs, bc.members, bc.designs);

  // With --trace-out, the soak runs under a trace session and the full
  // span/instant stream is exported as Chrome trace-event JSON (Perfetto).
  if (!trace_out.empty()) util::trace::start();
  const auto soak = run_soak(bc);
  if (!trace_out.empty()) {
    util::trace::stop();
    const bool written = util::trace::export_chrome_json_file(trace_out);
    std::printf("  trace: %s %s\n", trace_out.c_str(),
                written ? "written" : "WRITE FAILED");
    util::trace::clear();
  }

  std::size_t succeeded = 0;
  std::vector<double> queue_wait, run_ms;
  std::map<edu::LearnerTier, std::vector<double>> tier_wait;
  queue_wait.reserve(soak.records.size());
  run_ms.reserve(soak.records.size());
  for (const auto& r : soak.records) {
    if (r.state == hub::JobState::kSucceeded) ++succeeded;
    queue_wait.push_back(r.queue_wait_ms);
    run_ms.push_back(r.run_ms);
    tier_wait[r.tier].push_back(r.queue_wait_ms);
  }
  const double l1_lookups =
      static_cast<double>(soak.l1.hits + soak.l1.misses);
  const double l1_rate =
      l1_lookups > 0 ? static_cast<double>(soak.l1.hits) / l1_lookups : 0.0;
  const double l2_lookups =
      static_cast<double>(soak.l2.fetch_hits + soak.l2.fetch_misses);
  const double l2_rate =
      l2_lookups > 0 ? static_cast<double>(soak.l2.fetch_hits) / l2_lookups
                     : 0.0;

  std::printf("  %zu/%zu succeeded in %s ms wall\n", succeeded,
              soak.records.size(), util::fmt(soak.wall_ms, 0).c_str());
  std::printf("  queue wait %s\n", summary_json(queue_wait).c_str());
  std::printf("  L1 hit rate %s  L2 hit rate %s  steals %llu\n",
              util::fmt(l1_rate, 3).c_str(), util::fmt(l2_rate, 3).c_str(),
              static_cast<unsigned long long>(soak.fed.stolen));

  std::string gate_detail;
  const bool gate_ok = run_identity_gate(bc, &gate_detail);
  std::printf("  identity gate: %s (%s)\n", gate_ok ? "PASS" : "FAIL",
              gate_detail.c_str());

  std::ofstream json("BENCH_federation.json");
  json << "{\n  \"mode\": \"" << (bc.smoke ? "smoke" : "full") << "\",\n"
       << "  \"hubs\": " << bc.hubs << ",\n"
       << "  \"workers_per_hub\": " << bc.capacity << ",\n"
       << "  \"jobs\": " << soak.records.size() << ",\n"
       << "  \"succeeded\": " << succeeded << ",\n"
       << "  \"members\": " << bc.members << ",\n"
       << "  \"designs\": " << bc.designs << ",\n"
       << "  \"wall_ms\": " << util::fmt(soak.wall_ms, 1) << ",\n"
       << "  \"queue_wait_ms\": " << summary_json(queue_wait) << ",\n"
       << "  \"run_ms\": " << summary_json(run_ms) << ",\n"
       << "  \"l1\": {\"hits\": " << soak.l1.hits
       << ", \"misses\": " << soak.l1.misses
       << ", \"stores\": " << soak.l1.stores
       << ", \"evictions\": " << soak.l1.evictions
       << ", \"hit_rate\": " << util::fmt(l1_rate, 4)
       << ", \"remote_hits\": " << soak.l1.remote_hits
       << ", \"remote_errors\": " << soak.l1.remote_errors << "},\n"
       << "  \"l2\": {\"fetch_hits\": " << soak.l2.fetch_hits
       << ", \"fetch_misses\": " << soak.l2.fetch_misses
       << ", \"publishes\": " << soak.l2.publishes
       << ", \"evictions\": " << soak.l2.evictions
       << ", \"hit_rate\": " << util::fmt(l2_rate, 4)
       << ", \"simulated_network_ms\": "
       << util::fmt(soak.l2.simulated_network_ms, 1) << "},\n"
       << "  \"steals\": " << soak.fed.stolen
       << ",\n  \"steal_returned\": " << soak.fed.steal_returned
       << ",\n  \"orphaned\": " << soak.fed.orphaned
       << ",\n  \"quota_degraded\": " << soak.fed.quota_degraded
       << ",\n  \"quota_rejected\": " << soak.fed.quota_rejected << ",\n"
       << "  \"tier_queue_wait_ms\": {";
  bool first = true;
  for (auto& [tier, waits] : tier_wait) {
    if (!first) json << ", ";
    first = false;
    json << "\"" << edu::to_string(tier)
         << "\": " << summary_json(std::move(waits));
  }
  json << "},\n"
       << "  \"identity_gate\": {\"jobs\": " << bc.gate_jobs
       << ", \"passed\": " << (gate_ok ? "true" : "false") << ", \"detail\": \""
       << gate_detail << "\"}\n}\n";
  json.close();
  std::printf("wrote BENCH_federation.json\n");

  if (!gate_ok) {
    std::fprintf(stderr,
                 "FATAL: federated execution changed job results (%s)\n",
                 gate_detail.c_str());
    return 1;
  }
  return 0;
}
