// BENCH flow_cache — cold vs warm campaign wall-clock with a shared
// FlowCache (paper Recommendations 4/7).
//
// A shared enablement hub resubmits near-identical flows all day: course
// cohorts rerun the same designs, PPA sweeps vary one knob. The trace here
// is 20 jobs = 4 designs x 5 repeats, executed twice on one JobServer:
// once against an empty cache (cold) and once against the populated cache
// (warm). The warm pass should be >= 3x faster — every repeated job
// restores each of its steps from the cache.
//
// A cold pass lasts only a few milliseconds, so one pass is at the mercy
// of the host: each pass is timed as the best of kRepeats, and every cold
// repeat starts from a fresh cache.
//
// Emits BENCH_flow_cache.json with every cold/warm sample, the best of
// each, the speedup, and the cache counters mirrored into the server's
// MetricsRegistry (from the last repeat).
//
// Note on absolute timing numbers vs earlier baselines: post-layout STA
// now averages wire RC over ALL metal layers (the router uses the whole
// stack) instead of the bottom layer only, which lowers routed-net wire
// delays and thus shifts sta-step outputs slightly; it does not affect
// the cold/warm comparison, which runs the same model on both sides.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "eurochip/flow/cache.hpp"
#include "eurochip/hub/job.hpp"
#include "eurochip/hub/server.hpp"
#include "eurochip/pdk/registry.hpp"
#include "eurochip/rtl/designs.hpp"
#include "eurochip/util/strings.hpp"
#include "eurochip/util/table.hpp"

namespace {

using namespace eurochip;  // NOLINT(google-build-using-namespace)

struct TraceJob {
  std::string name;
  std::shared_ptr<const rtl::Module> design;
};

std::vector<TraceJob> build_trace() {
  // 4 designs x 5 repeats: a course cohort resubmitting the same designs.
  const std::vector<std::shared_ptr<const rtl::Module>> designs = {
      std::make_shared<const rtl::Module>(rtl::designs::counter(8)),
      std::make_shared<const rtl::Module>(rtl::designs::adder(8)),
      std::make_shared<const rtl::Module>(rtl::designs::alu(8)),
      std::make_shared<const rtl::Module>(rtl::designs::lfsr(16)),
  };
  std::vector<TraceJob> trace;
  for (int rep = 0; rep < 5; ++rep) {
    for (std::size_t d = 0; d < designs.size(); ++d) {
      TraceJob job;
      job.name = "d" + std::to_string(d) + "r" + std::to_string(rep);
      job.design = designs[d];
      trace.push_back(job);
    }
  }
  return trace;
}

struct PassResult {
  double wall_ms = 0.0;
  std::size_t job_cache_hits = 0;  ///< sum of per-job JobRecord::cache_hits
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t evictions = 0;
};

PassResult run_campaign(const std::vector<TraceJob>& trace,
                        const flow::FlowConfig& cfg,
                        flow::FlowCache& cache, const char* label) {
  hub::JobServer::Options opt;
  opt.capacity = 4;
  opt.cache = &cache;
  hub::JobServer server(opt);

  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& job : trace) {
    const auto id = server.submit(hub::make_flow_job(job.name, job.design, cfg));
    if (!id.ok()) {
      std::fprintf(stderr, "submit failed: %s\n",
                   id.status().to_string().c_str());
      std::exit(1);
    }
  }
  const auto records = server.drain();
  const auto t1 = std::chrono::steady_clock::now();

  PassResult r;
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  for (const auto& rec : records) {
    if (rec.state != hub::JobState::kSucceeded) {
      std::fprintf(stderr, "%s job %s: %s\n", label, rec.name.c_str(),
                   rec.status.to_string().c_str());
      std::exit(1);
    }
    r.job_cache_hits += rec.cache_hits;
  }
  r.hits = server.metrics().counter("flow_cache_hits");
  r.misses = server.metrics().counter("flow_cache_misses");
  r.stores = server.metrics().counter("flow_cache_stores");
  r.evictions = server.metrics().counter("flow_cache_evictions");
  return r;
}

constexpr int kRepeats = 5;

/// Renders `samples` as a JSON array.
std::string json_array(const std::vector<double>& samples) {
  std::string out = "[";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    out += (i == 0 ? "" : ", ") + std::to_string(samples[i]);
  }
  return out + "]";
}

}  // namespace

int main() {
  const auto trace = build_trace();
  flow::FlowConfig cfg;
  cfg.node = pdk::standard_node("sky130ish").value();
  cfg.quality = flow::FlowQuality::kOpen;

  // Cold: empty cache. Repeats within the trace already hit, so even the
  // cold pass is cheaper than cache-off — the interesting delta is the
  // fully-warm rerun of the identical campaign.
  std::vector<double> cold_ms, warm_ms;
  PassResult cold, warm;
  flow::FlowCache::Stats st;
  std::size_t max_bytes = 0;
  for (int r = 0; r < kRepeats; ++r) {
    flow::FlowCache cache;  // default 256 MiB budget, fresh per repeat
    cold = run_campaign(trace, cfg, cache, "cold");
    warm = run_campaign(trace, cfg, cache, "warm");
    cold_ms.push_back(cold.wall_ms);
    warm_ms.push_back(warm.wall_ms);
    st = cache.stats();
    max_bytes = cache.max_bytes();
  }
  const double best_cold = *std::min_element(cold_ms.begin(), cold_ms.end());
  const double best_warm = *std::min_element(warm_ms.begin(), warm_ms.end());
  const double speedup = best_warm > 0 ? best_cold / best_warm : 0.0;

  util::Table table("FlowCache campaign: " + std::to_string(trace.size()) +
                    " jobs (4 designs x 5 repeats), JobServer capacity 4, "
                    "best of " + std::to_string(kRepeats));
  table.set_header({"pass", "wall_ms", "job_hits", "cache_hits",
                    "cache_misses", "cache_stores"});
  table.add_row({"cold", util::fmt(best_cold, 1),
                 std::to_string(cold.job_cache_hits),
                 std::to_string(cold.hits), std::to_string(cold.misses),
                 std::to_string(cold.stores)});
  table.add_row({"warm", util::fmt(best_warm, 1),
                 std::to_string(warm.job_cache_hits),
                 std::to_string(warm.hits), std::to_string(warm.misses),
                 std::to_string(warm.stores)});
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "warm speedup: %.2fx (resident: %zu entries, %.1f MiB of %.0f MiB)\n",
      speedup, st.entries, static_cast<double>(st.bytes) / (1024.0 * 1024.0),
      static_cast<double>(max_bytes) / (1024.0 * 1024.0));

  std::ofstream json("BENCH_flow_cache.json");
  json << "{\n  \"bench\": \"flow_cache\",\n  \"jobs\": " << trace.size()
       << ",\n  \"capacity\": 4"
       << ",\n  \"hardware_threads\": " << std::thread::hardware_concurrency()
       << ",\n  \"repeats\": " << kRepeats
       << ",\n  \"cold_ms\": " << best_cold
       << ",\n  \"warm_ms\": " << best_warm
       << ",\n  \"cold_ms_samples\": " << json_array(cold_ms)
       << ",\n  \"warm_ms_samples\": " << json_array(warm_ms)
       << ",\n  \"speedup\": " << speedup
       << ",\n  \"cold\": {\"job_cache_hits\": " << cold.job_cache_hits
       << ", \"hits\": " << cold.hits << ", \"misses\": " << cold.misses
       << ", \"stores\": " << cold.stores
       << ", \"evictions\": " << cold.evictions << "}"
       << ",\n  \"warm\": {\"job_cache_hits\": " << warm.job_cache_hits
       << ", \"hits\": " << warm.hits << ", \"misses\": " << warm.misses
       << ", \"stores\": " << warm.stores
       << ", \"evictions\": " << warm.evictions << "}"
       << ",\n  \"cache_entries\": " << st.entries
       << ",\n  \"cache_bytes\": " << st.bytes
       << ",\n  \"wire_rc_model\": \"multi-layer average (was: M1 only)\""
       << "\n}\n";
  std::printf("wrote BENCH_flow_cache.json\n");

  if (speedup < 3.0) {
    std::fprintf(stderr,
                 "WARNING: warm speedup %.2fx below the 3x expectation\n",
                 speedup);
    return 2;
  }
  return 0;
}
