// BENCH failover — the federation's availability layer under chaos.
//
// Runs a fixed trace of real RTL-to-GDSII flow jobs through a
// fed::FederatedService twice: once failure-free (the baseline), once
// while a chaos controller crashes the busiest hub mid-soak, restarts it,
// partitions a hub (zombie window: the hub keeps finishing jobs the
// federation has declared dead), and heals it — with heartbeat detection,
// failover, epoch fencing, and the rejoin ramp all running live.
//
// Hard gates (exit 1 on violation):
//   * zero lost jobs      — every submission reaches a terminal record
//                           within the per-job timeout, and succeeds;
//   * exactly-once        — Stats::duplicate_settlements == 0 (no zombie
//                           terminal or failover race settles a job twice);
//   * identical results   — every job's artifact digest in the chaos run
//                           equals the failure-free baseline's (failover
//                           re-runs with the same seed, so crashes change
//                           WHERE work happens, never its result);
//   * failures exercised  — the chaos run actually failed jobs over
//                           (failed_over >= 1) and declared hubs down.
//
// Emits BENCH_failover.json. Pass --smoke for the CI-sized run.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
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
  std::size_t hubs = 3;
  std::size_t jobs = 900;
  std::size_t designs = 48;
  int capacity = 2;           ///< workers per hub
  int crash_cycles = 2;       ///< crash -> restart rounds
  double job_timeout_ms = 300000.0;
};

std::vector<std::shared_ptr<const rtl::Module>> make_designs(std::size_t n) {
  std::vector<std::shared_ptr<const rtl::Module>> designs;
  designs.reserve(n);
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
  }
  return designs;
}

hub::JobSpec spec_for(const std::vector<std::shared_ptr<const rtl::Module>>&
                          designs,
                      std::size_t i) {
  const std::size_t d = i % designs.size();
  flow::FlowConfig cfg;
  cfg.node = pdk::standard_node("sky130ish").value();
  cfg.quality = flow::FlowQuality::kOpen;
  // Per-design fixed seed: a failed-over resubmission is the same
  // computation, so digests must agree with the failure-free baseline.
  cfg.seed = 0xFEDull + d;
  return hub::make_flow_job("job" + std::to_string(i), designs[d],
                            std::move(cfg));
}

fed::FederatedService::Options service_options(const BenchConfig& bc,
                                               bool chaos) {
  fed::FederatedService::Options opts;
  opts.hubs = bc.hubs;
  opts.hub_options.capacity = bc.capacity;
  opts.l1_bytes = 8u << 20;  // small L1 forces real shared-L2 traffic
  opts.remote.max_bytes = 512u << 20;
  opts.remote.latency_ms = 0.05;
  opts.steal = true;
  opts.steal_interval_ms = 1.0;
  opts.steal_batch = 4;
  // Fast detection so the chaos windows resolve in bench time. The
  // baseline runs the identical availability config: health monitoring on
  // a healthy federation must be free of behavioral side effects.
  opts.health = true;
  opts.heartbeat_interval_ms = 2.0;
  opts.monitor.suspect_after_ms = 10.0;
  opts.monitor.down_after_ms = 30.0;
  opts.monitor.rejoin_beats = 3;
  (void)chaos;
  return opts;
}

struct RunResult {
  std::map<std::string, std::string> digests;  ///< job name -> artifact hex
  std::size_t submitted = 0;
  std::size_t terminal = 0;
  std::size_t succeeded = 0;
  std::size_t with_failovers = 0;
  std::vector<double> queue_wait;
  fed::FederatedService::Stats fed;
  double wall_ms = 0.0;
  bool all_waits_returned = true;
};

/// Runs the trace; when `chaos` is set, a controller thread crashes the
/// busiest hub once the first job has settled, restarts it at ~50%
/// completion, then (per extra cycle) crashes the next busiest hub, and
/// finally opens a partition/heal window (the zombie case) at ~75%.
RunResult run_trace(const BenchConfig& bc, bool chaos) {
  fed::FederatedService service(service_options(bc, chaos));
  const auto designs = make_designs(bc.designs);
  const auto t0 = std::chrono::steady_clock::now();

  std::vector<fed::FedJobId> ids;
  ids.reserve(bc.jobs);
  for (std::size_t i = 0; i < bc.jobs; ++i) {
    auto id = service.submit(spec_for(designs, i));
    if (!id.ok()) {
      std::fprintf(stderr, "submit %zu failed: %s\n", i,
                   id.status().to_string().c_str());
      continue;
    }
    ids.push_back(*id);
  }

  std::thread controller;
  if (chaos) {
    controller = std::thread([&service, &bc] {
      const auto completed_at_least = [&](std::size_t target) {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(600);
        while (service.stats().completed < target) {
          if (std::chrono::steady_clock::now() > deadline) return false;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return true;
      };
      const auto busiest_hub = [&service]() -> std::size_t {
        std::size_t victim = 0, depth = 0;
        for (std::size_t h = 0; h < service.num_hubs(); ++h) {
          if (service.health().state(h) == fed::HubHealth::kDown) continue;
          const std::size_t d =
              service.hub(h).queued_count() + service.hub(h).running_count();
          if (d >= depth) {
            depth = d;
            victim = h;
          }
        }
        return victim;
      };
      const std::size_t quarter = bc.jobs / 4;
      for (int cycle = 0; cycle < bc.crash_cycles; ++cycle) {
        // Crash while work is in flight, not at a completion fraction:
        // repeated jobs restore from the cache and settle in bursts shorter
        // than this thread's wake-up latency on a loaded host, so a
        // fraction-based trigger can fire after the last job and crash an
        // idle hub.
        if (!completed_at_least(1)) return;
        const std::size_t victim = busiest_hub();
        service.crash_hub(victim);
        if (!completed_at_least(2 * quarter + static_cast<std::size_t>(cycle) *
                                                  quarter / 2)) {
          return;
        }
        service.restart_hub(victim);
      }
      // Zombie window: partition a live hub, let detection fail its jobs
      // over while it keeps executing them, then heal the link.
      if (!completed_at_least(3 * quarter)) return;
      const std::size_t zombie = busiest_hub();
      service.partition_hub(zombie, true);
      std::this_thread::sleep_for(std::chrono::milliseconds(80));
      service.partition_hub(zombie, false);
    });
  }

  RunResult out;
  out.submitted = ids.size();
  for (const fed::FedJobId id : ids) {
    auto record = service.wait_for(id, bc.job_timeout_ms);
    if (!record.ok()) {
      out.all_waits_returned = false;
      std::fprintf(stderr, "LOST: job %llu never terminal: %s\n",
                   static_cast<unsigned long long>(id),
                   record.status().to_string().c_str());
      continue;
    }
    ++out.terminal;
    out.queue_wait.push_back(record->queue_wait_ms);
    if (record->failovers > 0) ++out.with_failovers;
    if (record->state == hub::JobState::kSucceeded) {
      ++out.succeeded;
      out.digests.emplace(record->name, record->artifact_digest.hex());
    } else {
      std::fprintf(stderr, "job %s finished %s: %s\n", record->name.c_str(),
                   to_string(record->state),
                   record->status.to_string().c_str());
    }
  }
  if (controller.joinable()) controller.join();
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  out.fed = service.stats();
  service.shutdown();
  return out;
}

struct Gate {
  std::string name;
  bool passed;
  std::string detail;
};

}  // namespace

int main(int argc, char** argv) {
  BenchConfig bc;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      bc.smoke = true;
      bc.jobs = 160;
      bc.designs = 16;
      bc.crash_cycles = 1;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    }
  }
  std::printf("failover soak: %zu hubs x %d workers, %zu jobs, "
              "%d crash cycle(s) + 1 partition window\n",
              bc.hubs, bc.capacity, bc.jobs, bc.crash_cycles);

  std::printf("  baseline (failure-free) ...\n");
  const auto base = run_trace(bc, false);
  std::printf("    %zu/%zu succeeded in %s ms\n", base.succeeded,
              base.submitted, util::fmt(base.wall_ms, 0).c_str());

  std::printf("  chaos run ...\n");
  // With --trace-out, the chaos run (the interesting one: crash, failover,
  // zombie window, rejoin) runs under a trace session exported as Chrome
  // trace-event JSON (Perfetto).
  if (!trace_out.empty()) util::trace::start();
  const auto soak = run_trace(bc, true);
  if (!trace_out.empty()) {
    util::trace::stop();
    const bool written = util::trace::export_chrome_json_file(trace_out);
    std::printf("  trace: %s %s\n", trace_out.c_str(),
                written ? "written" : "WRITE FAILED");
    util::trace::clear();
  }
  std::printf(
      "    %zu/%zu succeeded in %s ms; failed_over=%llu rerouted=%llu "
      "down_events=%llu rejoins=%llu fenced=%llu crash_dropped=%llu "
      "zombies_reaped=%llu\n",
      soak.succeeded, soak.submitted, util::fmt(soak.wall_ms, 0).c_str(),
      static_cast<unsigned long long>(soak.fed.failed_over),
      static_cast<unsigned long long>(soak.fed.rerouted),
      static_cast<unsigned long long>(soak.fed.hub_down_events),
      static_cast<unsigned long long>(soak.fed.hub_rejoins),
      static_cast<unsigned long long>(soak.fed.stale_terminals_dropped),
      static_cast<unsigned long long>(soak.fed.crash_terminals_dropped),
      static_cast<unsigned long long>(soak.fed.zombies_reaped));

  std::vector<Gate> gates;
  gates.push_back(
      {"zero_lost_jobs",
       base.all_waits_returned && soak.all_waits_returned &&
           base.succeeded == base.submitted &&
           soak.succeeded == soak.submitted,
       "baseline " + std::to_string(base.succeeded) + "/" +
           std::to_string(base.submitted) + ", chaos " +
           std::to_string(soak.succeeded) + "/" +
           std::to_string(soak.submitted)});
  gates.push_back(
      {"exactly_once_settlement",
       base.fed.duplicate_settlements == 0 &&
           soak.fed.duplicate_settlements == 0,
       "duplicate_settlements baseline=" +
           std::to_string(base.fed.duplicate_settlements) +
           " chaos=" + std::to_string(soak.fed.duplicate_settlements)});

  bool digests_match = soak.digests.size() == base.digests.size();
  std::string digest_detail =
      std::to_string(soak.digests.size()) + " digests compared";
  for (const auto& [name, digest] : base.digests) {
    const auto it = soak.digests.find(name);
    if (it == soak.digests.end() || it->second != digest) {
      digests_match = false;
      digest_detail = name + " differs from the failure-free baseline";
      break;
    }
  }
  gates.push_back({"digests_identical_to_baseline", digests_match,
                   digest_detail});
  gates.push_back(
      {"failures_exercised",
       soak.fed.failed_over >= 1 && soak.fed.hub_down_events >= 1,
       std::to_string(soak.fed.failed_over) + " failovers across " +
           std::to_string(soak.fed.hub_down_events) + " down events (" +
           std::to_string(soak.with_failovers) + " jobs re-homed)"});

  bool all_passed = true;
  for (const auto& g : gates) {
    all_passed = all_passed && g.passed;
    std::printf("  gate %-32s %s (%s)\n", g.name.c_str(),
                g.passed ? "PASS" : "FAIL", g.detail.c_str());
  }

  std::ofstream json("BENCH_failover.json");
  json << "{\n  \"mode\": \"" << (bc.smoke ? "smoke" : "full") << "\",\n"
       << "  \"hubs\": " << bc.hubs << ",\n"
       << "  \"jobs\": " << bc.jobs << ",\n"
       << "  \"crash_cycles\": " << bc.crash_cycles << ",\n"
       << "  \"baseline\": {\"succeeded\": " << base.succeeded
       << ", \"wall_ms\": " << util::fmt(base.wall_ms, 1)
       << ", \"queue_wait_ms\": "
       << util::to_json(util::summarize_percentiles(base.queue_wait))
       << "},\n"
       << "  \"chaos\": {\"succeeded\": " << soak.succeeded
       << ", \"wall_ms\": " << util::fmt(soak.wall_ms, 1)
       << ", \"queue_wait_ms\": "
       << util::to_json(util::summarize_percentiles(soak.queue_wait))
       << ",\n    \"failed_over\": " << soak.fed.failed_over
       << ", \"jobs_with_failovers\": " << soak.with_failovers
       << ", \"rerouted\": " << soak.fed.rerouted
       << ", \"orphaned\": " << soak.fed.orphaned
       << ", \"hub_down_events\": " << soak.fed.hub_down_events
       << ", \"hub_rejoins\": " << soak.fed.hub_rejoins
       << ",\n    \"stale_terminals_dropped\": "
       << soak.fed.stale_terminals_dropped
       << ", \"crash_terminals_dropped\": "
       << soak.fed.crash_terminals_dropped
       << ", \"zombies_reaped\": " << soak.fed.zombies_reaped
       << ", \"duplicate_settlements\": " << soak.fed.duplicate_settlements
       << ", \"stolen\": " << soak.fed.stolen << "},\n"
       << "  \"gates\": {";
  for (std::size_t i = 0; i < gates.size(); ++i) {
    if (i > 0) json << ", ";
    json << "\"" << gates[i].name
         << "\": " << (gates[i].passed ? "true" : "false");
  }
  json << "},\n  \"all_gates_passed\": " << (all_passed ? "true" : "false")
       << "\n}\n";
  json.close();
  std::printf("wrote BENCH_failover.json\n");

  if (!all_passed) {
    std::fprintf(stderr, "FATAL: failover gates violated\n");
    return 1;
  }
  return 0;
}
