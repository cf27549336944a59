// Availability layer of the federation (fed::HealthMonitor + the
// FederatedService failover/fencing/rejoin machinery): heartbeat-driven
// liveness under a fake clock (no sleeps for state transitions), crash
// failover with exactly-once settlement, zombie fencing across partitions,
// epoch-fenced restarts, gradual ring re-entry, and the chaos fault sites
// fed.hub.{crash,hang,partition}.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "eurochip/fed/federation.hpp"
#include "eurochip/fed/health.hpp"
#include "eurochip/fed/router.hpp"
#include "eurochip/flow/cache.hpp"
#include "eurochip/flow/flow.hpp"
#include "eurochip/hub/job.hpp"
#include "eurochip/pdk/registry.hpp"
#include "eurochip/rtl/designs.hpp"
#include "eurochip/util/clock.hpp"
#include "eurochip/util/fault.hpp"

namespace eurochip {
namespace {

// --- clock ----------------------------------------------------------------

TEST(FailoverClockTest, FakeClockAdvancesMonotonically) {
  util::FakeClock clock;
  EXPECT_EQ(clock.now_ms(), 0.0);
  clock.advance_ms(10.0);
  EXPECT_EQ(clock.now_ms(), 10.0);
  clock.advance_ms(-5.0);  // ignored: time never goes backwards
  EXPECT_EQ(clock.now_ms(), 10.0);
  clock.set_ms(7.0);  // ignored for the same reason
  EXPECT_EQ(clock.now_ms(), 10.0);
  clock.set_ms(25.0);
  EXPECT_EQ(clock.now_ms(), 25.0);
}

TEST(FailoverClockTest, SystemClockMovesForward) {
  util::Clock* clock = util::Clock::system();
  ASSERT_NE(clock, nullptr);
  const double a = clock->now_ms();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GT(clock->now_ms(), a);
}

// --- health monitor (pure state machine, fully fake-time) -----------------

fed::HealthMonitor::Options fast_monitor() {
  fed::HealthMonitor::Options opts;
  opts.suspect_after_ms = 50.0;
  opts.down_after_ms = 150.0;
  opts.rejoin_beats = 3;
  return opts;
}

TEST(FailoverHealthTest, SilenceWalksUpSuspectDown) {
  fed::HealthMonitor m(2, fast_monitor(), 0.0);
  EXPECT_EQ(m.state(0), fed::HubHealth::kUp);

  // Hub 1 keeps beating; hub 0 goes silent.
  EXPECT_TRUE(m.observe(1, true, 60.0).empty());
  auto ts = m.tick(60.0);
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts[0].hub, 0u);
  EXPECT_EQ(ts[0].to, fed::HubHealth::kSuspect);
  EXPECT_EQ(m.state(1), fed::HubHealth::kUp);

  EXPECT_TRUE(m.observe(1, true, 160.0).empty());
  ts = m.tick(160.0);
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts[0].to, fed::HubHealth::kDown);
  EXPECT_EQ(m.state(0), fed::HubHealth::kDown);
  EXPECT_EQ(m.rejoin_progress(0), 0.0);
}

TEST(FailoverHealthTest, OneTickCanEmitSuspectThenDown) {
  fed::HealthMonitor m(1, fast_monitor(), 0.0);
  const auto ts = m.tick(500.0);  // slept through both thresholds
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts[0].to, fed::HubHealth::kSuspect);
  EXPECT_EQ(ts[1].to, fed::HubHealth::kDown);
}

TEST(FailoverHealthTest, SuspectRecoversOnASingleBeat) {
  fed::HealthMonitor m(1, fast_monitor(), 0.0);
  (void)m.tick(60.0);
  ASSERT_EQ(m.state(0), fed::HubHealth::kSuspect);
  const auto ts = m.observe(0, true, 70.0);
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts[0].to, fed::HubHealth::kUp);
}

TEST(FailoverHealthTest, RejoinRampCountsConsecutiveBeats) {
  fed::HealthMonitor m(1, fast_monitor(), 0.0);
  (void)m.tick(200.0);
  ASSERT_EQ(m.state(0), fed::HubHealth::kDown);

  auto ts = m.observe(0, true, 210.0);
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts[0].to, fed::HubHealth::kRejoining);
  EXPECT_NEAR(m.rejoin_progress(0), 1.0 / 3.0, 1e-12);

  EXPECT_TRUE(m.observe(0, true, 220.0).empty());
  EXPECT_NEAR(m.rejoin_progress(0), 2.0 / 3.0, 1e-12);

  ts = m.observe(0, true, 230.0);
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts[0].to, fed::HubHealth::kUp);
  EXPECT_EQ(m.rejoin_progress(0), 1.0);
}

TEST(FailoverHealthTest, RejoiningFallsBackToDownOnFailedBeat) {
  fed::HealthMonitor m(1, fast_monitor(), 0.0);
  (void)m.tick(200.0);
  (void)m.observe(0, true, 210.0);
  ASSERT_EQ(m.state(0), fed::HubHealth::kRejoining);
  const auto ts = m.observe(0, false, 220.0);
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts[0].to, fed::HubHealth::kDown);
  EXPECT_EQ(m.rejoin_progress(0), 0.0);
}

// --- router masking -------------------------------------------------------

TEST(FailoverRouterTest, MaskedHubReceivesNothing) {
  fed::Router r(4);
  r.set_weight(2, 0.0);
  for (int i = 0; i < 300; ++i) {
    const auto key =
        fed::Router::shard_key("open90", "d" + std::to_string(i));
    EXPECT_NE(r.hub_for(key), 2u);
  }
}

TEST(FailoverRouterTest, RestoringWeightRestoresTheOriginalMapping) {
  fed::Router fresh(4), masked(4);
  masked.set_weight(1, 0.0);
  masked.set_weight(1, 1.0);
  for (int i = 0; i < 300; ++i) {
    const auto key =
        fed::Router::shard_key("open90", "d" + std::to_string(i));
    EXPECT_EQ(masked.hub_for(key), fresh.hub_for(key));
  }
}

TEST(FailoverRouterTest, PartialWeightShrinksTheShare) {
  fed::Router full(4), ramp(4);
  ramp.set_weight(0, 0.25);
  int full_share = 0, ramp_share = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto key =
        fed::Router::shard_key("open90", "d" + std::to_string(i));
    if (full.hub_for(key) == 0u) ++full_share;
    if (ramp.hub_for(key) == 0u) ++ramp_share;
  }
  EXPECT_GT(ramp_share, 0);
  EXPECT_LT(ramp_share, full_share);
}

TEST(FailoverRouterTest, TotalOutageStillRoutesSomewhere) {
  fed::Router r(3);
  for (std::size_t h = 0; h < 3; ++h) r.set_weight(h, 0.0);
  const auto key = fed::Router::shard_key("open90", "lonely");
  EXPECT_LT(r.hub_for(key), 3u);  // degraded, but never unroutable
}

// --- flow cache prefix probe ----------------------------------------------

flow::FlowConfig open_config(std::uint64_t seed) {
  flow::FlowConfig cfg;
  cfg.node = pdk::standard_node("sky130ish").value();
  cfg.quality = flow::FlowQuality::kOpen;
  cfg.seed = seed;
  return cfg;
}

TEST(FailoverFlowProbeTest, CachedPrefixDepthSeesBothTiers) {
  const auto design = rtl::designs::counter(5);
  const auto tmpl = flow::reference_template();
  fed::RemoteCache remote;
  flow::FlowCache warm(flow::FlowCache::Options{.max_bytes = 64u << 20,
                                                .second_level = &remote});
  auto cfg = open_config(41);

  EXPECT_EQ(tmpl.cached_prefix_depth(design, cfg, warm), 0u);

  cfg.cache = &warm;
  const auto run = tmpl.execute(design, cfg);
  ASSERT_TRUE(run.ok()) << run.status().to_string();

  // Warm L1: the whole run is resumable.
  EXPECT_EQ(tmpl.cached_prefix_depth(design, cfg, warm),
            tmpl.steps().size());

  // Cold L1 over the same shared L2 — the failover shape: the probe must
  // count the remote tier, because that is what a re-homed job resumes
  // from on its new hub.
  flow::FlowCache cold(flow::FlowCache::Options{.max_bytes = 64u << 20,
                                                .second_level = &remote});
  EXPECT_EQ(tmpl.cached_prefix_depth(design, cfg, cold),
            tmpl.steps().size());

  // Cold L1, no L2: nothing to resume from.
  flow::FlowCache island(flow::FlowCache::Options{.max_bytes = 64u << 20});
  EXPECT_EQ(tmpl.cached_prefix_depth(design, cfg, island), 0u);

  // A different seed keys a different chain: the run is not fully
  // resumable (leading seed-independent stages may still match).
  auto other = open_config(42);
  EXPECT_LT(tmpl.cached_prefix_depth(design, other, warm),
            tmpl.steps().size());
}

// --- federated service under failures -------------------------------------

hub::JobSpec quick_job(const std::string& name, const std::string& design) {
  hub::JobSpec spec;
  spec.name = name;
  spec.design_name = design;
  spec.work = [](hub::JobContext&) { return util::Status::Ok(); };
  return spec;
}

// Blocks until `gate` opens, polling the cancel token (CancelToken has no
// wakeup hook; tests keep the poll interval tiny).
hub::JobSpec gated_job(const std::string& name, const std::string& design,
                       std::shared_ptr<std::atomic<bool>> gate) {
  hub::JobSpec spec;
  spec.name = name;
  spec.design_name = design;
  spec.work = [gate](hub::JobContext& ctx) {
    while (!gate->load(std::memory_order_acquire)) {
      if (ctx.cancel.cancelled()) {
        return util::Status::Cancelled("gated job cancelled");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return util::Status::Ok();
  };
  return spec;
}

std::size_t home_of(const fed::FederatedService& service,
                    const std::string& node, const std::string& design) {
  return service.router().hub_for(fed::Router::shard_key(node, design));
}

fed::FederatedService::Options chaos_opts(util::FakeClock* clock) {
  fed::FederatedService::Options opts;
  opts.hubs = 2;
  opts.steal = false;
  opts.health = false;  // heartbeat_once() driven by hand
  opts.clock = clock;
  opts.monitor = fast_monitor();
  opts.hub_options.capacity = 2;
  return opts;
}

TEST(FailoverServiceTest, CrashedHubsQueuedJobsFailOverVerbatim) {
  util::FakeClock clock;
  auto opts = chaos_opts(&clock);
  opts.hub_options.start_paused = true;
  fed::FederatedService service(opts);

  const std::size_t home = home_of(service, "", "hot_design");
  const std::size_t other = 1 - home;
  std::vector<fed::FedJobId> ids;
  for (int i = 0; i < 3; ++i) {
    auto id = service.submit(quick_job("q" + std::to_string(i), "hot_design"));
    ASSERT_TRUE(id.ok()) << id.status().to_string();
    ids.push_back(*id);
  }
  ASSERT_EQ(service.hub(home).queued_count(), 3u);

  service.crash_hub(home);
  // The dying hub's cancel storm must be black-holed, not settled.
  EXPECT_EQ(service.stats().crash_terminals_dropped, 3u);
  EXPECT_EQ(service.stats().completed, 0u);

  clock.advance_ms(200.0);
  const std::size_t transitions = service.heartbeat_once();
  EXPECT_GE(transitions, 2u);  // kUp -> kSuspect -> kDown
  EXPECT_EQ(service.health().state(home), fed::HubHealth::kDown);
  {
    const auto s = service.stats();
    EXPECT_EQ(s.hub_down_events, 1u);
    EXPECT_EQ(s.failed_over, 3u);
  }
  EXPECT_EQ(service.hub(other).queued_count(), 3u) << "jobs must re-home";

  service.start();
  for (const auto id : ids) {
    const auto record = service.wait_for(id, 10000.0);
    ASSERT_TRUE(record.ok()) << record.status().to_string();
    EXPECT_EQ(record->state, hub::JobState::kSucceeded) << record->name;
    EXPECT_EQ(record->failovers, 1);
    bool has_failover_entry = false;
    for (const auto& e : record->flight) {
      if (e.kind == "failover") {
        has_failover_entry = true;
        EXPECT_EQ(e.label, "hub-" + std::to_string(home) + " -> hub-" +
                               std::to_string(other));
      }
    }
    EXPECT_TRUE(has_failover_entry);
  }
  const auto s = service.stats();
  EXPECT_EQ(s.completed, 3u);
  EXPECT_EQ(s.duplicate_settlements, 0u);
}

TEST(FailoverServiceTest, SubmitReroutesOffACrashedUndetectedHub) {
  util::FakeClock clock;
  auto opts = chaos_opts(&clock);
  fed::FederatedService service(opts);

  const std::size_t home = home_of(service, "", "doomed_design");
  service.crash_hub(home);
  // No heartbeat has run: the ring still points at the corpse. The
  // submission must walk to the survivor instead of failing.
  auto id = service.submit(quick_job("r0", "doomed_design"));
  ASSERT_TRUE(id.ok()) << id.status().to_string();
  EXPECT_GE(service.stats().rerouted, 1u);
  const auto record = service.wait_for(*id, 10000.0);
  ASSERT_TRUE(record.ok()) << record.status().to_string();
  EXPECT_EQ(record->state, hub::JobState::kSucceeded);
}

TEST(FailoverServiceTest, FailoverResumesFromTheSharedCachePrefix) {
  util::FakeClock clock;
  auto opts = chaos_opts(&clock);
  fed::FederatedService service(opts);

  auto design =
      std::make_shared<const rtl::Module>(rtl::designs::counter(5));
  auto cfg = open_config(51);
  const std::size_t home =
      home_of(service, cfg.node.name, design->name());
  const std::size_t other = 1 - home;

  // Warm the shared L2 through the home hub.
  auto first = service.submit(hub::make_flow_job("warm", design, cfg));
  ASSERT_TRUE(first.ok());
  const auto warm = service.wait_for(*first, 60000.0);
  ASSERT_TRUE(warm.ok()) << warm.status().to_string();
  ASSERT_EQ(warm->state, hub::JobState::kSucceeded);
  ASSERT_GT(service.remote_cache()->stats().publishes, 0u);

  // The survivor's cold L1 + warm L2 can already resume the whole flow.
  const auto tmpl = flow::reference_template();
  EXPECT_EQ(tmpl.cached_prefix_depth(*design, cfg, service.l1_cache(other)),
            tmpl.steps().size());

  service.crash_hub(home);
  clock.advance_ms(200.0);
  (void)service.heartbeat_once();
  ASSERT_EQ(service.health().state(home), fed::HubHealth::kDown);

  // Same design, same seed, new home: fast-forwards through L2 instead of
  // recomputing, and the artifacts are bit-identical.
  auto second = service.submit(hub::make_flow_job("resume", design, cfg));
  ASSERT_TRUE(second.ok());
  const auto resumed = service.wait_for(*second, 60000.0);
  ASSERT_TRUE(resumed.ok()) << resumed.status().to_string();
  ASSERT_EQ(resumed->state, hub::JobState::kSucceeded);
  EXPECT_GT(resumed->cache_hits, 0u);
  EXPECT_EQ(resumed->artifact_digest, warm->artifact_digest);
}

TEST(FailoverServiceTest, PartitionedZombieTerminalsAreFencedNotSettled) {
  util::FakeClock clock;
  auto opts = chaos_opts(&clock);
  opts.hub_options.capacity = 1;
  fed::FederatedService service(opts);

  auto gate = std::make_shared<std::atomic<bool>>(false);
  const std::size_t home = home_of(service, "", "zombie_design");
  auto id = service.submit(gated_job("z0", "zombie_design", gate));
  ASSERT_TRUE(id.ok());
  // Wait (real time) until the job occupies a worker on its home hub.
  for (int spin = 0; service.hub(home).running_count() == 0 && spin < 5000;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ASSERT_EQ(service.hub(home).running_count(), 1u);

  // Partition: probes black-hole, but the hub keeps running the job — the
  // canonical zombie.
  service.partition_hub(home, true);
  clock.advance_ms(200.0);
  (void)service.heartbeat_once();
  ASSERT_EQ(service.health().state(home), fed::HubHealth::kDown);
  EXPECT_EQ(service.stats().failed_over, 1u);

  // Open the gate: BOTH copies now finish. The zombie's terminal must be
  // fenced; only the failover copy settles.
  gate->store(true, std::memory_order_release);
  const auto record = service.wait_for(*id, 10000.0);
  ASSERT_TRUE(record.ok()) << record.status().to_string();
  EXPECT_EQ(record->state, hub::JobState::kSucceeded);
  EXPECT_EQ(record->failovers, 1);

  // Give the zombie's own terminal time to arrive, then check the fence.
  for (int spin = 0; spin < 5000; ++spin) {
    if (service.stats().stale_terminals_dropped > 0) break;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const auto s = service.stats();
  EXPECT_EQ(s.stale_terminals_dropped, 1u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.duplicate_settlements, 0u);
  EXPECT_EQ(s.commercial_inflight, 0u);
}

TEST(FailoverServiceTest, RestartRejoinsGraduallyUnderABumpedEpoch) {
  util::FakeClock clock;
  auto opts = chaos_opts(&clock);
  fed::FederatedService service(opts);

  service.crash_hub(0);
  clock.advance_ms(200.0);
  (void)service.heartbeat_once();
  ASSERT_EQ(service.health().state(0), fed::HubHealth::kDown);
  EXPECT_EQ(service.router().weight(0), 0.0);
  EXPECT_EQ(service.hub_epoch(0), 1u);

  service.restart_hub(0);
  EXPECT_EQ(service.hub_epoch(0), 2u);
  // Still masked until the monitor walks it back.
  EXPECT_EQ(service.health().state(0), fed::HubHealth::kDown);

  // First healthy beat: kRejoining, fractional ring weight.
  clock.advance_ms(10.0);
  (void)service.heartbeat_once();
  EXPECT_EQ(service.health().state(0), fed::HubHealth::kRejoining);
  const double ramp = service.router().weight(0);
  EXPECT_GT(ramp, 0.0);
  EXPECT_LT(ramp, 1.0);

  // Remaining beats: back to kUp at full weight.
  for (std::uint32_t beat = 1; beat < fast_monitor().rejoin_beats; ++beat) {
    clock.advance_ms(10.0);
    (void)service.heartbeat_once();
  }
  EXPECT_EQ(service.health().state(0), fed::HubHealth::kUp);
  EXPECT_EQ(service.router().weight(0), 1.0);
  EXPECT_EQ(service.stats().hub_rejoins, 1u);

  // The rebuilt incarnation accepts and completes work.
  auto id = service.submit(quick_job("fresh", "any_design"));
  ASSERT_TRUE(id.ok());
  const auto record = service.wait_for(*id, 10000.0);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->state, hub::JobState::kSucceeded);
}

TEST(FailoverServiceTest, FaultSitesDriveCrashAndHangFromTheProbe) {
  util::FakeClock clock;
  auto opts = chaos_opts(&clock);
  fed::FederatedService service(opts);

  util::FaultInjector fi;
  // Heartbeats probe hubs in index order and a crashed hub's probe
  // short-circuits before the fault sites, so with one crash budget hub 0
  // crashes in round one and the hang rule's first (and only) hit is
  // hub 1's probe in the same round.
  fi.add_rule({.site = "fed.hub.crash", .max_triggers = 1});
  fi.add_rule({.site = "fed.hub.hang", .max_triggers = 1});
  util::FaultInjector::ScopedInstall install(fi);

  clock.advance_ms(10.0);
  (void)service.heartbeat_once();
  EXPECT_EQ(fi.site_stats("fed.hub.crash").triggered, 1u);
  EXPECT_EQ(fi.site_stats("fed.hub.hang").triggered, 1u);

  // Hub 0 is dead (probe short-circuits on the crashed flag); hub 1 is
  // paused but alive — its next clean probe resumes it.
  clock.advance_ms(10.0);
  (void)service.heartbeat_once();
  auto id = service.submit(quick_job("after_chaos", "some_design"));
  ASSERT_TRUE(id.ok());
  const auto record = service.wait_for(*id, 10000.0);
  ASSERT_TRUE(record.ok()) << record.status().to_string();
  EXPECT_EQ(record->state, hub::JobState::kSucceeded);
}

TEST(FailoverServiceTest, WaitForTimesOutWithoutDisturbingTheJob) {
  util::FakeClock clock;
  auto opts = chaos_opts(&clock);
  opts.hub_options.start_paused = true;
  fed::FederatedService service(opts);

  auto id = service.submit(quick_job("slow", "d"));
  ASSERT_TRUE(id.ok());
  const auto timed_out = service.wait_for(*id, 20.0);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), util::ErrorCode::kDeadlineExceeded);

  service.start();
  const auto record = service.wait_for(*id, 10000.0);
  ASSERT_TRUE(record.ok()) << record.status().to_string();
  EXPECT_EQ(record->state, hub::JobState::kSucceeded);
}

TEST(FailoverServiceTest, OrphanedStealRacesConcurrentCancelSafely) {
  util::FakeClock clock;
  auto opts = chaos_opts(&clock);
  opts.hub_options.capacity = 1;
  opts.hub_options.start_paused = true;
  opts.steal_batch = 8;
  fed::FederatedService service(opts);

  std::vector<fed::FedJobId> ids;
  for (int i = 0; i < 8; ++i) {
    auto spec = quick_job("o" + std::to_string(i), "hot_design");
    spec.deadline_ms = 1.0;  // consumed while queued on the paused hub
    auto id = service.submit(std::move(spec));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  // A steal round that orphans (deadline already spent) racing cancels:
  // every job must still reach exactly one terminal state, with no hangs
  // and no double settlement.
  std::thread stealer([&] {
    for (int round = 0; round < 4; ++round) (void)service.rebalance_once();
  });
  std::thread canceller([&] {
    for (const auto id : ids) (void)service.cancel(id);
  });
  stealer.join();
  canceller.join();
  service.start();

  for (const auto id : ids) {
    const auto record = service.wait_for(id, 10000.0);
    ASSERT_TRUE(record.ok()) << record.status().to_string();
    EXPECT_TRUE(record->state == hub::JobState::kTimedOut ||
                record->state == hub::JobState::kCancelled)
        << to_string(record->state);
  }
  const auto s = service.stats();
  EXPECT_EQ(s.completed, 8u);
  EXPECT_EQ(s.duplicate_settlements, 0u);
}

TEST(FailoverServiceTest, EarlyTerminalRaceStressSettlesEverythingOnce) {
  fed::FederatedService::Options opts;
  opts.hubs = 2;
  opts.steal = true;
  opts.steal_interval_ms = 1.0;
  opts.health = true;
  opts.heartbeat_interval_ms = 1.0;
  opts.hub_options.capacity = 4;
  opts.max_commercial_inflight = 4;
  fed::FederatedService service(opts);

  // Instant jobs finish while submit() and the stealer are still placing
  // others, so a terminal racing its own mapping would show here; half are
  // commercial so quota release is exercised under the race too.
  std::vector<fed::FedJobId> ids;
  for (int i = 0; i < 200; ++i) {
    auto spec = quick_job("e" + std::to_string(i), "d" + std::to_string(i % 7));
    if (i % 2 == 0) spec.quality = flow::FlowQuality::kCommercial;
    auto id = service.submit(std::move(spec));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  std::thread canceller([&] {
    for (std::size_t i = 0; i < ids.size(); i += 3) (void)service.cancel(ids[i]);
  });
  for (const auto id : ids) {
    const auto record = service.wait_for(id, 30000.0);
    ASSERT_TRUE(record.ok()) << record.status().to_string();
  }
  canceller.join();
  const auto s = service.stats();
  EXPECT_EQ(s.submitted, 200u);
  EXPECT_EQ(s.completed, 200u);
  EXPECT_EQ(s.duplicate_settlements, 0u);
  EXPECT_EQ(s.commercial_inflight, 0u) << "quota must drain to zero";
}

TEST(FailoverServiceTest, PrometheusExportsRemoteTierAndHealthGauges) {
  util::FakeClock clock;
  auto opts = chaos_opts(&clock);
  fed::FederatedService service(opts);

  auto id = service.submit(quick_job("m0", "metrics_design"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.wait_for(*id, 10000.0).ok());

  const auto prom = service.export_prometheus();
  EXPECT_NE(prom.find("eurochip_fed_remote_fetch_hits"), std::string::npos);
  EXPECT_NE(prom.find("eurochip_fed_remote_publishes"), std::string::npos);
  EXPECT_NE(prom.find("eurochip_fed_remote_bytes"), std::string::npos);
  EXPECT_NE(prom.find("eurochip_fed_hub_health{hub=\"hub-0\"} 0"),
            std::string::npos);
  EXPECT_NE(prom.find("eurochip_fed_hub_epoch{hub=\"hub-1\"} 1"),
            std::string::npos);

  // Health gauge tracks the monitor: crash + detect => 2 (kDown).
  service.crash_hub(0);
  clock.advance_ms(200.0);
  (void)service.heartbeat_once();
  const auto prom2 = service.export_prometheus();
  EXPECT_NE(prom2.find("eurochip_fed_hub_health{hub=\"hub-0\"} 2"),
            std::string::npos);
}

TEST(FailoverServiceTest, BackgroundHeartbeatDetectsACrashByItself) {
  // End-to-end smoke for the real (threaded, system-clock) detection
  // path; the deterministic variants above pin the exact semantics.
  fed::FederatedService::Options opts;
  opts.hubs = 2;
  opts.steal = false;
  opts.health = true;
  opts.heartbeat_interval_ms = 1.0;
  opts.monitor.suspect_after_ms = 5.0;
  opts.monitor.down_after_ms = 15.0;
  opts.hub_options.capacity = 2;
  opts.hub_options.start_paused = true;
  fed::FederatedService service(opts);

  const std::size_t home = home_of(service, "", "bg_design");
  auto id = service.submit(quick_job("bg0", "bg_design"));
  ASSERT_TRUE(id.ok());
  service.crash_hub(home);

  service.start();
  const auto record = service.wait_for(*id, 30000.0);
  ASSERT_TRUE(record.ok()) << record.status().to_string();
  EXPECT_EQ(record->state, hub::JobState::kSucceeded);
  EXPECT_EQ(record->failovers, 1);
  EXPECT_GE(service.stats().hub_down_events, 1u);
}

}  // namespace
}  // namespace eurochip
