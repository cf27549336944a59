// Flow breakpoints end to end: the BreakController rendezvous, JobServer
// park/inspect/resume (deadline suspension, cancellation, gauges, flight
// entries), debug queries racing lifecycle transitions, and the federated
// service keeping parked jobs inspectable across steals and crash failover.
//
// Invariant under test throughout: parking changes WHEN a flow finishes,
// never its artifacts — a parked-and-resumed run lands on the same
// artifact digest as an unparked one.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "eurochip/dbg/debug.hpp"
#include "eurochip/fed/federation.hpp"
#include "eurochip/fed/health.hpp"
#include "eurochip/fed/router.hpp"
#include "eurochip/flow/breakpoint.hpp"
#include "eurochip/flow/flow.hpp"
#include "eurochip/hub/job.hpp"
#include "eurochip/hub/server.hpp"
#include "eurochip/pdk/registry.hpp"
#include "eurochip/rtl/designs.hpp"
#include "eurochip/util/cancel.hpp"
#include "eurochip/util/clock.hpp"

namespace eurochip {
namespace {

flow::FlowConfig open_config(std::uint64_t seed) {
  flow::FlowConfig cfg;
  cfg.node = pdk::standard_node("sky130ish").value();
  cfg.quality = flow::FlowQuality::kOpen;
  cfg.seed = seed;
  return cfg;
}

// --- BreakController rendezvous (no flow, no server) -----------------------

TEST(BreakpointControllerTest, ParkInspectResumeHandshake) {
  flow::BreakController ctrl;
  EXPECT_FALSE(ctrl.parked());
  EXPECT_FALSE(ctrl.wait_parked(5.0));
  EXPECT_FALSE(ctrl.inspect([](const flow::FlowContext&) { FAIL(); }));
  ctrl.resume();  // resume with nobody parked is a no-op, not a lost wakeup

  std::atomic<bool> parked_hook{false};
  std::atomic<double> credited_ms{-1.0};
  util::CancelSource owner;
  ctrl.set_hooks(owner.token(), [&] { parked_hook.store(true); },
                 [&](double ms) { credited_ms.store(ms); });

  flow::FlowContext ctx;
  ctx.config.seed = 42;
  double parked_ms = -1.0;
  std::thread flow_thread([&] {
    parked_ms = ctrl.park(ctx, owner.token());
  });

  ASSERT_TRUE(ctrl.wait_parked(10000.0));
  EXPECT_TRUE(ctrl.parked());
  EXPECT_TRUE(parked_hook.load());
  bool inspected = false;
  EXPECT_TRUE(ctrl.inspect([&](const flow::FlowContext& seen) {
    inspected = true;
    EXPECT_EQ(&seen, &ctx);
    EXPECT_EQ(seen.config.seed, 42u);
  }));
  EXPECT_TRUE(inspected);

  ctrl.resume();
  flow_thread.join();
  EXPECT_GE(parked_ms, 0.0);
  EXPECT_EQ(credited_ms.load(), parked_ms);
  EXPECT_FALSE(ctrl.parked());
}

TEST(BreakpointControllerTest, ExplicitCancelUnparksPromptly) {
  flow::BreakController ctrl;
  util::CancelSource source;
  flow::FlowContext ctx;
  std::thread flow_thread([&] { (void)ctrl.park(ctx, source.token()); });
  ASSERT_TRUE(ctrl.wait_parked(10000.0));
  source.request_cancel();
  flow_thread.join();  // park polls cancellation; this must not hang
  EXPECT_FALSE(ctrl.parked());
}

// --- JobServer park / query / resume ---------------------------------------

TEST(BreakpointServerTest, ParkedJobAnswersWhySlackAndResumesToSameDigest) {
  const auto design =
      std::make_shared<const rtl::Module>(rtl::designs::multiplier(8));
  const auto cfg = open_config(8);

  // Unparked baseline.
  hub::JobServer base({});
  const auto base_id =
      base.submit(hub::make_flow_job("baseline", design, cfg));
  ASSERT_TRUE(base_id.ok());
  const auto base_rec = base.wait(*base_id);
  ASSERT_TRUE(base_rec.ok());
  ASSERT_EQ(base_rec->state, hub::JobState::kSucceeded)
      << base_rec->status.to_string();
  ASSERT_FALSE(base_rec->artifact_digest == util::Digest{});

  // Same flow, parked after sta.
  hub::JobServer srv({});
  auto parked_cfg = cfg;
  parked_cfg.break_after = "sta";
  const auto id =
      srv.submit(hub::make_flow_job("parked", design, parked_cfg));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(srv.wait_parked(*id, 120000.0));
  EXPECT_TRUE(srv.job_parked(*id));
  EXPECT_EQ(srv.parked_count(), 1u);
  EXPECT_EQ(srv.metrics().gauge("jobs_parked"), 1.0);
  EXPECT_NE(srv.metrics().export_prometheus().find("eurochip_jobs_parked"),
            std::string::npos);

  // why_slack on the live parked context: the critical path is visible.
  const auto slack = srv.query(*id, dbg::Query::why_slack());
  ASSERT_TRUE(slack.ok()) << slack.status().to_string();
  ASSERT_TRUE(slack->found) << slack->text;
  EXPECT_TRUE(slack->why_slack.is_critical);
  EXPECT_FALSE(slack->why_slack.path.empty());

  const auto where = srv.query(*id, dbg::Query::where_is("p_q"));
  ASSERT_TRUE(where.ok()) << where.status().to_string();
  ASSERT_TRUE(where->found) << where->text;
  ASSERT_EQ(where->where_is.bits.size(), 16u);
  EXPECT_TRUE(where->where_is.bits[0].placed);
  EXPECT_TRUE(where->where_is.bits[0].routed);

  const auto flight = srv.query(*id, dbg::Query::flight());
  ASSERT_TRUE(flight.ok()) << flight.status().to_string();
  EXPECT_TRUE(flight->found);
  EXPECT_NE(flight->text.find("park"), std::string::npos) << flight->text;

  EXPECT_TRUE(srv.resume(*id));
  const auto rec = srv.wait(*id);
  ASSERT_TRUE(rec.ok());
  ASSERT_EQ(rec->state, hub::JobState::kSucceeded)
      << rec->status.to_string();
  EXPECT_TRUE(rec->artifact_digest == base_rec->artifact_digest)
      << "parking must not change artifacts";
  EXPECT_EQ(srv.parked_count(), 0u);
  EXPECT_EQ(srv.metrics().gauge("jobs_parked"), 0.0);

  bool saw_park = false, saw_resume = false;
  for (const auto& e : rec->flight) {
    if (e.kind == "park") {
      saw_park = true;
      EXPECT_EQ(e.label, "sta");
    }
    if (e.kind == "resume") saw_resume = true;
  }
  EXPECT_TRUE(saw_park);
  EXPECT_TRUE(saw_resume);
  EXPECT_FALSE(hub::render_flight_record(*rec).empty());
}

TEST(BreakpointServerTest, CancelWhileParkedFinalizesAsCancelled) {
  const auto design =
      std::make_shared<const rtl::Module>(rtl::designs::counter(8));
  auto cfg = open_config(3);
  cfg.break_after = "place";
  hub::JobServer srv({});
  const auto id = srv.submit(hub::make_flow_job("doomed", design, cfg));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(srv.wait_parked(*id, 120000.0));
  EXPECT_TRUE(srv.cancel(*id));
  const auto rec = srv.wait(*id);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->state, hub::JobState::kCancelled);
  EXPECT_EQ(srv.parked_count(), 0u);
}

TEST(BreakpointServerTest, HooksNeverWriteATerminalRecord) {
  // Two submissions of one spec share its BreakController. Once the later
  // job is terminal its record is published, so the parked job's resume
  // must not append to it.
  const auto design =
      std::make_shared<const rtl::Module>(rtl::designs::counter(8));
  auto cfg = open_config(3);
  cfg.break_after = "place";
  const hub::JobSpec spec = hub::make_flow_job("parked", design, cfg);
  hub::JobServer::Options opt;
  opt.capacity = 1;
  hub::JobServer srv(opt);
  const auto a = srv.submit(spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(srv.wait_parked(*a, 120000.0));

  hub::JobSpec copy = spec;
  copy.name = "sharer";
  const auto b = srv.submit(std::move(copy));
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(srv.cancel(*b));  // still queued: the one worker is parked
  const auto b_cancelled = srv.wait(*b);
  ASSERT_TRUE(b_cancelled.ok());
  ASSERT_EQ(b_cancelled->state, hub::JobState::kCancelled);

  EXPECT_TRUE(srv.resume(*a));
  const auto a_done = srv.wait(*a);
  ASSERT_TRUE(a_done.ok());
  EXPECT_EQ(a_done->state, hub::JobState::kSucceeded)
      << a_done->status.to_string();
  EXPECT_EQ(srv.parked_count(), 0u);

  const auto b_later = srv.wait(*b);
  ASSERT_TRUE(b_later.ok());
  ASSERT_EQ(b_later->flight.size(), b_cancelled->flight.size())
      << hub::render_flight_record(*b_later);
  for (std::size_t i = 0; i < b_later->flight.size(); ++i) {
    EXPECT_EQ(b_later->flight[i].kind, b_cancelled->flight[i].kind);
  }
}

TEST(BreakpointServerTest, SharedControllerCreditsTheParkedJob) {
  // A parks with a deadline shorter than its park; a copy B that shares
  // A's controller is submitted and cancelled while A waits. A's resume
  // must still credit A's own deadline and land in A's flight record.
  const auto design =
      std::make_shared<const rtl::Module>(rtl::designs::counter(8));
  auto cfg = open_config(3);
  cfg.break_after = "place";
  hub::JobSpec spec = hub::make_flow_job("parked", design, cfg);
  spec.deadline_ms = 1500.0;
  hub::JobServer::Options opt;
  opt.capacity = 1;
  hub::JobServer srv(opt);
  const auto a = srv.submit(spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(srv.wait_parked(*a, 120000.0));

  hub::JobSpec copy = spec;
  copy.name = "sharer";
  const auto b = srv.submit(std::move(copy));
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(srv.cancel(*b));  // still queued: the one worker is parked
  ASSERT_EQ(srv.wait(*b)->state, hub::JobState::kCancelled);

  std::this_thread::sleep_for(std::chrono::milliseconds(2000));
  EXPECT_TRUE(srv.resume(*a));
  const auto rec = srv.wait(*a);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->state, hub::JobState::kSucceeded) << rec->status.to_string();
  std::vector<std::string> kinds;
  for (const hub::FlightEntry& e : rec->flight) {
    if (e.kind == "park" || e.kind == "resume") kinds.push_back(e.kind);
  }
  EXPECT_EQ(kinds, (std::vector<std::string>{"park", "resume"}))
      << hub::render_flight_record(*rec);
}

TEST(BreakpointServerTest, DeadlineClockIsSuspendedWhileParked) {
  const auto design =
      std::make_shared<const rtl::Module>(rtl::designs::counter(6));
  auto cfg = open_config(6);
  cfg.break_after = "synth";
  auto spec = hub::make_flow_job("long-nap", design, cfg);
  // The park below outlives this deadline by seconds; only the suspension
  // credit (CancelSource::extend_deadline_ms on resume) lets the job live.
  spec.deadline_ms = 5000.0;
  hub::JobServer srv({});
  const auto id = srv.submit(std::move(spec));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(srv.wait_parked(*id, 120000.0));
  std::this_thread::sleep_for(std::chrono::milliseconds(6000));
  EXPECT_TRUE(srv.job_parked(*id)) << "deadline must not fire while parked";
  EXPECT_TRUE(srv.resume(*id));
  const auto rec = srv.wait(*id);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->state, hub::JobState::kSucceeded)
      << rec->status.to_string();
}

TEST(BreakpointServerTest, QueriesOnFinishedJobsFallBackToTheCache) {
  const auto design =
      std::make_shared<const rtl::Module>(rtl::designs::counter(7));
  flow::FlowCache cache(flow::FlowCache::Options{.max_bytes = 256u << 20});
  hub::JobServer::Options opt;
  opt.cache = &cache;
  hub::JobServer srv(opt);
  const auto cfg = open_config(7);
  const auto id = srv.submit(hub::make_flow_job("done", design, cfg));
  ASSERT_TRUE(id.ok());
  const auto rec = srv.wait(*id);
  ASSERT_TRUE(rec.ok());
  ASSERT_EQ(rec->state, hub::JobState::kSucceeded);

  // No live parked context anymore: answered from the cache snapshots.
  const auto where = srv.query(*id, dbg::Query::where_is("q"));
  ASSERT_TRUE(where.ok()) << where.status().to_string();
  ASSERT_TRUE(where->found) << where->text;
  EXPECT_EQ(where->where_is.bits.size(), 7u);

  const auto flight = srv.query(*id, dbg::Query::flight());
  ASSERT_TRUE(flight.ok());
  EXPECT_TRUE(flight->found);

  EXPECT_FALSE(srv.query(9999, dbg::Query::flight()).ok());
}

TEST(BreakpointServerTest, SyntheticJobsReportNoDebugInfo) {
  hub::JobServer srv({});
  hub::JobSpec spec;
  spec.name = "synthetic";
  spec.work = [](hub::JobContext&) { return util::Status::Ok(); };
  const auto id = srv.submit(std::move(spec));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(srv.wait(*id).ok());
  // The flight record exists for every job; artifact questions do not.
  EXPECT_TRUE(srv.query(*id, dbg::Query::flight()).ok());
  EXPECT_FALSE(srv.query(*id, dbg::Query::where_is("q")).ok());
}

// --- queries racing lifecycle transitions (TSan target) --------------------

TEST(BreakpointRaceTest, QueriesRaceResumeAndCancel) {
  hub::JobServer::Options opt;
  opt.capacity = 4;
  hub::JobServer srv(opt);

  std::vector<hub::JobId> ids;
  for (int i = 0; i < 4; ++i) {
    auto cfg = open_config(20 + static_cast<std::uint64_t>(i));
    cfg.break_after = "route";
    const auto design = std::make_shared<const rtl::Module>(
        rtl::designs::counter(5 + i));
    const auto id = srv.submit(
        hub::make_flow_job("race" + std::to_string(i), design, cfg));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }

  std::atomic<bool> done{false};
  std::vector<std::thread> queriers;
  for (int t = 0; t < 3; ++t) {
    queriers.emplace_back([&, t] {
      int round = 0;
      while (!done.load(std::memory_order_acquire)) {
        for (const auto id : ids) {
          switch ((round + t) % 3) {
            case 0: (void)srv.query(id, dbg::Query::where_is("q")); break;
            case 1: (void)srv.query(id, dbg::Query::flight()); break;
            default: (void)srv.query(id, dbg::Query::why_slack()); break;
          }
        }
        ++round;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  for (const auto id : ids) ASSERT_TRUE(srv.wait_parked(id, 120000.0));
  EXPECT_EQ(srv.parked_count(), 4u);
  EXPECT_TRUE(srv.resume(ids[0]));
  EXPECT_TRUE(srv.resume(ids[1]));
  EXPECT_TRUE(srv.cancel(ids[2]));
  EXPECT_TRUE(srv.cancel(ids[3]));

  std::vector<hub::JobState> states;
  for (const auto id : ids) {
    const auto rec = srv.wait(id);
    ASSERT_TRUE(rec.ok());
    states.push_back(rec->state);
  }
  done.store(true, std::memory_order_release);
  for (auto& t : queriers) t.join();

  EXPECT_EQ(states[0], hub::JobState::kSucceeded);
  EXPECT_EQ(states[1], hub::JobState::kSucceeded);
  EXPECT_EQ(states[2], hub::JobState::kCancelled);
  EXPECT_EQ(states[3], hub::JobState::kCancelled);
  EXPECT_EQ(srv.parked_count(), 0u);
}

// --- federation ------------------------------------------------------------

fed::HealthMonitor::Options fast_monitor() {
  fed::HealthMonitor::Options opts;
  opts.suspect_after_ms = 50.0;
  opts.down_after_ms = 150.0;
  opts.rejoin_beats = 3;
  return opts;
}

std::size_t home_of(const fed::FederatedService& service,
                    const std::string& node, const std::string& design) {
  return service.router().hub_for(fed::Router::shard_key(node, design));
}

TEST(BreakpointFedTest, ParkQueryResumeAcrossTheFederation) {
  fed::FederatedService::Options opts;
  opts.hubs = 2;
  opts.hub_options.capacity = 2;
  fed::FederatedService service(opts);

  const auto design =
      std::make_shared<const rtl::Module>(rtl::designs::counter(7));
  auto cfg = open_config(71);
  cfg.break_after = "route";
  const auto id =
      service.submit(hub::make_flow_job("fed-park", design, cfg));
  ASSERT_TRUE(id.ok()) << id.status().to_string();

  ASSERT_TRUE(service.wait_parked(*id, 120000.0));
  EXPECT_TRUE(service.job_parked(*id));

  const auto where = service.query(*id, dbg::Query::where_is("q"));
  ASSERT_TRUE(where.ok()) << where.status().to_string();
  ASSERT_TRUE(where->found) << where->text;

  auto flight = service.query(*id, dbg::Query::flight());
  ASSERT_TRUE(flight.ok());
  EXPECT_TRUE(flight->found);
  EXPECT_NE(flight->text.find("park"), std::string::npos);

  EXPECT_TRUE(service.resume(*id));
  const auto rec = service.wait_for(*id, 120000.0);
  ASSERT_TRUE(rec.ok()) << rec.status().to_string();
  EXPECT_EQ(rec->state, hub::JobState::kSucceeded);

  // Settled: the hub may forget, the federation book must not.
  flight = service.query(*id, dbg::Query::flight());
  ASSERT_TRUE(flight.ok()) << flight.status().to_string();
  EXPECT_TRUE(flight->found);
  EXPECT_NE(flight->text.find("park"), std::string::npos);
  EXPECT_NE(flight->text.find("resume"), std::string::npos);

  EXPECT_FALSE(service.query(424242, dbg::Query::flight()).ok());
}

TEST(BreakpointFedTest, StolenQueuedJobsKeepTheirBreakpoints) {
  util::FakeClock clock;
  fed::FederatedService::Options opts;
  opts.hubs = 2;
  opts.steal = false;  // rebalance_once() driven by hand
  opts.health = false;
  opts.clock = &clock;
  opts.monitor = fast_monitor();
  opts.hub_options.capacity = 1;
  opts.hub_options.start_paused = true;
  fed::FederatedService service(opts);

  // Same (node, design) => same home hub: the queue piles up on one side
  // and the rebalancer has something to move.
  const auto design =
      std::make_shared<const rtl::Module>(rtl::designs::counter(6));
  const auto cfg_base = open_config(61);
  const std::size_t home =
      home_of(service, cfg_base.node.name, design->name());
  std::vector<fed::FedJobId> ids;
  for (int i = 0; i < 3; ++i) {
    auto cfg = cfg_base;
    cfg.break_after = "cts";
    const auto id = service.submit(
        hub::make_flow_job("steal" + std::to_string(i), design, cfg));
    ASSERT_TRUE(id.ok()) << id.status().to_string();
    ids.push_back(*id);
  }
  ASSERT_EQ(service.hub(home).queued_count(), 3u);
  EXPECT_GE(service.rebalance_once(), 1u);
  service.start();

  // Jobs park on whichever hub ended up owning them (capacity 1 per hub:
  // later jobs cannot park until an earlier one resumes, so poll).
  std::vector<bool> resumed(ids.size(), false);
  std::size_t remaining = ids.size();
  const auto t0 = std::chrono::steady_clock::now();
  while (remaining > 0) {
    ASSERT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(120));
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (resumed[i] || !service.job_parked(ids[i])) continue;
      const auto flight = service.query(ids[i], dbg::Query::flight());
      ASSERT_TRUE(flight.ok()) << flight.status().to_string();
      EXPECT_NE(flight->text.find("park"), std::string::npos);
      EXPECT_TRUE(service.resume(ids[i]));
      resumed[i] = true;
      --remaining;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  for (const auto id : ids) {
    const auto rec = service.wait_for(id, 120000.0);
    ASSERT_TRUE(rec.ok()) << rec.status().to_string();
    EXPECT_EQ(rec->state, hub::JobState::kSucceeded);
  }
  EXPECT_GE(service.stats().stolen, 1u);
}

TEST(BreakpointFedTest, ParkedJobSurvivesCrashFailoverAndStaysQueryable) {
  util::FakeClock clock;
  fed::FederatedService::Options opts;
  opts.hubs = 2;
  opts.steal = false;
  opts.health = false;  // heartbeat_once() driven by hand
  opts.clock = &clock;
  opts.monitor = fast_monitor();
  opts.hub_options.capacity = 2;
  fed::FederatedService service(opts);

  const auto design =
      std::make_shared<const rtl::Module>(rtl::designs::counter(6));
  auto cfg = open_config(62);

  // Unparked single-server baseline for the digest comparison.
  util::Digest base_digest;
  {
    hub::JobServer base({});
    const auto id = base.submit(hub::make_flow_job("base", design, cfg));
    ASSERT_TRUE(id.ok());
    const auto rec = base.wait(*id);
    ASSERT_TRUE(rec.ok());
    ASSERT_EQ(rec->state, hub::JobState::kSucceeded);
    base_digest = rec->artifact_digest;
  }

  cfg.break_after = "place";
  const auto id =
      service.submit(hub::make_flow_job("unlucky", design, cfg));
  ASSERT_TRUE(id.ok()) << id.status().to_string();
  const std::size_t home = home_of(service, cfg.node.name, design->name());
  ASSERT_TRUE(service.wait_parked(*id, 120000.0));

  // The hub dies mid-park. The park exits through the cancel poll, the
  // terminal is black-holed, and failover re-homes the book-kept spec —
  // breakpoint controller and debug info included.
  service.crash_hub(home);
  clock.advance_ms(200.0);
  ASSERT_GE(service.heartbeat_once(), 2u);

  // The rerun parks again at the same step, on the survivor.
  ASSERT_TRUE(service.wait_parked(*id, 120000.0));
  const auto where = service.query(*id, dbg::Query::where_is("q"));
  ASSERT_TRUE(where.ok()) << where.status().to_string();
  ASSERT_TRUE(where->found) << where->text;
  for (const auto& bit : where->where_is.bits) EXPECT_TRUE(bit.placed);

  EXPECT_TRUE(service.resume(*id));
  const auto rec = service.wait_for(*id, 120000.0);
  ASSERT_TRUE(rec.ok()) << rec.status().to_string();
  EXPECT_EQ(rec->state, hub::JobState::kSucceeded);
  EXPECT_EQ(rec->failovers, 1);
  EXPECT_TRUE(rec->artifact_digest == base_digest)
      << "failover + parking must not change artifacts";
  bool saw_failover = false, saw_park = false;
  for (const auto& e : rec->flight) {
    if (e.kind == "failover") saw_failover = true;
    if (e.kind == "park") saw_park = true;
  }
  EXPECT_TRUE(saw_failover);
  EXPECT_TRUE(saw_park);
}

}  // namespace
}  // namespace eurochip
