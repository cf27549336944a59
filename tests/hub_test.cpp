// Tests for eurochip::hub — the concurrent flow-job execution engine.
//
// The concurrency-sensitive tests (parallel execution, stress) are written
// to run cleanly under ThreadSanitizer; CI builds this binary with
// -fsanitize=thread in a dedicated job.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "eurochip/flow/cache.hpp"
#include "eurochip/hub/job.hpp"
#include "eurochip/hub/metrics.hpp"
#include "eurochip/hub/scheduler.hpp"
#include "eurochip/hub/server.hpp"
#include "eurochip/pdk/registry.hpp"
#include "eurochip/rtl/designs.hpp"

namespace eurochip::hub {
namespace {

using edu::LearnerTier;

void sleep_ms(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// Cancel-aware sleep job: sleeps `ms` in 1 ms slices, checking the token.
JobSpec sleep_job(std::string name, double ms,
                  LearnerTier tier = LearnerTier::kAdvanced,
                  std::size_t member = 0) {
  JobSpec spec;
  spec.name = std::move(name);
  spec.tier = tier;
  spec.member = member;
  spec.work = [ms](JobContext& ctx) -> util::Status {
    const auto end =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(ms));
    while (std::chrono::steady_clock::now() < end) {
      if (ctx.cancel.cancel_requested()) {
        return util::Status::Cancelled("observed cancel");
      }
      if (ctx.cancel.deadline_passed()) {
        return util::Status::DeadlineExceeded("observed deadline");
      }
      sleep_ms(1.0);
    }
    return util::Status::Ok();
  };
  return spec;
}

/// Records completion order under a mutex (for determinism tests).
struct OrderLog {
  std::mutex mu;
  std::vector<std::string> order;
  void add(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(name);
  }
};

JobSpec logging_job(std::string name, OrderLog* log,
                    LearnerTier tier = LearnerTier::kAdvanced,
                    std::size_t member = 0) {
  JobSpec spec;
  spec.name = name;
  spec.tier = tier;
  spec.member = member;
  spec.work = [name, log](JobContext&) -> util::Status {
    log->add(name);
    return util::Status::Ok();
  };
  return spec;
}

// --- MetricsRegistry ------------------------------------------------------

TEST(MetricsTest, CountersAndGauges) {
  MetricsRegistry m;
  EXPECT_EQ(m.counter("x"), 0u);
  m.increment("x");
  m.increment("x", 4);
  EXPECT_EQ(m.counter("x"), 5u);
  m.set_gauge("g", 2.5);
  m.add_gauge("g", 0.5);
  EXPECT_DOUBLE_EQ(m.gauge("g"), 3.0);
}

TEST(MetricsTest, HistogramQuantilesOrderedAndClamped) {
  MetricsRegistry m;
  for (int i = 1; i <= 100; ++i) m.observe("lat", static_cast<double>(i));
  const auto h = m.histogram("lat");
  EXPECT_EQ(h.count, 100u);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 100.0);
  EXPECT_NEAR(h.mean, 50.5, 1e-9);
  EXPECT_LE(h.p50, h.p90);
  EXPECT_LE(h.p90, h.p99);
  EXPECT_GE(h.p50, h.min);
  EXPECT_LE(h.p99, h.max);
}

TEST(MetricsTest, ConcurrentIncrementsAreExact) {
  MetricsRegistry m;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&m] {
      for (int i = 0; i < kPerThread; ++i) {
        m.increment("hits");
        m.observe("obs", 1.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(m.counter("hits"), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(m.histogram("obs").count,
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(MetricsTest, RenderListsEveryMetric) {
  MetricsRegistry m;
  m.increment("jobs_submitted", 3);
  m.set_gauge("running", 1.0);
  m.observe("run_ms", 12.0);
  const std::string text = m.render();
  EXPECT_NE(text.find("jobs_submitted"), std::string::npos);
  EXPECT_NE(text.find("running"), std::string::npos);
  EXPECT_NE(text.find("run_ms"), std::string::npos);
}

TEST(MetricsTest, ObserveClampsInvalidValuesAndCountsThem) {
  MetricsRegistry m;
  m.observe("lat", std::numeric_limits<double>::quiet_NaN());
  m.observe("lat", -5.0);
  m.observe("lat", std::numeric_limits<double>::infinity());
  m.observe("lat", 2.0);
  const auto h = m.histogram("lat");
  EXPECT_EQ(h.count, 4u);  // clamped observations still count
  EXPECT_DOUBLE_EQ(h.min, 0.0);
  EXPECT_DOUBLE_EQ(h.max, 2.0);
  EXPECT_TRUE(std::isfinite(h.sum));
  EXPECT_DOUBLE_EQ(h.sum, 2.0);
  EXPECT_EQ(m.counter("lat.invalid"), 3u);
  EXPECT_EQ(m.counter("other.invalid"), 0u);
}

TEST(MetricsTest, PrometheusExpositionShape) {
  MetricsRegistry m;
  m.increment("jobs_submitted", 3);
  m.set_gauge("queue_depth", 2.0);
  m.observe("run_ms", 12.0);
  m.observe("run_ms", 24.0);
  const std::string text = m.export_prometheus();
  EXPECT_NE(text.find("# TYPE eurochip_jobs_submitted counter\n"
                      "eurochip_jobs_submitted 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE eurochip_queue_depth gauge\n"
                      "eurochip_queue_depth 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE eurochip_run_ms histogram"), std::string::npos);
  EXPECT_NE(text.find("eurochip_run_ms_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("eurochip_run_ms_sum 36\n"), std::string::npos);
  EXPECT_NE(text.find("eurochip_run_ms_count 2\n"), std::string::npos);

  // Internal dotted names sanitize to Prometheus-legal underscores.
  m.increment("step_synth.map_ms.invalid");
  EXPECT_NE(m.export_prometheus().find("eurochip_step_synth_map_ms_invalid 1"),
            std::string::npos);
}

// --- TierScheduler --------------------------------------------------------

TEST(SchedulerTest, DeterministicOrderingAcrossInstances) {
  const auto drive = [] {
    TierScheduler s;
    s.push(1, 0, LearnerTier::kBeginner);
    s.push(2, 1, LearnerTier::kAdvanced);
    s.push(3, 0, LearnerTier::kIntermediate);
    s.push(4, 2, LearnerTier::kAdvanced);
    s.push(5, 1, LearnerTier::kBeginner);
    std::vector<JobId> order;
    while (auto id = s.pop()) order.push_back(*id);
    return order;
  };
  const auto a = drive();
  const auto b = drive();
  EXPECT_EQ(a, b);
  // Strict tier priority: both advanced jobs first, then intermediate,
  // then the beginners.
  ASSERT_EQ(a.size(), 5u);
  EXPECT_EQ(a[0], 2u);
  EXPECT_EQ(a[1], 4u);
  EXPECT_EQ(a[2], 3u);
  EXPECT_EQ(a[3], 1u);
  EXPECT_EQ(a[4], 5u);
}

TEST(SchedulerTest, HigherTierNeverWaitsBehindLowerTierBacklog) {
  TierScheduler s;
  for (JobId id = 1; id <= 50; ++id) {
    s.push(id, static_cast<std::size_t>(id), LearnerTier::kBeginner);
  }
  s.push(99, 0, LearnerTier::kAdvanced);
  EXPECT_EQ(s.pop().value(), 99u);  // jumps the whole backlog
}

TEST(SchedulerTest, AgingPreventsStarvation) {
  SchedulerOptions opt;
  opt.starvation_patience = 3;
  TierScheduler s(opt);
  s.push(1, 100, LearnerTier::kBeginner);
  for (JobId id = 2; id <= 40; ++id) s.push(id, 0, LearnerTier::kAdvanced);
  std::vector<JobId> order;
  while (auto id = s.pop()) order.push_back(*id);
  const auto pos = std::find(order.begin(), order.end(), 1u) - order.begin();
  // Two promotions (beginner -> intermediate -> advanced) at patience 3,
  // then member fairness puts the starving member ahead of the flooder.
  EXPECT_LT(pos, 10);
  EXPECT_EQ(order.size(), 40u);
}

TEST(SchedulerTest, MemberFairnessInterleavesWithinTier) {
  TierScheduler s;
  for (JobId id = 1; id <= 10; ++id) s.push(id, 0, LearnerTier::kAdvanced);
  s.push(11, 1, LearnerTier::kAdvanced);
  s.push(12, 1, LearnerTier::kAdvanced);
  std::vector<JobId> order;
  while (auto id = s.pop()) order.push_back(*id);
  // Member 1's two jobs land within the first four dispatches instead of
  // queueing behind member 0's ten.
  const auto pos11 = std::find(order.begin(), order.end(), 11u) - order.begin();
  const auto pos12 = std::find(order.begin(), order.end(), 12u) - order.begin();
  EXPECT_LT(pos11, 4);
  EXPECT_LT(pos12, 4);
}

TEST(SchedulerTest, RemoveDropsQueuedJob) {
  TierScheduler s;
  s.push(1, 0, LearnerTier::kAdvanced);
  s.push(2, 0, LearnerTier::kAdvanced);
  EXPECT_TRUE(s.remove(1));
  EXPECT_FALSE(s.remove(1));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.pop().value(), 2u);
}

// --- JobServer: scheduling determinism & fairness ------------------------

TEST(JobServerTest, PausedSubmissionExecutesInDeterministicTierOrder) {
  const auto run_once = [] {
    JobServer::Options opt;
    opt.capacity = 1;
    opt.start_paused = true;
    JobServer server(opt);
    OrderLog log;
    (void)server.submit(logging_job("beg0", &log, LearnerTier::kBeginner, 0));
    (void)server.submit(logging_job("adv1", &log, LearnerTier::kAdvanced, 1));
    (void)server.submit(logging_job("int2", &log, LearnerTier::kIntermediate, 2));
    (void)server.submit(logging_job("adv3", &log, LearnerTier::kAdvanced, 3));
    server.start();
    server.drain();
    return log.order;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
  const std::vector<std::string> expected = {"adv1", "adv3", "int2", "beg0"};
  EXPECT_EQ(a, expected);
}

TEST(JobServerTest, AdvancedJobJumpsBeginnerBacklog) {
  JobServer::Options opt;
  opt.capacity = 1;
  opt.start_paused = true;
  JobServer server(opt);
  OrderLog log;
  for (int i = 0; i < 8; ++i) {
    (void)server.submit(logging_job("beg" + std::to_string(i), &log,
                                    LearnerTier::kBeginner,
                                    static_cast<std::size_t>(i)));
  }
  (void)server.submit(logging_job("adv", &log, LearnerTier::kAdvanced, 99));
  server.start();
  server.drain();
  ASSERT_EQ(log.order.size(), 9u);
  EXPECT_EQ(log.order.front(), "adv");
}

// --- JobServer: execution, retries, timeouts, cancellation ---------------

TEST(JobServerTest, TransientFailureRetriesThenSucceeds) {
  JobServer::Options opt;
  opt.capacity = 1;
  JobServer server(opt);
  JobSpec spec;
  spec.name = "flaky";
  spec.max_attempts = 5;
  spec.backoff_base_ms = 1.0;
  spec.backoff_cap_ms = 4.0;
  spec.work = [](JobContext& ctx) -> util::Status {
    if (ctx.attempt < 3) {
      return util::Status::ResourceExhausted("transient congestion");
    }
    return util::Status::Ok();
  };
  const auto id = server.submit(std::move(spec));
  ASSERT_TRUE(id.ok());
  const auto rec = server.wait(*id);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->state, JobState::kSucceeded);
  EXPECT_EQ(rec->attempts, 3);
  EXPECT_EQ(server.metrics().counter("jobs_retried"), 2u);
  EXPECT_EQ(server.metrics().counter("jobs_succeeded"), 1u);
}

TEST(JobServerTest, FlightRecordTellsTheJobsStory) {
  JobServer::Options opt;
  opt.capacity = 1;
  JobServer server(opt);
  JobSpec spec;
  spec.name = "flaky";
  spec.max_attempts = 3;
  spec.backoff_base_ms = 1.0;
  spec.backoff_cap_ms = 2.0;
  spec.work = [](JobContext& ctx) -> util::Status {
    flow::StepRecord step;
    step.name = "synth";
    step.runtime_ms = 0.5;
    ctx.steps.push_back(step);
    if (ctx.attempt < 2) {
      return util::Status::ResourceExhausted("transient congestion");
    }
    return util::Status::Ok();
  };
  const auto id = server.submit(std::move(spec));
  ASSERT_TRUE(id.ok());
  const auto rec = server.wait(*id);
  ASSERT_TRUE(rec.ok());
  ASSERT_EQ(rec->state, JobState::kSucceeded);

  // The record replays the whole story in order: submitted, started on a
  // worker, first attempt (with its step), a retry backoff, the second
  // attempt, and the terminal transition.
  std::vector<std::string> kinds;
  for (const FlightEntry& e : rec->flight) kinds.push_back(e.kind);
  const std::vector<std::string> expected = {"submit", "start",  "attempt",
                                             "step",   "retry",  "attempt",
                                             "step",   "finish"};
  EXPECT_EQ(kinds, expected);
  for (std::size_t i = 1; i < rec->flight.size(); ++i) {
    EXPECT_GE(rec->flight[i].t_ms, 0.0);
  }
  EXPECT_EQ(rec->flight.front().t_ms, 0.0);
  EXPECT_EQ(rec->flight.back().label, "succeeded");

  const std::string text = render_flight_record(*rec);
  EXPECT_NE(text.find("flight record: job " + std::to_string(rec->id)),
            std::string::npos);
  EXPECT_NE(text.find("'flaky' (succeeded, 2 attempts)"), std::string::npos);
  EXPECT_NE(text.find("backoff"), std::string::npos);
  EXPECT_NE(text.find("synth"), std::string::npos);
}

TEST(JobServerTest, NonTransientFailureDoesNotRetry) {
  JobServer server({});
  JobSpec spec;
  spec.name = "bad-args";
  spec.max_attempts = 5;
  spec.work = [](JobContext&) -> util::Status {
    return util::Status::InvalidArgument("never valid");
  };
  const auto id = server.submit(std::move(spec));
  ASSERT_TRUE(id.ok());
  const auto rec = server.wait(*id);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->state, JobState::kFailed);
  EXPECT_EQ(rec->attempts, 1);
  EXPECT_EQ(rec->status.code(), util::ErrorCode::kInvalidArgument);
}

TEST(JobServerTest, RetriesAreBoundedByMaxAttempts) {
  JobServer server({});
  JobSpec spec;
  spec.name = "always-congested";
  spec.max_attempts = 3;
  spec.backoff_base_ms = 1.0;
  spec.backoff_cap_ms = 2.0;
  spec.work = [](JobContext&) -> util::Status {
    return util::Status::ResourceExhausted("still congested");
  };
  const auto id = server.submit(std::move(spec));
  ASSERT_TRUE(id.ok());
  const auto rec = server.wait(*id);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->state, JobState::kFailed);
  EXPECT_EQ(rec->attempts, 3);
  EXPECT_EQ(server.metrics().counter("jobs_retried"), 2u);
}

TEST(JobServerTest, BackoffDelayIsBoundedDeterministicAndGrowing) {
  JobSpec spec;
  spec.backoff_base_ms = 2.0;
  spec.backoff_cap_ms = 50.0;
  util::Rng rng_a(7);
  util::Rng rng_b(7);
  double prev_floor = 0.0;
  for (int attempt = 1; attempt <= 10; ++attempt) {
    const double a = backoff_delay_ms(spec, attempt, rng_a);
    const double b = backoff_delay_ms(spec, attempt, rng_b);
    EXPECT_DOUBLE_EQ(a, b) << "same seed, same schedule";
    const double floor = std::min(50.0, 2.0 * std::pow(2.0, attempt - 1));
    EXPECT_GE(a, floor);
    EXPECT_LE(a, 50.0 * 1.5);
    EXPECT_GE(floor, prev_floor) << "exponential floor is monotone";
    prev_floor = floor;
  }
}

TEST(JobServerTest, RunningJobDeadlineTimesOut) {
  JobServer server({});
  JobSpec spec = sleep_job("slowpoke", 2000.0);
  spec.deadline_ms = 30.0;
  const auto id = server.submit(std::move(spec));
  ASSERT_TRUE(id.ok());
  const auto rec = server.wait(*id);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->state, JobState::kTimedOut);
  EXPECT_EQ(rec->status.code(), util::ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(server.metrics().counter("jobs_timed_out"), 1u);
}

TEST(JobServerTest, QueuedJobDeadlineTimesOutWithoutRunning) {
  JobServer::Options opt;
  opt.capacity = 1;
  JobServer server(opt);
  const auto blocker = server.submit(sleep_job("blocker", 80.0));
  ASSERT_TRUE(blocker.ok());
  JobSpec starved = sleep_job("starved", 1.0);
  starved.deadline_ms = 20.0;  // expires while the blocker holds the worker
  const auto id = server.submit(std::move(starved));
  ASSERT_TRUE(id.ok());
  const auto rec = server.wait(*id);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->state, JobState::kTimedOut);
  EXPECT_EQ(rec->attempts, 0) << "never started";
  EXPECT_LT(rec->start_ms, 0.0);
}

TEST(JobServerTest, CancelRunningJob) {
  JobServer server({});
  const auto id = server.submit(sleep_job("cancel-me", 5000.0));
  ASSERT_TRUE(id.ok());
  sleep_ms(10.0);  // let it start
  EXPECT_TRUE(server.cancel(*id));
  const auto rec = server.wait(*id);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->state, JobState::kCancelled);
  EXPECT_FALSE(server.cancel(*id)) << "already terminal";
}

TEST(JobServerTest, CancelQueuedJob) {
  JobServer::Options opt;
  opt.capacity = 1;
  opt.start_paused = true;
  JobServer server(opt);
  const auto id = server.submit(sleep_job("never-runs", 10.0));
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(server.cancel(*id));
  const auto rec = server.wait(*id);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->state, JobState::kCancelled);
  EXPECT_LT(rec->start_ms, 0.0) << "cancelled before dispatch";
  server.start();
  server.drain();
}

TEST(JobServerTest, SubmitAfterShutdownFails) {
  JobServer server({});
  server.shutdown();
  const auto id = server.submit(sleep_job("late", 1.0));
  EXPECT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), util::ErrorCode::kFailedPrecondition);
}

TEST(JobServerTest, ShutdownDrainsQueuedWork) {
  JobServer::Options opt;
  opt.capacity = 2;
  JobServer server(opt);
  std::vector<JobId> ids;
  for (int i = 0; i < 6; ++i) {
    const auto id = server.submit(sleep_job("j" + std::to_string(i), 5.0));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  server.shutdown(JobServer::DrainMode::kDrain);
  for (const JobId id : ids) {
    const auto rec = server.wait(id);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec->state, JobState::kSucceeded);
  }
}

// --- JobServer: tier gating through the EnablementHub --------------------

TEST(JobServerTest, HubGateRejectsBeginnerOnCommercialNode) {
  core::EnablementHub hub(pdk::standard_registry(), {});
  ASSERT_TRUE(hub.enable_technology("sky130ish").ok());
  ASSERT_TRUE(hub.enable_technology("commercial65").ok());
  core::UniversityProfile uni;
  uni.name = "TU Test";
  const std::size_t member = hub.add_member(uni);

  JobServer::Options opt = JobServer::options_for(hub);
  EXPECT_EQ(opt.capacity, hub.options().job_capacity);
  JobServer server(opt);

  JobSpec gated = sleep_job("beginner-commercial", 1.0,
                            LearnerTier::kBeginner, member);
  gated.node_name = "commercial65";
  const auto rejected = server.submit(std::move(gated));
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), util::ErrorCode::kPermissionDenied);
  EXPECT_EQ(server.metrics().counter("jobs_rejected"), 1u);

  JobSpec open = sleep_job("beginner-open", 1.0, LearnerTier::kBeginner, member);
  open.node_name = "sky130ish";
  const auto accepted = server.submit(std::move(open));
  ASSERT_TRUE(accepted.ok());
  const auto rec = server.wait(*accepted);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->state, JobState::kSucceeded);
}

// --- JobServer: real flows in parallel -----------------------------------

TEST(JobServerTest, ExecutesRealFlowsConcurrently) {
  JobServer::Options opt;
  opt.capacity = 4;
  JobServer server(opt);

  flow::FlowConfig cfg;
  cfg.node = pdk::standard_node("sky130ish").value();
  cfg.quality = flow::FlowQuality::kOpen;

  const auto counter =
      std::make_shared<const rtl::Module>(rtl::designs::counter(4));
  const auto adder = std::make_shared<const rtl::Module>(rtl::designs::adder(4));
  std::vector<JobId> ids;
  for (int i = 0; i < 4; ++i) {
    auto spec = make_flow_job("flow" + std::to_string(i),
                              i % 2 == 0 ? counter : adder, cfg);
    const auto id = server.submit(std::move(spec));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  const auto records = server.drain();
  ASSERT_EQ(records.size(), 4u);
  for (const auto& rec : records) {
    EXPECT_EQ(rec.state, JobState::kSucceeded) << rec.status.to_string();
    EXPECT_FALSE(rec.steps.empty());
    EXPECT_GT(rec.ppa.cell_count, 0u);
    EXPECT_GT(rec.run_ms, 0.0);
  }
  // Per-step durations were harvested into the metrics registry.
  EXPECT_EQ(server.metrics().histogram("step_place_ms").count, 4u);
  EXPECT_EQ(server.metrics().histogram("run_ms").count, 4u);
}

TEST(JobServerTest, StepHistogramsObserveOnlyExecutedSteps) {
  flow::FlowCache cache;
  JobServer::Options opt;
  opt.capacity = 1;
  opt.cache = &cache;
  JobServer server(opt);
  flow::FlowConfig cfg;
  cfg.node = pdk::standard_node("sky130ish").value();
  const auto design =
      std::make_shared<const rtl::Module>(rtl::designs::counter(4));
  for (const std::string name : {"cold", "warm"}) {
    const auto id = server.submit(make_flow_job(name, design, cfg));
    ASSERT_TRUE(id.ok());
    const auto rec = server.wait(*id);
    ASSERT_TRUE(rec.ok());
    ASSERT_EQ(rec->state, JobState::kSucceeded) << rec->status.to_string();
  }
  // The warm job restored every step. Its records carry the cold run's
  // runtimes, which are not observations of the warm job.
  EXPECT_EQ(server.metrics().histogram("step_place_ms").count, 1u);
  EXPECT_EQ(server.metrics().histogram("run_ms").count, 2u);
}

TEST(JobServerTest, FlowJobDeadlineCancelsBetweenSteps) {
  JobServer server({});
  flow::FlowConfig cfg;
  cfg.node = pdk::standard_node("sky130ish").value();
  auto spec = make_flow_job(
      "doomed", std::make_shared<const rtl::Module>(rtl::designs::alu(8)), cfg);
  spec.deadline_ms = 1.0;  // expires almost immediately
  const auto id = server.submit(std::move(spec));
  ASSERT_TRUE(id.ok());
  const auto rec = server.wait(*id);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->state, JobState::kTimedOut);
}

// --- JobServer: parallel overlap + measured queue report ------------------

TEST(JobServerTest, MeasuredQueueReportMatchesRecords) {
  JobServer::Options opt;
  opt.capacity = 2;
  JobServer server(opt);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(server.submit(sleep_job("s" + std::to_string(i), 10.0)).ok());
  }
  const auto records = server.drain();
  const auto report = server.measured_queue_report();
  ASSERT_EQ(report.outcomes.size(), 6u);
  EXPECT_GT(report.makespan_h, 0.0);
  EXPECT_GT(report.utilization, 0.0);
  EXPECT_LE(report.utilization, 1.0 + 1e-9);
  double max_finish = 0.0;
  for (const auto& rec : records) {
    max_finish = std::max(max_finish, rec.finish_ms);
  }
  EXPECT_NEAR(report.makespan_h, max_finish, 1.0);
}

TEST(JobServerTest, SleepJobsOverlapAcrossWorkers) {
  // Sleep jobs parallelize even on one core, so this asserts genuine
  // concurrency: peak in-flight > 1 and wall time well under the serial sum.
  JobServer::Options opt;
  opt.capacity = 4;
  JobServer server(opt);
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  for (int i = 0; i < 8; ++i) {
    JobSpec spec;
    spec.name = "p" + std::to_string(i);
    spec.work = [&in_flight, &peak](JobContext&) -> util::Status {
      const int now = in_flight.fetch_add(1) + 1;
      int expected = peak.load();
      while (expected < now && !peak.compare_exchange_weak(expected, now)) {
      }
      sleep_ms(30.0);
      in_flight.fetch_sub(1);
      return util::Status::Ok();
    };
    ASSERT_TRUE(server.submit(std::move(spec)).ok());
  }
  server.drain();
  EXPECT_GT(peak.load(), 1) << "jobs never overlapped";
  const auto report = server.measured_queue_report();
  // 8 x 30 ms serially = 240 ms; four workers should land well under that.
  EXPECT_LT(report.makespan_h, 200.0);
}

// --- Stress: >= 4x capacity, mixed outcomes, TSan-clean -------------------

TEST(JobServerStressTest, FourTimesCapacityMixedJobsAllReachTerminalStates) {
  JobServer::Options opt;
  opt.capacity = 4;
  opt.seed = 42;
  JobServer server(opt);
  constexpr int kJobs = 32;  // 8x capacity

  std::vector<JobId> ids;
  std::vector<JobId> cancel_targets;
  for (int i = 0; i < kJobs; ++i) {
    JobSpec spec;
    const auto tier = static_cast<LearnerTier>(i % 3);
    switch (i % 4) {
      case 0:
        spec = sleep_job("ok" + std::to_string(i), 3.0, tier,
                         static_cast<std::size_t>(i % 5));
        break;
      case 1: {
        spec.name = "flaky" + std::to_string(i);
        spec.tier = tier;
        spec.member = static_cast<std::size_t>(i % 5);
        spec.max_attempts = 3;
        spec.backoff_base_ms = 1.0;
        spec.backoff_cap_ms = 2.0;
        spec.work = [](JobContext& ctx) -> util::Status {
          if (ctx.attempt < 2) {
            return util::Status::ResourceExhausted("transient");
          }
          return util::Status::Ok();
        };
        break;
      }
      case 2: {
        spec = sleep_job("deadline" + std::to_string(i), 50.0, tier,
                         static_cast<std::size_t>(i % 5));
        spec.deadline_ms = 10.0;
        break;
      }
      case 3:
        spec = sleep_job("cancel" + std::to_string(i), 40.0, tier,
                         static_cast<std::size_t>(i % 5));
        break;
    }
    const auto id = server.submit(std::move(spec));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
    if (i % 4 == 3) cancel_targets.push_back(*id);
  }
  // Cancel the designated jobs from a separate thread while work is live.
  std::thread canceller([&server, &cancel_targets] {
    for (const JobId id : cancel_targets) (void)server.cancel(id);
  });
  canceller.join();

  const auto records = server.drain();
  ASSERT_EQ(records.size(), static_cast<std::size_t>(kJobs));
  int succeeded = 0, failed = 0, cancelled = 0, timed_out = 0;
  for (const auto& rec : records) {
    ASSERT_TRUE(is_terminal(rec.state)) << to_string(rec.state);
    switch (rec.state) {
      case JobState::kSucceeded: ++succeeded; break;
      case JobState::kFailed: ++failed; break;
      case JobState::kCancelled: ++cancelled; break;
      case JobState::kTimedOut: ++timed_out; break;
      default: break;
    }
  }
  EXPECT_EQ(succeeded + failed + cancelled + timed_out, kJobs);
  EXPECT_EQ(failed, 0);
  EXPECT_GE(succeeded, kJobs / 2);
  EXPECT_GT(timed_out, 0);
  const auto& metrics = server.metrics();
  EXPECT_EQ(metrics.counter("jobs_submitted"),
            static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(metrics.counter("jobs_succeeded") + metrics.counter("jobs_failed") +
                metrics.counter("jobs_cancelled") +
                metrics.counter("jobs_timed_out"),
            static_cast<std::uint64_t>(kJobs));
}

// --- Simulated vs measured bridge ----------------------------------------

TEST(QueueReportBridgeTest, SummarizeOutcomesMatchesSimulateQueue) {
  core::EnablementHub::Options opt;
  opt.job_capacity = 2;
  core::EnablementHub hub(pdk::standard_registry(), opt);
  std::vector<core::EnablementHub::Job> jobs = {
      {0, 0.0, 2.0}, {1, 0.0, 2.0}, {2, 1.0, 1.0}};
  const auto rep = hub.simulate_queue(jobs);
  // Re-summarizing the simulated outcomes reproduces the same report —
  // the shared arithmetic the measured path uses.
  const auto resum = core::EnablementHub::summarize_outcomes(
      jobs, rep.outcomes, opt.job_capacity);
  EXPECT_DOUBLE_EQ(resum.mean_wait_h, rep.mean_wait_h);
  EXPECT_DOUBLE_EQ(resum.max_wait_h, rep.max_wait_h);
  EXPECT_DOUBLE_EQ(resum.makespan_h, rep.makespan_h);
  EXPECT_DOUBLE_EQ(resum.utilization, rep.utilization);
}

}  // namespace
}  // namespace eurochip::hub
