// Federated multi-hub service (fed::): consistent-hash routing, the shared
// remote cache tier (including fault-injected network degradation), global
// commercial quotas, and cross-hub work stealing — with the determinism
// contract (identical artifact digests wherever a job runs) checked
// throughout.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "eurochip/fed/federation.hpp"
#include "eurochip/fed/remote_cache.hpp"
#include "eurochip/fed/router.hpp"
#include "eurochip/flow/cache.hpp"
#include "eurochip/flow/fingerprint.hpp"
#include "eurochip/flow/flow.hpp"
#include "eurochip/hub/job.hpp"
#include "eurochip/pdk/registry.hpp"
#include "eurochip/rtl/designs.hpp"
#include "eurochip/util/fault.hpp"

namespace eurochip {
namespace {

flow::FlowConfig open_config(std::uint64_t seed) {
  flow::FlowConfig cfg;
  cfg.node = pdk::standard_node("sky130ish").value();
  cfg.quality = flow::FlowQuality::kOpen;
  cfg.seed = seed;
  return cfg;
}

// --- router -------------------------------------------------------------

TEST(FederationRouterTest, RoutingIsDeterministic) {
  fed::Router a(4), b(4);
  for (int i = 0; i < 100; ++i) {
    const auto key =
        fed::Router::shard_key("node" + std::to_string(i % 3),
                               "design" + std::to_string(i));
    EXPECT_EQ(a.hub_for(key), b.hub_for(key));
    EXPECT_LT(a.hub_for(key), 4u);
  }
}

TEST(FederationRouterTest, KeysSpreadAcrossHubs) {
  fed::Router r(4);
  std::vector<int> per_hub(4, 0);
  for (int i = 0; i < 400; ++i) {
    ++per_hub[r.hub_for(
        fed::Router::shard_key("open90", "design" + std::to_string(i)))];
  }
  for (int h = 0; h < 4; ++h) {
    EXPECT_GT(per_hub[h], 0) << "hub " << h << " owns no keys";
  }
}

TEST(FederationRouterTest, AddingAHubRemapsOnlyAFraction) {
  fed::Router r4(4), r5(5);
  int moved = 0;
  const int kKeys = 1000;
  for (int i = 0; i < kKeys; ++i) {
    const auto key =
        fed::Router::shard_key("open90", "design" + std::to_string(i));
    if (r4.hub_for(key) != r5.hub_for(key)) ++moved;
  }
  // Consistent hashing: growing 4 -> 5 hubs should remap ~1/5 of keys,
  // not reshuffle everything (naive modulo would move ~80%).
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, kKeys * 35 / 100);
}

// --- remote cache tier --------------------------------------------------

TEST(FederationRemoteCacheTest, PublishFetchRoundTrip) {
  fed::RemoteCache remote;
  const std::vector<std::uint8_t> blob{1, 2, 3, 4, 5};
  util::Hasher h;
  h.str("key");
  const auto key = h.finalize();

  std::vector<std::uint8_t> out;
  EXPECT_FALSE(remote.fetch(key, &out));
  remote.publish(key, blob);
  EXPECT_TRUE(remote.contains(key));
  ASSERT_TRUE(remote.fetch(key, &out));
  EXPECT_EQ(out, blob);

  const auto s = remote.stats();
  EXPECT_EQ(s.publishes, 1u);
  EXPECT_EQ(s.fetch_hits, 1u);
  EXPECT_EQ(s.fetch_misses, 1u);
  EXPECT_EQ(s.bytes, blob.size());
}

TEST(FederationRemoteCacheTest, EvictsLeastRecentlyUsed) {
  fed::RemoteCache::Options opts;
  opts.max_bytes = 256;
  fed::RemoteCache remote(opts);
  const std::vector<std::uint8_t> blob(100, 0xAB);
  auto key = [](int i) {
    util::Hasher h;
    h.str("k").u64(static_cast<std::uint64_t>(i));
    return h.finalize();
  };
  remote.publish(key(0), blob);
  remote.publish(key(1), blob);
  // Touch key 0 so key 1 is the LRU victim when key 2 overflows the budget.
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(remote.fetch(key(0), &out));
  remote.publish(key(2), blob);
  EXPECT_TRUE(remote.contains(key(0)));
  EXPECT_FALSE(remote.contains(key(1)));
  EXPECT_TRUE(remote.contains(key(2)));
  EXPECT_EQ(remote.stats().evictions, 1u);
}

TEST(FederationRemoteCacheTest, ChargesTheNetworkCostModel) {
  fed::RemoteCache::Options opts;
  opts.latency_ms = 1.0;
  opts.bandwidth_mb_per_s = 1.0;  // 1000 bytes/ms
  fed::RemoteCache remote(opts);
  const std::vector<std::uint8_t> blob(2000, 7);
  util::Hasher h;
  h.str("cost");
  const auto key = h.finalize();
  remote.publish(key, blob);  // 1 + 2000/1000 = 3 ms
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(remote.fetch(key, &out));  // another 3 ms
  EXPECT_NEAR(remote.stats().simulated_network_ms, 6.0, 1e-9);
}

TEST(FederationRemoteCacheTest, FaultSitesDegradeToMissAndDrop) {
  fed::RemoteCache remote;
  const std::vector<std::uint8_t> blob{9, 9, 9};
  util::Hasher h;
  h.str("faulty");
  const auto key = h.finalize();
  remote.publish(key, blob);

  util::FaultInjector fi;
  fi.add_rule({.site = "fed.remote.fetch",
               .kind = util::FaultKind::kErrorStatus});
  fi.add_rule({.site = "fed.remote.publish",
               .kind = util::FaultKind::kErrorStatus});
  util::FaultInjector::ScopedInstall install(fi);

  std::vector<std::uint8_t> out;
  EXPECT_FALSE(remote.fetch(key, &out));  // unreachable tier = miss
  util::Hasher h2;
  h2.str("dropped");
  remote.publish(h2.finalize(), blob);  // dropped on the floor
  EXPECT_FALSE(remote.contains(h2.finalize()));
}

// --- L1 + L2 cache stack ------------------------------------------------

TEST(FederationCacheStackTest, SecondHubResumesFromRemoteTier) {
  fed::RemoteCache remote;
  const auto design = rtl::designs::counter(6);

  flow::FlowCache a(flow::FlowCache::Options{.max_bytes = 64u << 20,
                                             .second_level = &remote});
  auto cfg = open_config(21);
  cfg.cache = &a;
  const auto first = flow::run_reference_flow(design, cfg);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  EXPECT_EQ(first->cache_hits, 0u);
  EXPECT_GT(remote.stats().publishes, 0u) << "stores must publish to L2";

  // A different hub: cold L1, same shared remote tier.
  flow::FlowCache b(flow::FlowCache::Options{.max_bytes = 64u << 20,
                                             .second_level = &remote});
  cfg.cache = &b;
  const auto second = flow::run_reference_flow(design, cfg);
  ASSERT_TRUE(second.ok()) << second.status().to_string();
  EXPECT_GT(second->cache_hits, 0u);
  EXPECT_GT(b.stats().remote_hits, 0u);
  EXPECT_EQ(flow::digest_of(*second->artifacts.routed),
            flow::digest_of(*first->artifacts.routed));
  EXPECT_EQ(second->artifacts.gds_bytes, first->artifacts.gds_bytes);
}

TEST(FederationCacheStackTest, CorruptRemoteBytesAreRejectedNotTrusted) {
  fed::RemoteCache remote;
  const auto design = rtl::designs::counter(6);

  flow::FlowCache a(flow::FlowCache::Options{.max_bytes = 64u << 20,
                                             .second_level = &remote});
  auto cfg = open_config(22);
  cfg.cache = &a;
  const auto first = flow::run_reference_flow(design, cfg);
  ASSERT_TRUE(first.ok()) << first.status().to_string();

  util::FaultInjector fi;
  fi.add_rule({.site = "fed.remote.corrupt",
               .kind = util::FaultKind::kErrorStatus});
  util::FaultInjector::ScopedInstall install(fi);

  flow::FlowCache b(flow::FlowCache::Options{.max_bytes = 64u << 20,
                                             .second_level = &remote});
  cfg.cache = &b;
  const auto second = flow::run_reference_flow(design, cfg);
  ASSERT_TRUE(second.ok()) << second.status().to_string();
  // Every fetched blob arrived corrupted: the digest trailer rejects it,
  // the run recomputes from scratch, and the result is still correct.
  EXPECT_GT(b.stats().remote_errors, 0u);
  EXPECT_EQ(b.stats().remote_hits, 0u);
  EXPECT_EQ(flow::digest_of(*second->artifacts.routed),
            flow::digest_of(*first->artifacts.routed));
}

/// The hub's artifact identity (hub::make_flow_job): mapped, placed and
/// routed digests plus the GDS stream.
util::Digest artifact_digest(const flow::FlowArtifacts& a) {
  util::Hasher h;
  h.digest(flow::digest_of(*a.mapped));
  h.digest(flow::digest_of(*a.placed));
  h.digest(flow::digest_of(*a.routed));
  h.bytes(a.gds_bytes.data(), a.gds_bytes.size());
  return h.finalize();
}

/// The reference template's step keys for (design, cfg).
std::vector<util::Digest> step_keys(const rtl::Module& design,
                                    const flow::FlowConfig& cfg) {
  std::vector<util::Digest> keys;
  std::vector<bool> keyable;
  flow::reference_template().step_keys(design, cfg, &keys, &keyable);
  return keys;
}

TEST(FederationCacheStackTest, PowerVariantPublishesOnlyWhatItComputed) {
  fed::RemoteCache remote;
  const auto design = rtl::designs::counter(6);
  flow::FlowCache a(flow::FlowCache::Options{.max_bytes = 64u << 20,
                                             .second_level = &remote});
  auto cfg = open_config(24);
  cfg.cache = &a;
  const auto base = flow::run_reference_flow(design, cfg);
  ASSERT_TRUE(base.ok()) << base.status().to_string();
  // One full run on the wire: every step's entry.
  const std::uint64_t full = remote.stats().bytes_published;
  ASSERT_EQ(remote.stats().publishes, base->steps.size());

  // A power-only variant reruns power alone on the base's artifacts: it
  // publishes one entry, holding the power report and power's record.
  auto variant_cfg = cfg;
  power::PowerOptions po;
  po.clock_mhz = 250.0;
  variant_cfg.power_options = po;
  const std::uint64_t before = remote.stats().bytes_published;
  const std::uint64_t publishes = remote.stats().publishes;
  const auto variant = flow::run_reference_flow(design, variant_cfg);
  ASSERT_TRUE(variant.ok()) << variant.status().to_string();
  EXPECT_EQ(variant->cache_hits, 11u);
  EXPECT_NE(variant->ppa.power_uw, base->ppa.power_uw);
  EXPECT_EQ(remote.stats().publishes - publishes, 1u);
  EXPECT_LE(remote.stats().bytes_published - before, full / 100);

  // A second hub with a cold L1 restores the variant from the tier alone.
  flow::FlowCache b(flow::FlowCache::Options{.max_bytes = 64u << 20,
                                             .second_level = &remote});
  variant_cfg.cache = &b;
  const auto restored = flow::run_reference_flow(design, variant_cfg);
  ASSERT_TRUE(restored.ok()) << restored.status().to_string();
  EXPECT_EQ(restored->cache_hits, restored->steps.size());
  EXPECT_EQ(b.stats().remote_hits, restored->steps.size());
  EXPECT_EQ(artifact_digest(restored->artifacts),
            artifact_digest(variant->artifacts));
  EXPECT_EQ(restored->ppa.power_uw, variant->ppa.power_uw);
}

/// A tier that hands out tampered copies of one stored value.
class TamperingTier : public flow::CacheTier {
 public:
  explicit TamperingTier(fed::RemoteCache& inner) : inner_(inner) {}

  bool fetch(const util::Digest& key,
             std::vector<std::uint8_t>* out) override {
    if (!inner_.fetch(key, out)) return false;
    if (tamper && key == target) tamper(*out);
    return true;
  }
  void publish(const util::Digest& key,
               const std::vector<std::uint8_t>& bytes) override {
    inner_.publish(key, bytes);
  }
  bool contains(const util::Digest& key) const override {
    return inner_.contains(key);
  }

  util::Digest target;
  std::function<void(std::vector<std::uint8_t>&)> tamper;

 private:
  fed::RemoteCache& inner_;
};

TEST(FederationCacheStackTest, TamperedEntriesAreRemoteErrors) {
  fed::RemoteCache remote;
  const auto design = rtl::designs::counter(6);
  flow::FlowCache a(flow::FlowCache::Options{.max_bytes = 64u << 20,
                                             .second_level = &remote});
  auto cfg = open_config(25);
  cfg.cache = &a;
  const auto base = flow::run_reference_flow(design, cfg);
  ASSERT_TRUE(base.ok()) << base.status().to_string();
  const std::vector<util::Digest> keys = step_keys(design, cfg);
  ASSERT_EQ(keys.size(), 12u);

  TamperingTier tier(remote);
  // Each tampered lookup must count one remote error and one miss. It
  // decodes against the base run's artifacts, so every upstream artifact
  // an entry points into is there.
  const auto expect_rejected = [&](const util::Digest& key,
                                   const std::string& what) {
    flow::FlowCache b(flow::FlowCache::Options{.max_bytes = 64u << 20,
                                               .second_level = &tier});
    flow::FlowContext ctx;
    ctx.artifacts = base->artifacts;
    EXPECT_FALSE(b.lookup(key, ctx)) << what;
    EXPECT_EQ(b.stats().remote_errors, 1u) << what;
    EXPECT_EQ(b.stats().misses, 1u) << what;
  };
  for (std::size_t step = 0; step < keys.size(); ++step) {
    const util::Digest& key = keys[step];
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(remote.fetch(key, &bytes));
    tier.target = key;
    const std::size_t stride = bytes.size() / 31 + 1;
    for (std::size_t pos = 0; pos < bytes.size(); pos += stride) {
      tier.tamper = [pos](std::vector<std::uint8_t>& b) { b[pos] ^= 0x5Au; };
      expect_rejected(key, "flip at " + std::to_string(pos) + " of step " +
                               std::to_string(step));
      tier.tamper = [pos](std::vector<std::uint8_t>& b) { b.resize(pos); };
      expect_rejected(key, "prefix of " + std::to_string(pos) +
                               " of step " + std::to_string(step));
    }
    // Another step's entry served under this step's key.
    for (std::size_t other = 0; other < keys.size(); ++other) {
      if (other == step) continue;
      std::vector<std::uint8_t> swapped;
      ASSERT_TRUE(remote.fetch(keys[other], &swapped));
      tier.tamper = [swapped](std::vector<std::uint8_t>& b) { b = swapped; };
      expect_rejected(key, "step " + std::to_string(other) + " served as " +
                               std::to_string(step));
    }
    // A whole run over the tampered tier executes that step, restores the
    // other eleven, and returns the same artifacts.
    tier.tamper = [](std::vector<std::uint8_t>& b) { b[b.size() / 2] ^= 0x5Au; };
    flow::FlowCache c(flow::FlowCache::Options{.max_bytes = 64u << 20,
                                               .second_level = &tier});
    auto run_cfg = cfg;
    run_cfg.cache = &c;
    const auto run = flow::run_reference_flow(design, run_cfg);
    ASSERT_TRUE(run.ok()) << run.status().to_string();
    EXPECT_EQ(c.stats().remote_errors, 1u) << "step " << step;
    EXPECT_EQ(run->cache_hits, keys.size() - 1) << "step " << step;
    EXPECT_FALSE(run->steps[step].cached) << "step " << step;
    EXPECT_EQ(artifact_digest(run->artifacts), artifact_digest(base->artifacts))
        << "step " << step;
  }

  // Untampered, the same tier restores every step.
  tier.tamper = nullptr;
  flow::FlowCache b(flow::FlowCache::Options{.max_bytes = 64u << 20,
                                             .second_level = &tier});
  flow::FlowContext ctx;
  for (const util::Digest& key : keys) EXPECT_TRUE(b.lookup(key, ctx));
  EXPECT_EQ(b.stats().remote_hits, keys.size());
  EXPECT_EQ(b.stats().remote_errors, 0u);
}

TEST(FederationCacheStackTest, RemoteFaultsDegradeTheStackGracefully) {
  fed::RemoteCache remote;
  const auto design = rtl::designs::counter(6);
  util::FaultInjector fi;
  fi.add_rule({.site = "fed.remote.fetch",
               .kind = util::FaultKind::kErrorStatus,
               .probability = 0.5});
  fi.add_rule({.site = "fed.remote.publish",
               .kind = util::FaultKind::kErrorStatus,
               .probability = 0.5});
  util::FaultInjector::ScopedInstall install(fi);

  flow::FlowCache a(flow::FlowCache::Options{.max_bytes = 64u << 20,
                                             .second_level = &remote});
  auto cfg = open_config(23);
  cfg.cache = &a;
  const auto first = flow::run_reference_flow(design, cfg);
  ASSERT_TRUE(first.ok()) << first.status().to_string();

  flow::FlowCache b(flow::FlowCache::Options{.max_bytes = 64u << 20,
                                             .second_level = &remote});
  cfg.cache = &b;
  const auto second = flow::run_reference_flow(design, cfg);
  ASSERT_TRUE(second.ok()) << second.status().to_string();
  EXPECT_EQ(flow::digest_of(*second->artifacts.routed),
            flow::digest_of(*first->artifacts.routed));
}

// --- federated service --------------------------------------------------

hub::JobSpec quick_job(const std::string& name, const std::string& design,
                       double sleep_ms = 0.0) {
  hub::JobSpec spec;
  spec.name = name;
  spec.design_name = design;
  spec.work = [sleep_ms](hub::JobContext&) {
    if (sleep_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(sleep_ms));
    }
    return util::Status::Ok();
  };
  return spec;
}

TEST(FederationServiceTest, RoutesRunsAndAggregates) {
  fed::FederatedService::Options opts;
  opts.hubs = 2;
  opts.hub_options.capacity = 2;
  opts.steal = false;
  fed::FederatedService service(opts);

  std::vector<fed::FedJobId> ids;
  for (int i = 0; i < 12; ++i) {
    auto id = service.submit(
        quick_job("job" + std::to_string(i), "design" + std::to_string(i % 5)));
    ASSERT_TRUE(id.ok()) << id.status().to_string();
    ids.push_back(*id);
  }
  const auto records = service.drain();
  EXPECT_EQ(records.size(), 12u);
  for (const auto& r : records) {
    EXPECT_EQ(r.state, hub::JobState::kSucceeded) << r.name;
  }
  const auto s = service.stats();
  EXPECT_EQ(s.submitted, 12u);
  EXPECT_EQ(s.completed, 12u);

  const auto prom = service.export_prometheus();
  EXPECT_NE(prom.find("hub=\"hub-0\""), std::string::npos);
  EXPECT_NE(prom.find("hub=\"hub-1\""), std::string::npos);
}

TEST(FederationServiceTest, SameDesignAlwaysLandsOnOneHub) {
  fed::FederatedService::Options opts;
  opts.hubs = 4;
  opts.hub_options.start_paused = true;
  opts.steal = false;
  fed::FederatedService service(opts);

  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        service.submit(quick_job("j" + std::to_string(i), "one_design")).ok());
  }
  std::size_t owners = 0;
  for (std::size_t h = 0; h < service.num_hubs(); ++h) {
    if (service.hub(h).queued_count() > 0) ++owners;
  }
  EXPECT_EQ(owners, 1u) << "sharding must keep one design on one hub";
  service.start();
  (void)service.drain();
}

TEST(FederationServiceTest, GlobalCommercialQuotaDegrades) {
  fed::FederatedService::Options opts;
  opts.hubs = 2;
  opts.hub_options.start_paused = true;
  opts.steal = false;
  opts.max_commercial_inflight = 2;
  opts.quota_degrade = true;
  fed::FederatedService service(opts);

  std::vector<fed::FedJobId> ids;
  for (int i = 0; i < 5; ++i) {
    auto spec = quick_job("c" + std::to_string(i), "d" + std::to_string(i));
    spec.quality = flow::FlowQuality::kCommercial;
    auto id = service.submit(std::move(spec));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  {
    const auto s = service.stats();
    EXPECT_EQ(s.commercial_inflight, 2u);
    EXPECT_EQ(s.quota_degraded, 3u);
    EXPECT_EQ(s.quota_rejected, 0u);
  }
  service.start();
  const auto records = service.drain();
  ASSERT_EQ(records.size(), 5u);
  int degraded = 0;
  for (const auto& r : records) {
    EXPECT_EQ(r.state, hub::JobState::kSucceeded);
    if (r.degraded) ++degraded;
  }
  EXPECT_EQ(degraded, 3);
  // Terminal jobs release their quota charge.
  EXPECT_EQ(service.stats().commercial_inflight, 0u);
}

TEST(FederationServiceTest, GlobalCommercialQuotaRejects) {
  fed::FederatedService::Options opts;
  opts.hubs = 2;
  opts.hub_options.start_paused = true;
  opts.steal = false;
  opts.max_commercial_inflight = 1;
  opts.quota_degrade = false;
  fed::FederatedService service(opts);

  auto first = quick_job("c0", "d0");
  first.quality = flow::FlowQuality::kCommercial;
  ASSERT_TRUE(service.submit(std::move(first)).ok());

  auto second = quick_job("c1", "d1");
  second.quality = flow::FlowQuality::kCommercial;
  const auto rejected = service.submit(std::move(second));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), util::ErrorCode::kResourceExhausted);

  // Open-effort work is never quota-gated.
  ASSERT_TRUE(service.submit(quick_job("open", "d2")).ok());
  EXPECT_EQ(service.stats().quota_rejected, 1u);
  service.start();
  (void)service.drain();
}

TEST(FederationServiceTest, RebalanceMovesQueuedWorkToIdlePeers) {
  fed::FederatedService::Options opts;
  opts.hubs = 2;
  opts.hub_options.capacity = 2;
  opts.hub_options.start_paused = true;
  opts.steal = false;  // drive rebalance_once by hand
  opts.steal_batch = 8;
  fed::FederatedService service(opts);

  // Same design => all 8 jobs shard to one hub; the other is idle.
  std::vector<fed::FedJobId> ids;
  for (int i = 0; i < 8; ++i) {
    auto id = service.submit(quick_job("s" + std::to_string(i), "hot_design"));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  const std::size_t moved = service.rebalance_once();
  EXPECT_GT(moved, 0u);
  EXPECT_LE(moved, 2u) << "steals must not exceed the recipient's idle slots";
  std::size_t queued_total = 0;
  std::size_t owners = 0;
  for (std::size_t h = 0; h < service.num_hubs(); ++h) {
    const auto q = service.hub(h).queued_count();
    queued_total += q;
    if (q > 0) ++owners;
  }
  EXPECT_EQ(queued_total, 8u) << "no job may be lost in migration";
  EXPECT_EQ(owners, 2u);

  service.start();
  for (const auto id : ids) {
    auto record = service.wait(id);
    ASSERT_TRUE(record.ok()) << record.status().to_string();
    EXPECT_EQ(record->state, hub::JobState::kSucceeded) << record->name;
  }
  EXPECT_EQ(service.stats().stolen, moved);
}

TEST(FederationServiceTest, WaitFollowsAMigratedJob) {
  fed::FederatedService::Options opts;
  opts.hubs = 2;
  opts.hub_options.capacity = 1;
  opts.hub_options.start_paused = true;
  opts.steal = false;
  fed::FederatedService service(opts);

  auto id = service.submit(quick_job("follow", "hot_design"));
  ASSERT_TRUE(id.ok());

  // Several waiters on one job: settlement must wake every one of them,
  // and all must see the same booked record.
  constexpr int kWaiters = 3;
  std::vector<hub::JobRecord> seen(kWaiters);
  std::atomic<int> done{0};
  std::vector<std::thread> waiters;
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&, w] {
      const auto record = service.wait(*id);
      ASSERT_TRUE(record.ok()) << record.status().to_string();
      seen[w] = *record;
      done.fetch_add(1);
    });
  }
  // Give the waiters time to block before migrating.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(service.rebalance_once(), 1u);
  service.start();
  for (std::thread& t : waiters) t.join();
  ASSERT_EQ(done.load(), kWaiters);

  const hub::JobRecord& first = seen[0];
  EXPECT_EQ(first.state, hub::JobState::kSucceeded);
  bool stolen = false;
  for (const auto& e : first.flight) stolen = stolen || e.kind == "steal";
  EXPECT_TRUE(stolen) << hub::render_flight_record(first);
  for (int w = 1; w < kWaiters; ++w) {
    EXPECT_EQ(seen[w].state, first.state);
    EXPECT_EQ(seen[w].queue_wait_ms, first.queue_wait_ms);
    ASSERT_EQ(seen[w].flight.size(), first.flight.size());
    for (std::size_t i = 0; i < first.flight.size(); ++i) {
      EXPECT_EQ(seen[w].flight[i].t_ms, first.flight[i].t_ms);
      EXPECT_EQ(seen[w].flight[i].kind, first.flight[i].kind);
      EXPECT_EQ(seen[w].flight[i].label, first.flight[i].label);
    }
  }
}

TEST(FederationServiceTest, SettledJobsReleaseTheirWorkClosure) {
  // A finished job never runs again, so neither the federation's book nor
  // the hub that ran it may keep its work closure (and what it captured).
  const auto payload = std::make_shared<int>(42);
  const auto holding_job = [&payload](const std::string& name) {
    hub::JobSpec spec = quick_job(name, "closure_design");
    spec.work = [held = payload](hub::JobContext&) {
      return *held == 42 ? util::Status::Ok()
                         : util::Status::Internal("payload changed");
    };
    return spec;
  };
  {
    fed::FederatedService::Options opts;
    opts.hubs = 2;
    opts.steal = false;
    fed::FederatedService service(opts);
    const auto id = service.submit(holding_job("federated"));
    ASSERT_TRUE(id.ok());
    const auto record = service.wait(*id);
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record->state, hub::JobState::kSucceeded);
    EXPECT_EQ(payload.use_count(), 1);
  }
  {
    hub::JobServer server({});
    const auto id = server.submit(holding_job("standalone"));
    ASSERT_TRUE(id.ok());
    const auto record = server.wait(*id);
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record->state, hub::JobState::kSucceeded);
    EXPECT_EQ(payload.use_count(), 1);
  }
}

TEST(FederationServiceTest, CancelRacingStealNeverLosesTheCancel) {
  fed::FederatedService::Options opts;
  opts.hubs = 2;
  opts.hub_options.capacity = 1;
  opts.hub_options.start_paused = true;
  opts.steal = false;
  opts.steal_batch = 16;
  fed::FederatedService service(opts);

  std::vector<fed::FedJobId> ids;
  for (int i = 0; i < 16; ++i) {
    auto id = service.submit(quick_job("r" + std::to_string(i), "hot_design"));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  // Cancel everything while a thread migrates the queue between hubs. The
  // sticky cancel_requested flag must catch jobs mid-migration.
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
    const auto record = service.wait(id);
    ASSERT_TRUE(record.ok()) << record.status().to_string();
    // Paused hubs: nothing ever ran, so every cancel must have landed —
    // possibly via the post-migration re-application.
    EXPECT_EQ(record->state, hub::JobState::kCancelled) << record->name;
  }
}

TEST(FederationServiceTest, FlowJobsAreBitIdenticalAcrossTopologies) {
  const auto run_once = [](std::size_t hubs, bool steal) {
    fed::FederatedService::Options opts;
    opts.hubs = hubs;
    opts.hub_options.capacity = 2;
    opts.steal = steal;
    opts.steal_interval_ms = 1.0;
    opts.l1_bytes = 32u << 20;
    fed::FederatedService service(opts);
    std::vector<util::Digest> digests;
    std::vector<fed::FedJobId> ids;
    for (int i = 0; i < 4; ++i) {
      auto design = std::make_shared<const rtl::Module>(
          rtl::designs::counter(4 + (i % 2)));
      auto spec = hub::make_flow_job("flow" + std::to_string(i), design,
                                     open_config(31 + (i % 2)));
      auto id = service.submit(std::move(spec));
      EXPECT_TRUE(id.ok());
      ids.push_back(*id);
    }
    for (const auto id : ids) {
      auto record = service.wait(id);
      EXPECT_TRUE(record.ok());
      EXPECT_EQ(record->state, hub::JobState::kSucceeded);
      digests.push_back(record->artifact_digest);
    }
    return digests;
  };
  const auto one = run_once(1, false);
  const auto four = run_once(4, true);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i], four[i]) << "job " << i
                               << " result depends on federation topology";
  }
}

}  // namespace
}  // namespace eurochip
