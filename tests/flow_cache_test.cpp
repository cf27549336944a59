// FlowCache: per-step keying over declared reads, invalidation, LRU
// eviction, and concurrent sharing across flow runs and JobServer workers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "eurochip/flow/cache.hpp"
#include "eurochip/flow/fingerprint.hpp"
#include "eurochip/flow/flow.hpp"
#include "eurochip/flow/serialize.hpp"
#include "eurochip/hub/job.hpp"
#include "eurochip/hub/server.hpp"
#include "eurochip/pdk/registry.hpp"
#include "eurochip/rtl/designs.hpp"
#include "eurochip/util/digest.hpp"

namespace eurochip {
namespace {

flow::FlowConfig base_config() {
  flow::FlowConfig cfg;
  cfg.node = pdk::standard_node("sky130ish").value();
  cfg.quality = flow::FlowQuality::kOpen;
  cfg.seed = 7;
  return cfg;
}

// --- digest layer -------------------------------------------------------

TEST(DigestTest, HasherIsDeterministic) {
  util::Hasher a, b;
  a.str("hello").u64(42).f64(1.5).boolean(true);
  b.str("hello").u64(42).f64(1.5).boolean(true);
  EXPECT_EQ(a.finalize().hex(), b.finalize().hex());
}

TEST(DigestTest, HexRendersEveryNibbleMostSignificantFirst) {
  const util::Digest d{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  EXPECT_EQ(d.hex(), "0123456789abcdeffedcba9876543210");
}

TEST(DigestTest, DifferentInputsDiffer) {
  util::Hasher a, b, c;
  a.str("hello");
  b.str("hellp");
  c.str("hell").str("o");  // length-prefixing: concatenation != split
  const auto da = a.finalize(), db = b.finalize(), dc = c.finalize();
  EXPECT_NE(da, db);
  EXPECT_NE(da, dc);
}

TEST(DigestTest, CanonicalDoubles) {
  util::Hasher a, b;
  a.f64(0.0);
  b.f64(-0.0);
  EXPECT_EQ(a.finalize(), b.finalize());  // -0.0 canonicalized to +0.0
}

TEST(DigestTest, ModuleDigestIsContentBased) {
  const auto m1 = rtl::designs::counter(8);
  const auto m2 = rtl::designs::counter(8);
  const auto m3 = rtl::designs::counter(9);
  EXPECT_EQ(flow::digest_of(m1), flow::digest_of(m2));
  EXPECT_NE(flow::digest_of(m1), flow::digest_of(m3));
  EXPECT_NE(flow::digest_of(m1), flow::digest_of(rtl::designs::adder(8)));
}

TEST(DigestTest, NodeDigestDistinguishesNodes) {
  const auto a = pdk::standard_node("sky130ish").value();
  const auto b = pdk::standard_node("ihp130ish").value();
  EXPECT_EQ(flow::digest_of(a), flow::digest_of(a));
  EXPECT_NE(flow::digest_of(a), flow::digest_of(b));
}

// --- end-to-end keying through FlowTemplate::execute --------------------

TEST(FlowCacheTest, WarmRerunHitsEveryStep) {
  flow::FlowCache cache;
  const auto m = rtl::designs::counter(8);
  auto cfg = base_config();
  cfg.cache = &cache;

  const auto cold = flow::run_reference_flow(m, cfg);
  ASSERT_TRUE(cold.ok()) << cold.status().to_string();
  EXPECT_EQ(cold->cache_hits, 0u);
  EXPECT_EQ(cache.stats().stores, cold->steps.size());

  const auto warm = flow::run_reference_flow(m, cfg);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->cache_hits, warm->steps.size());
  for (const auto& s : warm->steps) EXPECT_TRUE(s.cached) << s.name;

  // Identical results, not just "a" result.
  EXPECT_EQ(warm->ppa.cell_count, cold->ppa.cell_count);
  EXPECT_DOUBLE_EQ(warm->ppa.area_um2, cold->ppa.area_um2);
  EXPECT_DOUBLE_EQ(warm->ppa.wns_ps, cold->ppa.wns_ps);
  EXPECT_DOUBLE_EQ(warm->ppa.power_uw, cold->ppa.power_uw);
  EXPECT_EQ(warm->ppa.wirelength_dbu, cold->ppa.wirelength_dbu);
  EXPECT_EQ(warm->ppa.gds_bytes, cold->ppa.gds_bytes);
  EXPECT_GE(cache.stats().hits, 1u);
}

TEST(FlowCacheTest, SeedChangeInvalidatesFromPlace) {
  flow::FlowCache cache;
  const auto m = rtl::designs::counter(8);
  auto cfg = base_config();
  cfg.cache = &cache;
  ASSERT_TRUE(flow::run_reference_flow(m, cfg).ok());

  cfg.seed = 8;  // only place's fingerprint includes the seed
  const auto r = flow::run_reference_flow(m, cfg);
  ASSERT_TRUE(r.ok());
  // library, elaborate, synth, map, dft are seed-independent.
  EXPECT_EQ(r->cache_hits, 5u);
}

TEST(FlowCacheTest, ClockChangeInvalidatesFromMap) {
  flow::FlowCache cache;
  const auto m = rtl::designs::counter(8);
  auto cfg = base_config();
  cfg.cache = &cache;
  ASSERT_TRUE(flow::run_reference_flow(m, cfg).ok());

  cfg.clock_period_ps = cfg.effective_clock_ps() * 2.0;
  const auto r = flow::run_reference_flow(m, cfg);
  ASSERT_TRUE(r.ok());
  // library, elaborate, synth survive; map keys on the effective clock.
  EXPECT_EQ(r->cache_hits, 3u);
}

TEST(FlowCacheTest, DesignOrNodeChangeMissesEntirely) {
  flow::FlowCache cache;
  auto cfg = base_config();
  cfg.cache = &cache;
  ASSERT_TRUE(flow::run_reference_flow(rtl::designs::counter(8), cfg).ok());

  const auto other = flow::run_reference_flow(rtl::designs::adder(8), cfg);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->cache_hits, 0u);

  auto cfg2 = cfg;
  cfg2.node = pdk::standard_node("ihp130ish").value();
  const auto r = flow::run_reference_flow(rtl::designs::counter(8), cfg2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->cache_hits, 0u);
}

TEST(FlowCacheTest, QualityChangeMissesFromSynth) {
  flow::FlowCache cache;
  const auto m = rtl::designs::counter(8);
  auto cfg = base_config();
  cfg.cache = &cache;
  ASSERT_TRUE(flow::run_reference_flow(m, cfg).ok());

  cfg.quality = flow::FlowQuality::kCommercial;
  const auto r = flow::run_reference_flow(m, cfg);
  ASSERT_TRUE(r.ok());
  // Only library + elaborate are quality-independent.
  EXPECT_EQ(r->cache_hits, 2u);
}

TEST(FlowCacheTest, CustomStepBreaksKeyChain) {
  flow::FlowCache cache;
  const auto m = rtl::designs::counter(8);
  auto cfg = base_config();
  cfg.cache = &cache;

  auto t = flow::reference_template();
  ASSERT_TRUE(t.replace_step("synth", [](flow::FlowContext&) {
    return util::Status::Ok();
  }));
  ASSERT_TRUE(t.execute(m, cfg).ok());
  // Only steps upstream of the opaque step are keyable.
  EXPECT_EQ(cache.stats().stores, 2u);  // library, elaborate

  const auto warm = t.execute(m, cfg);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->cache_hits, 2u);
}

TEST(FlowCacheTest, RestoredArtifactsAreSharedAndImmutable) {
  flow::FlowCache cache;
  const auto m = rtl::designs::counter(8);
  auto cfg = base_config();
  cfg.cache = &cache;
  const auto cold = flow::run_reference_flow(m, cfg);
  ASSERT_TRUE(cold.ok());
  const util::Digest cold_mapped = flow::digest_of(*cold->artifacts.mapped);

  const auto warm = flow::run_reference_flow(m, cfg);
  const auto again = flow::run_reference_flow(m, cfg);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(again.ok());
  const auto& a = warm->artifacts;
  ASSERT_NE(a.mapped, nullptr);
  ASSERT_NE(a.placed, nullptr);
  ASSERT_NE(a.routed, nullptr);
  // Restores share the snapshot's artifacts instead of copying them...
  EXPECT_EQ(a.library.get(), again->artifacts.library.get());
  EXPECT_EQ(a.aig.get(), again->artifacts.aig.get());
  EXPECT_EQ(a.mapped.get(), again->artifacts.mapped.get());
  EXPECT_EQ(a.placed.get(), again->artifacts.placed.get());
  EXPECT_EQ(a.clock_tree.get(), again->artifacts.clock_tree.get());
  EXPECT_EQ(a.routed.get(), again->artifacts.routed.get());
  EXPECT_EQ(a.symbols.get(), again->artifacts.symbols.get());
  // ...whose cross-references point inside the snapshot.
  EXPECT_EQ(&a.mapped->library(), a.library.get());
  EXPECT_EQ(a.placed->netlist, a.mapped.get());
  EXPECT_EQ(a.routed->placed, a.placed.get());

  // A step that changes a restored artifact copies it first, so the cached
  // snapshot keeps the netlist it was stored with.
  auto t = flow::reference_template();
  t.add_step({"eco",
              [](flow::FlowContext& ctx) {
                auto edited =
                    std::make_shared<netlist::Netlist>(*ctx.artifacts.mapped);
                edited->add_input("eco_spare");
                ctx.artifacts.mapped = std::move(edited);
                return util::Status::Ok();
              },
              nullptr});  // no fingerprint: runs uncached after the restore
  const auto eco = t.execute(m, cfg);
  ASSERT_TRUE(eco.ok());
  EXPECT_EQ(eco->cache_hits, flow::reference_template().steps().size());
  EXPECT_NE(flow::digest_of(*eco->artifacts.mapped), cold_mapped);
  std::vector<util::Digest> keys;
  std::vector<bool> keyable;
  flow::reference_template().step_keys(m, cfg, &keys, &keyable);
  constexpr std::size_t kDftStep = 4;  // the last step that writes mapped
  ASSERT_EQ(flow::reference_template().steps()[kDftStep].name, "dft");
  flow::FlowContext probe;
  ASSERT_TRUE(cache.lookup(keys[kDftStep], probe));
  EXPECT_EQ(probe.artifacts.mapped.get(), a.mapped.get());
  EXPECT_EQ(flow::digest_of(*probe.artifacts.mapped), cold_mapped);
}

/// `from`'s slots in `mask` (and its design); every other slot empty.
flow::FlowArtifacts only(const flow::FlowArtifacts& from,
                         flow::ArtifactMask mask) {
  const auto has = [mask](std::size_t slot) {
    return (mask & flow::slot_bit(slot)) != 0;
  };
  flow::FlowArtifacts to;
  to.design = from.design;
  if (has(flow::kLibrarySlot)) to.library = from.library;
  if (has(flow::kAigSlot)) to.aig = from.aig;
  if (has(flow::kMappedSlot)) to.mapped = from.mapped;
  if (has(flow::kPlacedSlot)) to.placed = from.placed;
  if (has(flow::kClockTreeSlot)) to.clock_tree = from.clock_tree;
  if (has(flow::kRoutedSlot)) to.routed = from.routed;
  if (has(flow::kSymbolsSlot)) to.symbols = from.symbols;
  if (has(flow::kTimingSlot)) to.timing = from.timing;
  if (has(flow::kPowerSlot)) to.power = from.power;
  if (has(flow::kDrcSlot)) to.drc = from.drc;
  if (has(flow::kGdsSlot)) to.gds_bytes = from.gds_bytes;
  return to;
}

TEST(FlowCacheTest, StepsReadOnlyWhatTheyDeclare) {
  // A step's key covers only the slots it declares as reads, so each step
  // must compute the same writes from those slots alone as from the whole
  // context. Every scale-1 design on both presets, with scan insertion on
  // so that dft rewrites the netlist.
  const flow::FlowTemplate tmpl = flow::reference_template();
  const std::vector<std::pair<flow::FlowQuality, std::string>> presets = {
      {flow::FlowQuality::kOpen, "sky130ish"},
      {flow::FlowQuality::kCommercial, "commercial28"}};
  for (const auto& entry : rtl::designs::standard_catalog(1)) {
    for (const auto& [quality, node] : presets) {
      flow::FlowContext full;
      full.config.node = pdk::standard_node(node).value();
      full.config.quality = quality;
      full.config.insert_scan = true;
      full.artifacts.design = &entry.module;
      for (const flow::FlowStep& step : tmpl.steps()) {
        const std::string what = entry.name + "/" + node + "/" + step.name;
        flow::FlowContext reduced;
        reduced.config = full.config;
        reduced.artifacts = only(full.artifacts, step.reads);
        const util::Status whole = step.run(full);
        const util::Status alone = step.run(reduced);
        ASSERT_TRUE(whole.ok()) << what << ": " << whole.to_string();
        ASSERT_TRUE(alone.ok()) << what << ": " << alone.to_string();
        // The written slots, compared as their wire encodings.
        EXPECT_EQ(flow::serialize_entry(util::Digest{}, reduced.artifacts,
                                        step.writes, flow::StepRecord{}),
                  flow::serialize_entry(util::Digest{}, full.artifacts,
                                        step.writes, flow::StepRecord{}))
            << what;
        ASSERT_FALSE(reduced.steps.empty()) << what;
        EXPECT_EQ(reduced.steps.back().detail, full.steps.back().detail)
            << what;
      }
    }
  }
}

TEST(FlowCacheTest, EveryKnobRerunsExactlyTheStepsThatReadIt) {
  const auto m = rtl::designs::counter(8);
  const flow::FlowConfig base = base_config();
  // The steps a run with `variant` executes after a run with `base`.
  const auto executed = [&m, &base](const flow::FlowConfig& variant) {
    flow::FlowCache cache;
    flow::FlowConfig cfg = base;
    cfg.cache = &cache;
    EXPECT_TRUE(flow::run_reference_flow(m, cfg).ok());
    cfg = variant;
    cfg.cache = &cache;
    const auto r = flow::run_reference_flow(m, cfg);
    std::vector<std::string> names;
    EXPECT_TRUE(r.ok()) << r.status().to_string();
    if (!r.ok()) return names;
    for (const auto& s : r->steps) {
      if (!s.cached) names.push_back(s.name);
    }
    return names;
  };
  using Steps = std::vector<std::string>;
  const Steps all = {"library", "elaborate", "synth", "map",
                     "dft",     "place",     "cts",   "route",
                     "sta",     "power",     "drc",   "gds"};
  const Steps from_synth(all.begin() + 2, all.end());
  const Steps from_map(all.begin() + 3, all.end());
  const Steps from_dft(all.begin() + 4, all.end());
  const Steps from_place(all.begin() + 5, all.end());
  const std::string gds_path = ::testing::TempDir() + "knob_walk.gds";
  struct Knob {
    std::string name;
    std::function<void(flow::FlowConfig&)> change;
    Steps reruns;
  };
  const std::vector<Knob> knobs = {
      {"node",
       [](flow::FlowConfig& c) {
         c.node = pdk::standard_node("ihp130ish").value();
       },
       all},
      {"quality",
       [](flow::FlowConfig& c) { c.quality = flow::FlowQuality::kCommercial; },
       from_synth},
      {"clock_period_ps",
       [](flow::FlowConfig& c) {
         c.clock_period_ps = c.effective_clock_ps() * 2.0;
       },
       from_map},
      {"utilization", [](flow::FlowConfig& c) { c.utilization = 0.5; },
       from_place},
      {"seed", [](flow::FlowConfig& c) { c.seed = 8; }, from_place},
      {"threads", [](flow::FlowConfig& c) { c.threads = 4; }, {}},
      {"synth_iterations", [](flow::FlowConfig& c) { c.synth_iterations = 2; },
       from_synth},
      {"map_options",
       [](flow::FlowConfig& c) { c.map_options = synth::MapOptions{}; },
       from_map},
      {"place_options",
       [](flow::FlowConfig& c) {
         c.place_options = flow::knobs_for(c.quality, c.seed, c.utilization)
                               .place_options;
       },
       from_place},
      {"route_options",
       [](flow::FlowConfig& c) {
         c.route_options = flow::knobs_for(c.quality, c.seed, c.utilization)
                               .route_options;
       },
       {"route", "sta", "power", "drc"}},
      {"power_options",
       [](flow::FlowConfig& c) {
         power::PowerOptions po;
         po.clock_mhz = 250.0;
         c.power_options = po;
       },
       {"power"}},
      {"insert_scan", [](flow::FlowConfig& c) { c.insert_scan = true; },
       from_dft},
      {"gds_output_path",
       [&gds_path](flow::FlowConfig& c) { c.gds_output_path = gds_path; },
       {"gds"}},
  };
  for (const Knob& knob : knobs) {
    flow::FlowConfig variant = base;
    knob.change(variant);
    EXPECT_EQ(executed(variant), knob.reruns) << knob.name;
  }
  std::remove(gds_path.c_str());
}

TEST(FlowCacheTest, EvictedUpstreamEntryLeavesDownstreamEntriesValid) {
  // An entry pins the upstream artifacts its own point into, so evicting
  // the entries that wrote the netlist cannot free the netlist a resident
  // placement points at.
  const auto m = rtl::designs::counter(8);
  auto cfg = base_config();
  const flow::FlowTemplate tmpl = flow::reference_template();
  std::vector<util::Digest> keys;
  std::vector<bool> keyable;
  tmpl.step_keys(m, cfg, &keys, &keyable);
  constexpr std::size_t kPlaceStep = 5;
  ASSERT_EQ(tmpl.steps()[kPlaceStep].name, "place");

  // The bytes the entries from place on charge together. A cold run under
  // exactly that budget keeps them and evicts every earlier entry, map's
  // and dft's included.
  std::size_t tail_bytes = 0;
  {
    flow::FlowCache all;
    cfg.cache = &all;
    ASSERT_TRUE(flow::run_reference_flow(m, cfg).ok());
    flow::FlowCache tail;
    flow::FlowContext ctx;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE(all.lookup(keys[i], ctx));
      if (i >= kPlaceStep) tail.store(keys[i], ctx, tmpl.steps()[i].writes);
    }
    tail_bytes = tail.stats().bytes;
  }
  flow::FlowCache cache(flow::FlowCache::Options{.max_bytes = tail_bytes});
  cfg.cache = &cache;
  util::Digest cold_placed;
  util::Digest cold_routed;
  {
    const auto cold = flow::run_reference_flow(m, cfg);
    ASSERT_TRUE(cold.ok()) << cold.status().to_string();
    cold_placed = flow::digest_of(*cold->artifacts.placed);
    cold_routed = flow::digest_of(*cold->artifacts.routed);
  }  // the run's result is gone: only the cache holds its artifacts
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(cache.contains(keys[i]), i >= kPlaceStep) << tmpl.steps()[i].name;
  }

  flow::FlowContext ctx;
  ASSERT_TRUE(cache.lookup(keys[kPlaceStep], ctx));
  ASSERT_NE(ctx.artifacts.placed, nullptr);
  ASSERT_NE(ctx.artifacts.mapped, nullptr);
  EXPECT_EQ(ctx.artifacts.placed->netlist, ctx.artifacts.mapped.get());
  EXPECT_EQ(&ctx.artifacts.mapped->library(), ctx.artifacts.library.get());
  EXPECT_EQ(flow::digest_of(*ctx.artifacts.placed), cold_placed);

  constexpr std::size_t kRouteStep = 7;
  ASSERT_EQ(tmpl.steps()[kRouteStep].name, "route");
  flow::FlowContext routed;
  ASSERT_TRUE(cache.lookup(keys[kRouteStep], routed));
  EXPECT_EQ(routed.artifacts.routed->placed, routed.artifacts.placed.get());
  EXPECT_EQ(routed.artifacts.placed->netlist, routed.artifacts.mapped.get());
  EXPECT_EQ(flow::digest_of(*routed.artifacts.routed), cold_routed);
}

// --- direct cache mechanics ---------------------------------------------

constexpr flow::ArtifactMask kGds = flow::slot_bit(flow::kGdsSlot);
constexpr flow::ArtifactMask kAllSlots =
    flow::slot_bit(flow::kArtifactSlots) - 1;

flow::FlowContext synthetic_ctx(std::size_t gds_kb) {
  flow::FlowContext ctx;
  ctx.artifacts.gds_bytes.assign(gds_kb * 1024, 0xAB);
  flow::StepRecord rec;
  rec.name = "gds";
  ctx.steps.push_back(rec);
  return ctx;
}

util::Digest key_of(std::uint64_t i) {
  util::Hasher h;
  h.str("test-key").u64(i);
  return h.finalize();
}

TEST(FlowCacheTest, BudgetChargesEachArtifactOnce) {
  // The twelve entries of a run share their artifacts, so the whole run
  // costs little more than one entry holding its final state alone.
  for (const auto& entry : rtl::designs::standard_catalog(1)) {
    flow::FlowCache cache;
    auto cfg = base_config();
    cfg.cache = &cache;
    const auto run = flow::run_reference_flow(entry.module, cfg);
    ASSERT_TRUE(run.ok()) << entry.name << ": " << run.status().to_string();
    ASSERT_EQ(cache.stats().entries, run->steps.size()) << entry.name;

    flow::FlowContext final_ctx;
    final_ctx.artifacts = run->artifacts;
    final_ctx.steps = run->steps;
    flow::FlowCache alone;
    alone.store(key_of(0), final_ctx, kAllSlots);
    ASSERT_EQ(alone.stats().entries, 1u) << entry.name;
    EXPECT_LE(cache.stats().bytes, 2 * alone.stats().bytes) << entry.name;
  }
}

TEST(FlowCacheTest, LruEvictionRespectsByteBudget) {
  flow::FlowCache::Options opt;
  opt.max_bytes = 300 * 1024;  // fits ~3 x 64 KiB snapshots + overhead
  flow::FlowCache cache(opt);

  for (std::uint64_t i = 0; i < 8; ++i) {
    const auto ctx = synthetic_ctx(64);
    cache.store(key_of(i), ctx, kGds);
  }
  const auto st = cache.stats();
  EXPECT_EQ(st.stores, 8u);
  EXPECT_GT(st.evictions, 0u);
  EXPECT_LE(st.bytes, opt.max_bytes);
  EXPECT_EQ(st.entries, st.stores - st.evictions);
  // Oldest keys evicted first, newest resident.
  EXPECT_FALSE(cache.contains(key_of(0)));
  EXPECT_TRUE(cache.contains(key_of(7)));
}

TEST(FlowCacheTest, LookupTouchesLruOrder) {
  flow::FlowCache::Options opt;
  opt.max_bytes = 300 * 1024;
  flow::FlowCache cache(opt);
  cache.store(key_of(1), synthetic_ctx(64), kGds);
  cache.store(key_of(2), synthetic_ctx(64), kGds);
  cache.store(key_of(3), synthetic_ctx(64), kGds);

  flow::FlowContext scratch;
  ASSERT_TRUE(cache.lookup(key_of(1), scratch));  // 1 becomes MRU

  cache.store(key_of(4), synthetic_ctx(64), kGds);
  cache.store(key_of(5), synthetic_ctx(64), kGds);
  EXPECT_TRUE(cache.contains(key_of(1)));   // touched, survived
  EXPECT_FALSE(cache.contains(key_of(2)));  // LRU victim
}

TEST(FlowCacheTest, OversizedSnapshotNotAdmitted) {
  flow::FlowCache::Options opt;
  opt.max_bytes = 16 * 1024;
  flow::FlowCache cache(opt);
  cache.store(key_of(1), synthetic_ctx(64), kGds);  // 64 KiB > 16 KiB budget
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_FALSE(cache.contains(key_of(1)));
}

TEST(FlowCacheTest, MissLeavesContextUntouched) {
  flow::FlowCache cache;
  flow::FlowContext ctx = synthetic_ctx(1);
  EXPECT_FALSE(cache.lookup(key_of(99), ctx));
  EXPECT_EQ(ctx.artifacts.gds_bytes.size(), 1024u);
  EXPECT_EQ(ctx.steps.size(), 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(FlowCacheTest, ClearResetsResidency) {
  flow::FlowCache cache;
  cache.store(key_of(1), synthetic_ctx(4), kGds);
  ASSERT_TRUE(cache.contains(key_of(1)));
  cache.clear();
  EXPECT_FALSE(cache.contains(key_of(1)));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

// --- concurrency (primary TSan target) ----------------------------------

TEST(FlowCacheTest, ConcurrentRunsShareOneCache) {
  flow::FlowCache cache;
  const auto m = rtl::designs::counter(6);
  auto cfg = base_config();
  cfg.cache = &cache;

  std::vector<std::thread> threads;
  std::vector<std::size_t> hits(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      const auto r = flow::run_reference_flow(m, cfg);
      if (r.ok()) hits[static_cast<std::size_t>(t)] = r->cache_hits + 1;
    });
  }
  for (auto& th : threads) th.join();
  for (const auto h : hits) EXPECT_GT(h, 0u);  // all runs succeeded
  // At least one run must have seen another's stores (with a single
  // hardware thread the runs are effectively serialized, so all but the
  // first hit the full prefix; under real parallelism weaker but nonzero).
  EXPECT_GT(cache.stats().hits, 0u);
}

TEST(FlowCacheTest, ConcurrentStoreAndEvictionIsSafe) {
  flow::FlowCache::Options opt;
  opt.max_bytes = 200 * 1024;  // force constant eviction churn
  flow::FlowCache cache(opt);

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < 32; ++i) {
        const std::uint64_t k = static_cast<std::uint64_t>(t) * 100 + i;
        cache.store(key_of(k), synthetic_ctx(32), kGds);
        flow::FlowContext scratch;
        cache.lookup(key_of(k), scratch);
        (void)cache.contains(key_of(k % 7));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(cache.stats().bytes, opt.max_bytes);
}

TEST(FlowCacheTest, ConcurrentRestoreOfAnEvictedSnapshotIsSafe) {
  // Readers restore and hash one shared snapshot while a writer stores
  // variants that evict it: a restored artifact must stay alive and
  // unchanged after the cache drops its last reference.
  const auto m = rtl::designs::counter(8);
  const auto run = flow::run_reference_flow(m, base_config());
  ASSERT_TRUE(run.ok()) << run.status().to_string();
  flow::FlowContext shared;
  shared.artifacts = run->artifacts;
  shared.steps = run->steps;
  const util::Digest routed = flow::digest_of(*run->artifacts.routed);
  const util::Digest mapped = flow::digest_of(*run->artifacts.mapped);

  flow::FlowCache sizing;
  sizing.store(key_of(0), shared, kAllSlots);
  const std::size_t snapshot_bytes = sizing.stats().bytes;
  flow::FlowCache::Options opt;
  opt.max_bytes = 2 * snapshot_bytes;
  flow::FlowCache cache(opt);

  std::atomic<bool> done{false};
  std::atomic<int> restores{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!done.load()) {
        flow::FlowContext ctx;
        if (!cache.lookup(key_of(0), ctx)) continue;
        ++restores;
        EXPECT_EQ(flow::digest_of(*ctx.artifacts.routed), routed);
        EXPECT_EQ(flow::digest_of(*ctx.artifacts.mapped), mapped);
      }
    });
  }
  // The snapshot and a variant do not fit together, so each store evicts
  // the other — the snapshot while readers may still hold its artifacts.
  for (std::uint64_t i = 1; i <= 24; ++i) {
    cache.store(key_of(0), shared, kAllSlots);
    const int seen = restores.load();
    for (int spin = 0; spin < 100000 && restores.load() == seen; ++spin) {
      std::this_thread::yield();
    }
    cache.store(key_of(i), synthetic_ctx(snapshot_bytes * 3 / 2 / 1024),
                kGds);
  }
  done = true;
  for (auto& th : readers) th.join();
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_LE(cache.stats().bytes, opt.max_bytes);
}

// --- hub integration ----------------------------------------------------

TEST(FlowCacheTest, JobServerRecordsCacheHitsAndMetrics) {
  flow::FlowCache cache;
  hub::JobServer::Options opt;
  opt.capacity = 2;
  opt.cache = &cache;
  hub::JobServer server(opt);

  auto design = std::make_shared<rtl::Module>(rtl::designs::counter(8));
  const auto cfg = base_config();

  const auto id1 = server.submit(hub::make_flow_job("cold", design, cfg));
  ASSERT_TRUE(id1.ok());
  const auto rec1 = server.wait(*id1);
  ASSERT_TRUE(rec1.ok());
  EXPECT_EQ(rec1->state, hub::JobState::kSucceeded);
  EXPECT_EQ(rec1->cache_hits, 0u);

  const auto id2 = server.submit(hub::make_flow_job("warm", design, cfg));
  ASSERT_TRUE(id2.ok());
  const auto rec2 = server.wait(*id2);
  ASSERT_TRUE(rec2.ok());
  EXPECT_EQ(rec2->state, hub::JobState::kSucceeded);
  EXPECT_EQ(rec2->cache_hits, rec2->steps.size());

  // Mirrored metrics: deltas synced after each job.
  EXPECT_GE(server.metrics().counter("flow_cache_hits"), 1u);
  EXPECT_GT(server.metrics().counter("flow_cache_stores"), 0u);
  EXPECT_GT(server.metrics().gauge("flow_cache_entries"), 0.0);
  server.shutdown();
}

TEST(FlowCacheTest, SetCacheRebaselinesTheMetricsMirror) {
  // Regression: a cache attached AFTER construction (set_cache) must be
  // re-baselined exactly like one attached at construction — a server
  // joining a warm shared cache must not claim the pre-existing totals
  // as its own activity.
  flow::FlowCache cache;
  auto design = std::make_shared<rtl::Module>(rtl::designs::counter(8));
  auto warm_cfg = base_config();
  warm_cfg.cache = &cache;
  ASSERT_TRUE(flow::run_reference_flow(*design, warm_cfg).ok());
  const auto warm = cache.stats();
  ASSERT_GT(warm.stores, 0u);

  hub::JobServer::Options opt;
  opt.capacity = 1;  // constructed WITHOUT a cache
  hub::JobServer server(opt);
  server.set_cache(&cache);

  const auto id = server.submit(hub::make_flow_job("warm", design,
                                                   base_config()));
  ASSERT_TRUE(id.ok());
  const auto rec = server.wait(*id);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->state, hub::JobState::kSucceeded);
  EXPECT_EQ(rec->cache_hits, rec->steps.size()) << "cache must be attached";

  // The fully warm job stored nothing new: without re-baselining the
  // mirror would report the warm-up run's stores here.
  EXPECT_EQ(server.metrics().counter("flow_cache_stores"), 0u);
  EXPECT_GE(server.metrics().counter("flow_cache_hits"), 1u);

  // Detaching re-baselines too; later jobs run uncached.
  server.set_cache(nullptr);
  const auto id2 = server.submit(hub::make_flow_job("cold", design,
                                                    base_config()));
  ASSERT_TRUE(id2.ok());
  const auto rec2 = server.wait(*id2);
  ASSERT_TRUE(rec2.ok());
  EXPECT_EQ(rec2->state, hub::JobState::kSucceeded);
  EXPECT_EQ(rec2->cache_hits, 0u);
  server.shutdown();
}

}  // namespace
}  // namespace eurochip
