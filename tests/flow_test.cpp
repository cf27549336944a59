#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "eurochip/flow/fingerprint.hpp"
#include "eurochip/flow/flow.hpp"
#include "eurochip/netlist/simulator.hpp"
#include "eurochip/pdk/registry.hpp"
#include "eurochip/rtl/designs.hpp"
#include "eurochip/rtl/simulator.hpp"

namespace eurochip::flow {
namespace {

FlowConfig open_config(const std::string& node = "sky130ish") {
  FlowConfig cfg;
  cfg.node = pdk::standard_node(node).value();
  cfg.quality = FlowQuality::kOpen;
  return cfg;
}

TEST(FlowTest, EndToEndProducesAllArtifacts) {
  const auto m = rtl::designs::alu(8);
  const auto result = run_reference_flow(m, open_config());
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const auto& a = result->artifacts;
  EXPECT_NE(a.library, nullptr);
  EXPECT_NE(a.aig, nullptr);
  EXPECT_NE(a.mapped, nullptr);
  EXPECT_NE(a.placed, nullptr);
  EXPECT_NE(a.routed, nullptr);
  EXPECT_FALSE(a.gds_bytes.empty());
  EXPECT_GT(result->ppa.cell_count, 0u);
  EXPECT_GT(result->ppa.area_um2, 0.0);
  EXPECT_GT(result->ppa.die_area_mm2, 0.0);
  EXPECT_GT(result->ppa.fmax_mhz, 0.0);
  EXPECT_GT(result->ppa.power_uw, 0.0);
  EXPECT_GT(result->ppa.wirelength_dbu, 0);
  EXPECT_EQ(result->ppa.drc_violations, 0u);
  EXPECT_EQ(result->steps.size(), 12u);
  // ALU is sequential: a clock tree must have been built. (Few sinks fit
  // one leaf cluster, so zero buffers is legal; skew is still reported.)
  EXPECT_NE(a.clock_tree, nullptr);
  EXPECT_GE(result->ppa.clock_skew_ps, 0.0);
  EXPECT_EQ(a.clock_tree->num_sinks, a.mapped->sequential_cells().size());
}

TEST(FlowTest, MappedNetlistStillMatchesRtl) {
  const auto m = rtl::designs::counter(8);
  const auto result = run_reference_flow(m, open_config());
  ASSERT_TRUE(result.ok());
  auto rtl_sim = rtl::Simulator::create(m);
  auto nl_sim = netlist::Simulator::create(*result->artifacts.mapped);
  ASSERT_TRUE(rtl_sim.ok());
  ASSERT_TRUE(nl_sim.ok());
  rtl_sim->reset();
  nl_sim->reset();
  for (int c = 0; c < 20; ++c) {
    const std::uint64_t en = c % 3 == 0 ? 0 : 1;
    const auto r = rtl_sim->step({en});
    const auto n = nl_sim->step({en != 0});
    std::uint64_t v = 0;
    for (std::size_t b = 0; b < n.size(); ++b) v |= (n[b] ? 1uLL : 0uLL) << b;
    ASSERT_EQ(v, r[0]) << "cycle " << c;
  }
}

TEST(FlowTest, CommercialPresetBeatsOpenOnFmax) {
  const auto m = rtl::designs::alu(12);
  FlowConfig open_cfg = open_config();
  FlowConfig comm_cfg = open_config();
  comm_cfg.quality = FlowQuality::kCommercial;
  const auto open_res = run_reference_flow(m, open_cfg);
  const auto comm_res = run_reference_flow(m, comm_cfg);
  ASSERT_TRUE(open_res.ok());
  ASSERT_TRUE(comm_res.ok());
  EXPECT_GE(comm_res->ppa.fmax_mhz, open_res->ppa.fmax_mhz);
}

TEST(FlowTest, DefaultClockDerivedFromNode) {
  FlowConfig cfg = open_config();
  EXPECT_DOUBLE_EQ(cfg.effective_clock_ps(), 40.0 * cfg.node.fo4_delay_ps);
  cfg.clock_period_ps = 1234.0;
  EXPECT_DOUBLE_EQ(cfg.effective_clock_ps(), 1234.0);
}

TEST(FlowTest, TemplateAblationDropStep) {
  const auto m = rtl::designs::counter(8);
  FlowTemplate t = reference_template();
  ASSERT_TRUE(t.remove_step("synth"));  // skip optimization entirely
  const auto result = t.execute(m, open_config());
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->steps.size(), 11u);
  EXPECT_GT(result->ppa.cell_count, 0u);
}

TEST(FlowTest, RemoveUnknownStepReturnsFalse) {
  FlowTemplate t = reference_template();
  EXPECT_FALSE(t.remove_step("no-such-step"));
  EXPECT_FALSE(t.replace_step("no-such-step",
                              [](FlowContext&) { return util::Status::Ok(); }));
}

TEST(FlowTest, StepOrderViolationFails) {
  const auto m = rtl::designs::counter(8);
  FlowTemplate t("broken");
  t.add_step({"place", [](FlowContext& ctx) {
    // Placement without mapping must fail with a precondition error.
    if (!ctx.artifacts.mapped) {
      return util::Status::FailedPrecondition("place requires map");
    }
    return util::Status::Ok();
  }});
  const auto result = t.execute(m, open_config());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::ErrorCode::kFailedPrecondition);
}

TEST(FlowTest, WorksOnOpenAndCommercialNodes) {
  const auto m = rtl::designs::counter(8);
  for (const char* node : {"gf180ish", "ihp130ish", "commercial28"}) {
    const auto result = run_reference_flow(m, open_config(node));
    ASSERT_TRUE(result.ok()) << node << ": " << result.status().to_string();
    EXPECT_EQ(result->ppa.drc_violations, 0u) << node;
  }
}

TEST(FlowTest, AdvancedNodeSmallerAndFaster) {
  const auto m = rtl::designs::alu(8);
  const auto r130 = run_reference_flow(m, open_config("sky130ish"));
  const auto r7 = run_reference_flow(m, open_config("commercial7"));
  ASSERT_TRUE(r130.ok());
  ASSERT_TRUE(r7.ok());
  EXPECT_LT(r7->ppa.area_um2, r130->ppa.area_um2 / 10.0);
  EXPECT_GT(r7->ppa.fmax_mhz, r130->ppa.fmax_mhz * 3.0);
}

TEST(FlowTest, StepRecordsCarryDetails) {
  const auto m = rtl::designs::counter(8);
  const auto result = run_reference_flow(m, open_config());
  ASSERT_TRUE(result.ok());
  for (const auto& step : result->steps) {
    EXPECT_FALSE(step.name.empty());
    EXPECT_FALSE(step.detail.empty()) << step.name;
    EXPECT_GE(step.runtime_ms, 0.0);
  }
  EXPECT_GT(result->total_runtime_ms, 0.0);
}

TEST(FlowTest, GdsOutputPathWritesFile) {
  const auto m = rtl::designs::counter(8);
  FlowConfig cfg = open_config();
  cfg.gds_output_path = "/tmp/eurochip_flow_test.gds";
  const auto result = run_reference_flow(m, cfg);
  ASSERT_TRUE(result.ok());
  std::FILE* f = std::fopen(cfg.gds_output_path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(cfg.gds_output_path.c_str());
}

TEST(FlowTest, RenderReportContainsStepsAndPpa) {
  const auto m = rtl::designs::counter(8);
  const FlowConfig cfg = open_config();
  const auto result = run_reference_flow(m, cfg);
  ASSERT_TRUE(result.ok());
  const std::string report = render_report(*result, cfg);
  for (const char* needle :
       {"Flow steps", "PPA summary", "elaborate", "route", "fmax (MHz)",
        "DRC violations", "sky130ish"}) {
    EXPECT_NE(report.find(needle), std::string::npos) << needle;
  }
}

TEST(FlowTest, CommercialPresetBoundsFanout) {
  const auto m = rtl::designs::mini_cpu_datapath(8);
  FlowConfig cfg = open_config();
  cfg.quality = FlowQuality::kCommercial;
  const auto result = run_reference_flow(m, cfg);
  ASSERT_TRUE(result.ok());
  const auto& nl = *result->artifacts.mapped;
  const int bound = knobs_for(FlowQuality::kCommercial, 1, 0.6).buffer_max_fanout;
  for (netlist::NetId id : nl.all_nets()) {
    EXPECT_LE(nl.net(id).sinks.size(), static_cast<std::size_t>(bound));
  }
}

TEST(FlowTest, ScanInsertionAddsChainThroughWholeFlow) {
  const auto m = rtl::designs::counter(8);
  FlowConfig cfg = open_config();
  cfg.insert_scan = true;
  const auto result = run_reference_flow(m, cfg);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const auto& nl = *result->artifacts.mapped;
  // scan_en + scan_in inputs and a scan_out output survive to GDSII.
  bool has_scan_out = false;
  for (const auto& port : nl.outputs()) {
    if (port.name == "scan_out") has_scan_out = true;
  }
  EXPECT_TRUE(has_scan_out);
  EXPECT_EQ(result->ppa.drc_violations, 0u);
  // The scan muxes cost area vs the plain flow.
  FlowConfig plain = open_config();
  const auto base = run_reference_flow(m, plain);
  ASSERT_TRUE(base.ok());
  EXPECT_GT(result->ppa.cell_count, base->ppa.cell_count);
}

TEST(FlowTest, KnobsDifferBetweenPresets) {
  const auto open_knobs = knobs_for(FlowQuality::kOpen, 1, 0.6);
  const auto comm_knobs = knobs_for(FlowQuality::kCommercial, 1, 0.6);
  EXPECT_LT(open_knobs.synth_iterations, comm_knobs.synth_iterations);
  EXPECT_LT(open_knobs.place_options.global_iterations,
            comm_knobs.place_options.global_iterations);
  EXPECT_LT(open_knobs.route_options.max_ripup_iterations,
            comm_knobs.route_options.max_ripup_iterations);
  EXPECT_FALSE(open_knobs.map_options.size_for_load);
  EXPECT_TRUE(comm_knobs.map_options.size_for_load);
}

// --- golden artifacts ------------------------------------------------------

/// The hub's artifact_digest recipe (mapped/placed/routed digests plus the
/// GDS bytes) extended with the PPA power/fmax/area bit patterns, so a
/// change to the power simulation shows up even though it never touches
/// the routed netlist.
util::Digest artifact_and_ppa_digest(const FlowResult& r) {
  util::Hasher h;
  h.str("eurochip.artifact.v1");
  const FlowArtifacts& a = r.artifacts;
  if (a.mapped) h.digest(digest_of(*a.mapped));
  if (a.placed) h.digest(digest_of(*a.placed));
  if (a.routed) h.digest(digest_of(*a.routed));
  h.bytes(a.gds_bytes.data(), a.gds_bytes.size());
  h.f64(r.ppa.power_uw).f64(r.ppa.fmax_mhz).f64(r.ppa.area_um2);
  return h.finalize();
}

struct GoldenDigest {
  const char* design;
  const char* preset;
  std::uint64_t hi;
  std::uint64_t lo;
};

// One digest per scale-1 catalog config at the default seed. Any kernel
// change that moves a single artifact bit or PPA figure fails here; edit
// this table only in a change that means to alter artifacts.
constexpr GoldenDigest kScale1Golden[] = {
    {"counter", "open", 0x2e7f3dd28e300babULL, 0xcdb82f675fa01b72ULL},
    {"adder", "open", 0x332f0d25b9a5c379ULL, 0x4d4efcd8f05ba32eULL},
    {"alu", "open", 0x6e5e52f6dc568019ULL, 0x44e1583c1c0f3981ULL},
    {"gray", "open", 0x96715e0242c76248ULL, 0xabc7f6803d1c1461ULL},
    {"fir", "open", 0xf7ad6f2e3cebf0aaULL, 0x8365347804571e27ULL},
    {"lfsr", "open", 0x0361347ec8fcd1a6ULL, 0xf13178e754935f8aULL},
    {"popcount", "open", 0x534e06b4f4be66a7ULL, 0xbf1d8f8271abd813ULL},
    {"fsm", "open", 0xc7e36f84d68c5629ULL, 0xc26f204771685422ULL},
    {"multiplier", "open", 0xafb36c69bf54cdecULL, 0x85f74aacd2a6c0f9ULL},
    {"mini_cpu", "open", 0xf7a4c392aebb000dULL, 0x1958932ce230e169ULL},
    {"shiftreg", "open", 0x7aabbc07715a343aULL, 0xd923311890dc5a74ULL},
    {"prienc", "open", 0x4cdbbecc7f406b15ULL, 0x68be13dcb266aa4bULL},
    {"crc8", "open", 0x12fa866126d68aa3ULL, 0x33188251491bc2a9ULL},
    {"barrel", "open", 0x7508ac3ccae32580ULL, 0x581d47699809ab99ULL},
    {"sorter4", "open", 0x2f7a5ab7ddbf373aULL, 0x167c152808b9eeb5ULL},
    {"serializer", "open", 0xb9a21d095ec166e5ULL, 0xccdfcf27a7d2a9cfULL},
    {"counter", "commercial", 0x7bf889b9eb59f6ecULL, 0x61e98a6766359c07ULL},
    {"adder", "commercial", 0xbc7536da15b57533ULL, 0x9a2793d5505f9ac7ULL},
    {"alu", "commercial", 0x021949690bcbfd62ULL, 0xba9936271c19ca3dULL},
    {"gray", "commercial", 0x521bb8f40544a8abULL, 0x0dc688d9eb84b1b5ULL},
    {"fir", "commercial", 0xe26deca76a6e9064ULL, 0xc162319df1aed843ULL},
    {"lfsr", "commercial", 0xcca75652706dd890ULL, 0xa0a72f8ac45cc9d9ULL},
    {"popcount", "commercial", 0x62ca0c71ee4ee5a7ULL, 0xcfe9a2193e97859fULL},
    {"fsm", "commercial", 0x173724d35ee40482ULL, 0xe1555d94852a0a16ULL},
    {"multiplier", "commercial", 0xe873c367f5085852ULL, 0x7f00a3d389940a44ULL},
    {"mini_cpu", "commercial", 0xc174791d49de743fULL, 0x6d124504c16e6a6fULL},
    {"shiftreg", "commercial", 0xfab23496db5fbee2ULL, 0x4df6577686a433a9ULL},
    {"prienc", "commercial", 0x33b5bcc965aa82c3ULL, 0x70c63905193d1a3bULL},
    {"crc8", "commercial", 0xd2bbe6cf1f6284c4ULL, 0x0a68423b44020369ULL},
    {"barrel", "commercial", 0x59c0ee7eeb1fd0a7ULL, 0x0b5e4189555ed714ULL},
    {"sorter4", "commercial", 0xb8f6ae1a783d8d59ULL, 0xb9d0a44f2fa86822ULL},
    {"serializer", "commercial", 0xfafe48ba3bff1ab5ULL, 0x5d71e2337f7dbd89ULL},
};

TEST(FlowGoldenTest, Scale1CatalogMatchesPinnedDigests) {
  struct Preset {
    const char* name;
    FlowQuality quality;
    const char* node;
  };
  constexpr Preset kPresets[] = {
      {"open", FlowQuality::kOpen, "sky130ish"},
      {"commercial", FlowQuality::kCommercial, "commercial28"},
  };
  std::size_t checked = 0;
  for (const Preset& preset : kPresets) {
    FlowConfig cfg = open_config(preset.node);
    cfg.quality = preset.quality;
    for (const auto& entry : rtl::designs::standard_catalog(1)) {
      const std::string label = std::string(preset.name) + "/" + entry.name;
      const GoldenDigest* want = nullptr;
      for (const GoldenDigest& g : kScale1Golden) {
        if (entry.name == g.design && std::string(preset.name) == g.preset) {
          want = &g;
        }
      }
      ASSERT_NE(want, nullptr) << "no golden digest for " << label;
      const auto result = run_reference_flow(entry.module, cfg);
      ASSERT_TRUE(result.ok()) << label << ": " << result.status().to_string();
      const util::Digest got = artifact_and_ppa_digest(*result);
      const util::Digest pinned{want->hi, want->lo};
      EXPECT_EQ(got, pinned) << label << ": got " << got.hex() << ", pinned "
                             << pinned.hex();
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(kScale1Golden));
}

// --- concurrent flows ------------------------------------------------------

// Concurrency lives across jobs: hub workers run whole flows side by side,
// each on its own thread. Flows running at once must neither race (this
// test runs under TSan and ASan+UBSan) nor drift from a lone run.
TEST(FlowConcurrencyTest, ConcurrentRunsMatchSerialArtifacts) {
  struct Snapshot {
    util::Digest artifacts;
    double wns_ps = 0.0;
    double average_activity = 0.0;
    std::size_t drc_violations = 0;
  };
  const auto m = rtl::designs::alu(8);
  const auto run = [&m] {
    const auto r = run_reference_flow(m, open_config());
    EXPECT_TRUE(r.ok()) << r.status().to_string();
    Snapshot s;
    if (!r.ok()) return s;
    s.artifacts = artifact_and_ppa_digest(*r);
    s.wns_ps = r->artifacts.timing.wns_ps;
    s.average_activity = r->artifacts.power.average_activity;
    s.drc_violations = r->ppa.drc_violations;
    return s;
  };
  const Snapshot expected = run();
  constexpr int kRuns = 4;
  std::vector<Snapshot> got(kRuns);
  std::vector<std::thread> threads;
  threads.reserve(kRuns);
  for (int i = 0; i < kRuns; ++i) {
    threads.emplace_back([&, i] { got[i] = run(); });
  }
  for (auto& t : threads) t.join();
  for (const Snapshot& s : got) {
    EXPECT_EQ(s.artifacts, expected.artifacts);
    EXPECT_EQ(s.wns_ps, expected.wns_ps);
    EXPECT_EQ(s.average_activity, expected.average_activity);
    EXPECT_EQ(s.drc_violations, expected.drc_violations);
  }
}

}  // namespace
}  // namespace eurochip::flow
