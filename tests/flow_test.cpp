#include <gtest/gtest.h>

#include <algorithm>
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

/// The catalog presets: each effort level on its usual node.
struct Preset {
  const char* name;
  FlowQuality quality;
  const char* node;
};
constexpr Preset kPresets[] = {
    {"open", FlowQuality::kOpen, "sky130ish"},
    {"commercial", FlowQuality::kCommercial, "commercial28"},
};

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
    {"counter", "open", 0xd242068f0c98660cULL, 0x6c6a4b5e79124955ULL},
    {"adder", "open", 0x43dbbf185984b482ULL, 0x6ccee24d71a3844fULL},
    {"alu", "open", 0xbf6c9daaa5c0b13eULL, 0x2ae0edf5e6a41211ULL},
    {"gray", "open", 0x96715e0242c76248ULL, 0xabc7f6803d1c1461ULL},
    {"fir", "open", 0xa8a3a8d1db4bce1fULL, 0x2bbdbf374c53d36aULL},
    {"lfsr", "open", 0x623a25285e7477afULL, 0xa0fcf70bc45cefd0ULL},
    {"popcount", "open", 0x03b33e3c2df2233eULL, 0x5513198bf45dbfa1ULL},
    {"fsm", "open", 0xc7e36f84d68c5629ULL, 0xc26f204771685422ULL},
    {"multiplier", "open", 0x434c2673d007b7d7ULL, 0x59714ce89ebc6085ULL},
    {"mini_cpu", "open", 0xe574999872eff061ULL, 0x39a5c7ff976d11feULL},
    {"shiftreg", "open", 0x42a256c82c28753eULL, 0x8149de2aa187a2ffULL},
    {"prienc", "open", 0xc53d8440acf8c0b8ULL, 0xeaf4d686d2da485eULL},
    {"crc8", "open", 0xd956f18f484a13c7ULL, 0x07ee5aec83d81b78ULL},
    {"barrel", "open", 0x1210406f175148d0ULL, 0x0bf3ff9dbf3a133fULL},
    {"sorter4", "open", 0x1ee5a7611b03b350ULL, 0x61fccbf23d1635b7ULL},
    {"serializer", "open", 0x3f419aadad6163b1ULL, 0xe2e1a70187ff238cULL},
    {"counter", "commercial", 0x8b429fe461249a42ULL, 0xcdef71c78a1ac96bULL},
    {"adder", "commercial", 0xb1aa135a4c0f053fULL, 0x9e2451d5b176be49ULL},
    {"alu", "commercial", 0x8481cc2551562191ULL, 0xbafff130cbf432cdULL},
    {"gray", "commercial", 0x347451dc04568b77ULL, 0xd7deb970332bb398ULL},
    {"fir", "commercial", 0x9d7698d20b312362ULL, 0x1efd9f0f8496a3d8ULL},
    {"lfsr", "commercial", 0x54a9aef126ba430eULL, 0x692378837094a980ULL},
    {"popcount", "commercial", 0x1cd27488b4c697aaULL, 0x42be8d58ecc91e80ULL},
    {"fsm", "commercial", 0x173724d35ee40482ULL, 0xe1555d94852a0a16ULL},
    {"multiplier", "commercial", 0x4a584809e396abefULL, 0x5d6bd8c9ad44d3fdULL},
    {"mini_cpu", "commercial", 0xe50ac974dde94103ULL, 0xc1561c28756c28a3ULL},
    {"shiftreg", "commercial", 0x408027b2aea97fc1ULL, 0x2aee2a483955acbbULL},
    {"prienc", "commercial", 0xc68478058a3edc7aULL, 0x740b7aa0d8d81281ULL},
    {"crc8", "commercial", 0x398b405fb8967ffaULL, 0xd776740ee2008ce9ULL},
    {"barrel", "commercial", 0x3b6a20d1cb29b3bbULL, 0xadd7c99ed853dd00ULL},
    {"sorter4", "commercial", 0xded499df476ed5b6ULL, 0x87660ed68b62ff17ULL},
    {"serializer", "commercial", 0x3851ab9efb02fdbeULL, 0xb9e8a3be4fff08eaULL},
};

TEST(FlowGoldenTest, Scale1CatalogMatchesPinnedDigests) {
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

// --- routability -----------------------------------------------------------

// A ratchet on the reference flow: every catalog config (16 designs x both
// presets x scales 1, 2 and 4) runs once, and the configs whose flow fails
// or ends with routing overflow or DRC violations must be exactly these.
// A change that makes one of them legal removes it here; none may be added.
TEST(FlowRoutabilityTest, IllegalCatalogConfigsAreExactlyTheKnownOnes) {
  const std::vector<std::string> known_illegal = {
      "commercial/s4/fir", "open/s2/mini_cpu", "open/s2/multiplier",
      "open/s4/fir",       "open/s4/mini_cpu", "open/s4/multiplier",
      "open/s4/sorter4",
  };
  std::vector<std::string> illegal;
  std::size_t flows = 0;
  for (const int scale : {1, 2, 4}) {
    for (const Preset& preset : kPresets) {
      FlowConfig cfg = open_config(preset.node);
      cfg.quality = preset.quality;
      for (const auto& entry : rtl::designs::standard_catalog(scale)) {
        const auto r = run_reference_flow(entry.module, cfg);
        ++flows;
        const bool legal = r.ok() && r->artifacts.routed != nullptr &&
                           r->artifacts.routed->overflowed_edges == 0 &&
                           r->artifacts.drc.violations.empty();
        if (!legal) {
          illegal.push_back(std::string(preset.name) + "/s" +
                            std::to_string(scale) + "/" + entry.name);
        }
      }
    }
  }
  EXPECT_EQ(flows, 96u);
  std::sort(illegal.begin(), illegal.end());
  EXPECT_EQ(illegal, known_illegal);
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
