#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "eurochip/pdk/library_gen.hpp"
#include "eurochip/pdk/registry.hpp"
#include "eurochip/power/power.hpp"
#include "eurochip/rtl/designs.hpp"
#include "eurochip/synth/elaborate.hpp"
#include "eurochip/synth/mapper.hpp"
#include "eurochip/synth/opt.hpp"
#include "eurochip/util/digest.hpp"
#include "eurochip/util/trace.hpp"

namespace eurochip::power {
namespace {

struct Mapped {
  pdk::TechnologyNode node;
  std::unique_ptr<netlist::CellLibrary> lib;
  std::unique_ptr<netlist::Netlist> nl;
};

Mapped make_mapped(const rtl::Module& m,
                   const std::string& node_name = "sky130ish") {
  Mapped d;
  d.node = pdk::standard_node(node_name).value();
  d.lib = std::make_unique<netlist::CellLibrary>(pdk::build_library(d.node));
  const auto aig = synth::elaborate(m);
  auto mapped = synth::map_to_library(synth::optimize(*aig, 2), *d.lib);
  d.nl = std::make_unique<netlist::Netlist>(std::move(*mapped));
  return d;
}

TEST(PowerTest, ReportsPositiveComponents) {
  const auto m = rtl::designs::alu(8);
  const Mapped d = make_mapped(m);
  const auto report = estimate(*d.nl, d.node);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_GT(report->dynamic_uw, 0.0);
  EXPECT_GT(report->leakage_uw, 0.0);
  EXPECT_GT(report->clock_tree_uw, 0.0);
  EXPECT_NEAR(report->total_uw,
              report->dynamic_uw + report->leakage_uw + report->clock_tree_uw,
              1e-9);
  EXPECT_GT(report->nets_analyzed, 0u);
}

TEST(PowerTest, DynamicPowerScalesWithFrequency) {
  const auto m = rtl::designs::counter(16);
  const Mapped d = make_mapped(m);
  PowerOptions slow;
  slow.clock_mhz = 50.0;
  PowerOptions fast;
  fast.clock_mhz = 500.0;
  const auto rs = estimate(*d.nl, d.node, slow);
  const auto rf = estimate(*d.nl, d.node, fast);
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rf.ok());
  EXPECT_NEAR(rf->dynamic_uw / rs->dynamic_uw, 10.0, 0.01);
  EXPECT_NEAR(rf->leakage_uw, rs->leakage_uw, 1e-9);  // frequency-independent
}

TEST(PowerTest, SimulatedActivityDiffersFromDefault) {
  const auto m = rtl::designs::lfsr(12);
  const Mapped d = make_mapped(m);
  PowerOptions with_sim;
  with_sim.simulate_activity = true;
  PowerOptions without_sim;
  without_sim.simulate_activity = false;
  const auto a = estimate(*d.nl, d.node, with_sim);
  const auto b = estimate(*d.nl, d.node, without_sim);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(std::abs(a->average_activity - b->average_activity), 1e-6);
  EXPECT_NEAR(b->average_activity, without_sim.default_activity, 1e-9);
}

TEST(PowerTest, LeakageDominatesAtAdvancedNodesWhenIdle) {
  // The same design at 7nm leaks far more per gate than at 180nm
  // (paper-consistent scaling behaviour).
  const auto m = rtl::designs::alu(8);
  const Mapped d180 = make_mapped(m, "gf180ish");
  const Mapped d7 = make_mapped(m, "commercial7");
  const auto r180 = estimate(*d180.nl, d180.node);
  const auto r7 = estimate(*d7.nl, d7.node);
  ASSERT_TRUE(r180.ok());
  ASSERT_TRUE(r7.ok());
  const double frac180 = r180->leakage_uw / r180->total_uw;
  const double frac7 = r7->leakage_uw / r7->total_uw;
  EXPECT_GT(frac7, frac180);
}

TEST(PowerTest, DeterministicForSeed) {
  const auto m = rtl::designs::fir_filter(8, 3);
  const Mapped d = make_mapped(m);
  const auto a = estimate(*d.nl, d.node);
  const auto b = estimate(*d.nl, d.node);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->total_uw, b->total_uw);
}

TEST(PowerTest, MoreCyclesStillBounded) {
  const auto m = rtl::designs::counter(8);
  const Mapped d = make_mapped(m);
  PowerOptions opt;
  opt.activity_cycles = 1024;
  const auto report = estimate(*d.nl, d.node, opt);
  ASSERT_TRUE(report.ok());
  // Toggle rate can never exceed 1 per cycle per net.
  EXPECT_LE(report->average_activity, 1.0);
  EXPECT_GE(report->average_activity, 0.0);
}

TEST(PowerTest, ActivitySpanCountsLaneSteps) {
  // The 8 windows of 32 cycles run as 8 lanes of 32 passes, where
  // simulating the windows one after another takes 256 passes.
  const auto m = rtl::designs::alu(8);
  const Mapped d = make_mapped(m);
  util::trace::stop();
  util::trace::clear();
  util::trace::start();
  const auto report = estimate(*d.nl, d.node);
  util::trace::stop();
  const auto events = util::trace::snapshot();
  util::trace::clear();
  ASSERT_TRUE(report.ok());
  const auto span = std::find_if(
      events.begin(), events.end(),
      [](const util::trace::Event& ev) { return ev.name == "power.activity"; });
  ASSERT_NE(span, events.end());
  const std::size_t comb =
      d.nl->num_cells() - d.nl->sequential_cells().size();
  const auto has = [&](const std::string& k, std::uint64_t v) {
    return std::find(span->args.begin(), span->args.end(),
                     std::make_pair(k, std::to_string(v))) != span->args.end();
  };
  EXPECT_TRUE(has("lane_steps", 32));
  EXPECT_TRUE(has("cell_evals", 32 * comb));
}

// --- pinned reports ---------------------------------------------------------

/// One digest over every PowerReport field, bit patterns included.
util::Digest report_digest(const PowerReport& r) {
  util::Hasher h;
  h.f64(r.dynamic_uw).f64(r.leakage_uw).f64(r.clock_tree_uw).f64(r.total_uw);
  h.f64(r.average_activity).u64(r.nets_analyzed);
  return h.finalize();
}

struct PinnedReport {
  std::string design;
  int activity_cycles;
  std::uint64_t hi;
  std::uint64_t lo;
};

// Default-option reports per scale-1 catalog design and activity budget.
// 256 cycles gives 8 equal windows, 100 gives windows of 13 and 12, 13
// gives five 2-cycle and three 1-cycle windows, and 5 leaves three windows
// empty. Any change to the activity simulation that moves one toggle
// fails here.
const std::vector<PinnedReport> kPinnedReports = {
    {"counter", 256, 0x84a07f3e79c95cb8ULL, 0x18302af3435d83fcULL},
    {"counter", 100, 0x2e1a87ba5dfbffb8ULL, 0x4a37e7cd684a74a9ULL},
    {"counter", 13, 0x8308b0c99cb23e9bULL, 0x1f48a1107722ef1aULL},
    {"counter", 5, 0xe7a333b0a8a2a3ceULL, 0x6c389ef5d6e86cfeULL},
    {"alu", 256, 0x650b7993e8bd035fULL, 0x9a897b597b90a8c2ULL},
    {"alu", 100, 0x2844fce9064a6a84ULL, 0xed987293bdd2f945ULL},
    {"alu", 13, 0x35009c0b0533bb48ULL, 0x4a48e1d646898135ULL},
    {"alu", 5, 0x09228fb3575217daULL, 0xdb45657d743ae771ULL},
    {"fir", 256, 0x4dcc0b7ee27a1555ULL, 0x775fd41c9b70b05dULL},
    {"fir", 100, 0xc6ca654fe04a776dULL, 0x8d4c2042d514ad2fULL},
    {"fir", 13, 0xf2f169d591bc7c4cULL, 0x3338092c3c177000ULL},
    {"fir", 5, 0xe3c96fa11f6e3eafULL, 0x85d42f199d1ca4a5ULL},
    {"lfsr", 256, 0xcab920f621d5504dULL, 0x2097d6575b282d1fULL},
    {"lfsr", 100, 0xada849193bb87a14ULL, 0x7ca37af2a4ea12b5ULL},
    {"lfsr", 13, 0x8f55556f51340547ULL, 0x74a83a17556f5bb9ULL},
    {"lfsr", 5, 0x25e2b401a0389e12ULL, 0x68d38b6107e52767ULL},
    {"mini_cpu", 256, 0x23ccc290ee3129e9ULL, 0xc586bb8aa37c2155ULL},
    {"mini_cpu", 100, 0x623abeccdbb51846ULL, 0x9f674f7038c83430ULL},
    {"mini_cpu", 13, 0xe708f64e86c34b4bULL, 0x647fe19e96b2ed69ULL},
    {"mini_cpu", 5, 0x004a2b5f9afde6b2ULL, 0x98d1bbc385babb21ULL},
    {"sorter4", 256, 0x6967e22f4c163eccULL, 0x11b13fd0ab1efb9eULL},
    {"sorter4", 100, 0xcbe055ecb023f5bcULL, 0x42fd1b1d3fea09b9ULL},
    {"sorter4", 13, 0x426c57147506418aULL, 0x0b6c632973b72f6aULL},
    {"sorter4", 5, 0xb8c361b363136d00ULL, 0x9ebc3dcf00309b77ULL},
};

TEST(PowerTest, ActivityMatchesPinnedReports) {
  std::size_t checked = 0;
  for (const auto& entry : rtl::designs::standard_catalog(1)) {
    std::vector<const PinnedReport*> pins;
    for (const PinnedReport& p : kPinnedReports) {
      if (p.design == entry.name) pins.push_back(&p);
    }
    if (pins.empty()) continue;
    const Mapped d = make_mapped(entry.module);
    for (const PinnedReport* p : pins) {
      PowerOptions opt;
      opt.activity_cycles = p->activity_cycles;
      const auto report = estimate(*d.nl, d.node, opt);
      ASSERT_TRUE(report.ok()) << report.status().to_string();
      const util::Digest got = report_digest(*report);
      const util::Digest pinned{p->hi, p->lo};
      EXPECT_EQ(got, pinned) << entry.name << "/" << p->activity_cycles
                             << ": got " << got.hex() << ", pinned "
                             << pinned.hex();
      ++checked;
    }
  }
  EXPECT_EQ(checked, kPinnedReports.size());
}

}  // namespace
}  // namespace eurochip::power
