#include <gtest/gtest.h>

#include "eurochip/pdk/library_gen.hpp"
#include "eurochip/pdk/registry.hpp"
#include "eurochip/place/placer.hpp"
#include "eurochip/route/router.hpp"
#include "eurochip/rtl/designs.hpp"
#include "eurochip/synth/elaborate.hpp"
#include "eurochip/synth/mapper.hpp"
#include "eurochip/synth/opt.hpp"

namespace eurochip::route {
namespace {

struct Physical {
  pdk::TechnologyNode node;
  std::unique_ptr<netlist::CellLibrary> lib;
  std::unique_ptr<netlist::Netlist> nl;
  std::unique_ptr<place::PlacedDesign> placed;
};

Physical make_physical(const rtl::Module& m,
                       const std::string& node_name = "sky130ish") {
  Physical p;
  p.node = pdk::standard_node(node_name).value();
  p.lib = std::make_unique<netlist::CellLibrary>(pdk::build_library(p.node));
  const auto aig = synth::elaborate(m);
  auto mapped = synth::map_to_library(synth::optimize(*aig, 2), *p.lib);
  p.nl = std::make_unique<netlist::Netlist>(std::move(*mapped));
  auto placed = place::place(*p.nl, p.node);
  p.placed = std::make_unique<place::PlacedDesign>(std::move(*placed));
  return p;
}

TEST(RouteTest, RoutesAllMultiPinNets) {
  const auto m = rtl::designs::alu(8);
  const Physical p = make_physical(m);
  RouteStats stats;
  const auto routed = route(*p.placed, p.node, {}, &stats);
  ASSERT_TRUE(routed.ok()) << routed.status().to_string();
  for (netlist::NetId id : p.nl->all_nets()) {
    const auto pins = p.placed->net_pins(id);
    if (pins.size() >= 2) {
      EXPECT_TRUE(routed->nets[id.value].routed) << p.nl->net(id).name;
    }
  }
  EXPECT_GT(routed->total_wirelength_dbu, 0);
  EXPECT_GT(stats.segments_routed, 0u);
}

TEST(RouteTest, WirelengthAtLeastLowerBoundedByGcellScale) {
  // Routed length, measured in gcells, cannot beat the HPWL lower bound by
  // more than the gcell quantization allows.
  const auto m = rtl::designs::mini_cpu_datapath(8);
  const Physical p = make_physical(m);
  const auto routed = route(*p.placed, p.node);
  ASSERT_TRUE(routed.ok());
  // Sanity: total routed wirelength within [0.2x, 50x] of HPWL.
  const double hpwl = static_cast<double>(p.placed->total_hpwl());
  const double wl = static_cast<double>(routed->total_wirelength_dbu);
  EXPECT_GT(wl, hpwl * 0.2);
  EXPECT_LT(wl, hpwl * 50.0);
}

TEST(RouteTest, CongestionAwareReducesOverflow) {
  const auto m = rtl::designs::mini_cpu_datapath(12);
  const Physical p = make_physical(m);
  RouteOptions naive;
  naive.congestion_aware = false;
  naive.max_ripup_iterations = 0;
  naive.gcell_pitches = 15;  // small gcells -> scarce capacity
  RouteOptions aware;
  aware.congestion_aware = true;
  aware.gcell_pitches = 15;
  RouteStats naive_stats;
  RouteStats aware_stats;
  const auto r_naive = route(*p.placed, p.node, naive, &naive_stats);
  const auto r_aware = route(*p.placed, p.node, aware, &aware_stats);
  // The stats carry the overflow whether or not the route succeeds.
  EXPECT_LT(aware_stats.overflowed_edges, naive_stats.overflowed_edges);
  // The naive router may fail outright; congestion-aware must not fail if
  // naive succeeded.
  EXPECT_TRUE(r_aware.ok() || !r_naive.ok());
}

// M4's scarce-grid setup (bench_substrates BM_RouteOverflow_Ablation):
// routing each segment against the congestion of every segment before it
// leaves no overflowed edge.
TEST(RouteTest, ScarceAlu24RoutesLegally) {
  const Physical p = make_physical(rtl::designs::alu(24));
  RouteOptions opt;
  opt.gcell_pitches = 12;
  opt.congestion_aware = true;
  RouteStats stats;
  const auto routed = route(*p.placed, p.node, opt, &stats);
  ASSERT_TRUE(routed.ok()) << routed.status().to_string();
  EXPECT_EQ(routed->overflowed_edges, 0);
  EXPECT_EQ(stats.overflowed_edges, 0);
  EXPECT_EQ(stats.ripup_iterations, routed->iterations_used);
}

TEST(RouteTest, DeterministicResult) {
  const auto m = rtl::designs::fir_filter(8, 4);
  const Physical p = make_physical(m);
  const auto a = route(*p.placed, p.node);
  const auto b = route(*p.placed, p.node);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->total_wirelength_dbu, b->total_wirelength_dbu);
  EXPECT_EQ(a->total_vias, b->total_vias);
}

TEST(RouteTest, NetLengthAccessor) {
  const auto m = rtl::designs::counter(8);
  const Physical p = make_physical(m);
  const auto routed = route(*p.placed, p.node);
  ASSERT_TRUE(routed.ok());
  double sum_um = 0.0;
  for (netlist::NetId id : p.nl->all_nets()) {
    sum_um += routed->net_length_um(id);
  }
  EXPECT_NEAR(sum_um * 1e3,
              static_cast<double>(routed->total_wirelength_dbu), 1.0);
}

TEST(RouteTest, ViasTrackBends) {
  const auto m = rtl::designs::alu(8);
  const Physical p = make_physical(m);
  const auto routed = route(*p.placed, p.node);
  ASSERT_TRUE(routed.ok());
  EXPECT_GT(routed->total_vias, 0);
}

TEST(RouteTest, GridDimensionsReported) {
  const auto m = rtl::designs::counter(8);
  const Physical p = make_physical(m);
  RouteStats stats;
  ASSERT_TRUE(route(*p.placed, p.node, {}, &stats).ok());
  EXPECT_GT(stats.grid_width, 0);
  EXPECT_GT(stats.grid_height, 0);
  EXPECT_GT(stats.edge_capacity, 0);
}

}  // namespace
}  // namespace eurochip::route
