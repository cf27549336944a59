// Cross-cutting property and fuzz tests.
//
// These generate random structures (AIGs, RTL expression trees, layouts)
// and assert end-to-end invariants: synthesis/mapping preserve semantics,
// the flow produces legal/clean/routable layouts for every catalog design
// on every open node, GDS round-trips arbitrary geometry, and Verilog
// emission stays parseable.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "eurochip/drc/checker.hpp"
#include "eurochip/flow/flow.hpp"
#include "eurochip/gds/gds.hpp"
#include "eurochip/netlist/simulator.hpp"
#include "eurochip/netlist/verilog.hpp"
#include "eurochip/pdk/library_gen.hpp"
#include "eurochip/pdk/registry.hpp"
#include "eurochip/place/placer.hpp"
#include "eurochip/route/router.hpp"
#include "eurochip/rtl/designs.hpp"
#include "eurochip/rtl/simulator.hpp"
#include "eurochip/synth/elaborate.hpp"
#include "eurochip/synth/mapper.hpp"
#include "eurochip/synth/opt.hpp"
#include "eurochip/util/rng.hpp"

namespace eurochip {
namespace {

// ---------------------------------------------------------------------------
// 1. Random-AIG fuzz: optimize + map preserve semantics.
// ---------------------------------------------------------------------------

/// Builds a random sequential AIG with `n_inputs` inputs, `n_latches`
/// latches and ~`n_ops` random gates.
synth::Aig random_aig(util::Rng& rng, int n_inputs, int n_latches,
                      int n_ops) {
  synth::Aig aig;
  std::vector<synth::Lit> pool;
  for (int i = 0; i < n_inputs; ++i) {
    pool.push_back(aig.add_input("i" + std::to_string(i)));
  }
  std::vector<synth::Lit> latches;
  for (int i = 0; i < n_latches; ++i) {
    latches.push_back(aig.add_latch("l" + std::to_string(i), rng.chance(0.3)));
    pool.push_back(latches.back());
  }
  for (int i = 0; i < n_ops; ++i) {
    synth::Lit a = pool[rng.index(pool.size())];
    synth::Lit b = pool[rng.index(pool.size())];
    if (rng.chance(0.5)) a = synth::lit_not(a);
    if (rng.chance(0.5)) b = synth::lit_not(b);
    synth::Lit out;
    switch (rng.index(3)) {
      case 0: out = aig.and_(a, b); break;
      case 1: out = aig.or_(a, b); break;
      default: out = aig.xor_(a, b); break;
    }
    pool.push_back(out);
  }
  for (std::size_t i = 0; i < latches.size(); ++i) {
    synth::Lit next = pool[rng.index(pool.size())];
    if (rng.chance(0.5)) next = synth::lit_not(next);
    aig.set_latch_next(latches[i], next);
  }
  const int n_outputs = 1 + static_cast<int>(rng.index(4));
  for (int i = 0; i < n_outputs; ++i) {
    synth::Lit o = pool[rng.index(pool.size())];
    if (rng.chance(0.5)) o = synth::lit_not(o);
    aig.add_output("o" + std::to_string(i), o);
  }
  return aig;
}

class AigFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(AigFuzzTest, OptimizePreservesRandomAig) {
  util::Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
  const synth::Aig aig = random_aig(rng, 5, 3, 40);
  ASSERT_TRUE(aig.check().ok());
  const synth::Aig opt = synth::optimize(aig, 3);
  util::Rng check_rng(99);
  EXPECT_TRUE(synth::random_equivalent(aig, opt, check_rng, 24, 6));
}

TEST_P(AigFuzzTest, MappedNetlistMatchesAigSimulation) {
  util::Rng rng(2000 + static_cast<std::uint64_t>(GetParam()));
  const synth::Aig aig = random_aig(rng, 4, 2, 30);
  static const auto lib =
      pdk::build_library(pdk::standard_node("sky130ish").value());
  const auto mapped = synth::map_to_library(synth::optimize(aig, 2), lib);
  ASSERT_TRUE(mapped.ok()) << mapped.status().to_string();
  ASSERT_TRUE(mapped->check().ok());
  auto sim = netlist::Simulator::create(*mapped);
  ASSERT_TRUE(sim.ok());
  sim->reset();

  // Lockstep: single-bit serial comparison over 40 cycles.
  std::vector<std::uint64_t> state(aig.latches().size());
  for (std::size_t i = 0; i < state.size(); ++i) {
    state[i] = aig.latch_init(aig.latches()[i]) ? 1 : 0;
  }
  util::Rng stim(7);
  for (int cycle = 0; cycle < 40; ++cycle) {
    std::vector<std::uint64_t> in_bits(aig.inputs().size());
    std::vector<bool> nl_in(aig.inputs().size());
    for (std::size_t i = 0; i < in_bits.size(); ++i) {
      in_bits[i] = stim.chance(0.5) ? 1 : 0;
      nl_in[i] = in_bits[i] != 0;
    }
    const auto words = aig.simulate(in_bits, state);
    const auto aig_out = aig.output_words(words);
    const auto nl_out = sim->step(nl_in);
    ASSERT_EQ(aig_out.size(), nl_out.size());
    for (std::size_t o = 0; o < nl_out.size(); ++o) {
      ASSERT_EQ((aig_out[o] & 1) != 0, nl_out[o])
          << "output " << o << " cycle " << cycle;
    }
    state = aig.latch_next_words(words);
    for (auto& s : state) s &= 1;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AigFuzzTest, ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// 2. Random-RTL fuzz: elaboration matches the RTL simulator.
// ---------------------------------------------------------------------------

/// Builds a random module mixing word-level operators and registers.
rtl::Module random_module(util::Rng& rng, int seed_tag) {
  rtl::Module m("fuzz" + std::to_string(seed_tag));
  std::vector<rtl::ExprId> pool;
  const int n_inputs = 2 + static_cast<int>(rng.index(3));
  for (int i = 0; i < n_inputs; ++i) {
    const int w = 1 + static_cast<int>(rng.index(12));
    pool.push_back(m.sig(m.input("in" + std::to_string(i), w)));
  }
  std::vector<rtl::SignalId> regs;
  const int n_regs = static_cast<int>(rng.index(3));
  for (int i = 0; i < n_regs; ++i) {
    const int w = 1 + static_cast<int>(rng.index(10));
    const auto r = m.reg("r" + std::to_string(i), w,
                         rng.next() & ((1uLL << w) - 1));
    regs.push_back(r);
    pool.push_back(m.sig(r));
  }
  const int n_ops = 10 + static_cast<int>(rng.index(20));
  for (int i = 0; i < n_ops; ++i) {
    const rtl::ExprId a = pool[rng.index(pool.size())];
    const rtl::ExprId b = pool[rng.index(pool.size())];
    const int wa = m.expr(a).width;
    rtl::ExprId e;
    switch (rng.index(10)) {
      case 0: e = m.add(a, m.resize(b, wa)); break;
      case 1: e = m.sub(a, m.resize(b, wa)); break;
      case 2: e = m.band(a, m.resize(b, wa)); break;
      case 3: e = m.bor(a, m.resize(b, wa)); break;
      case 4: e = m.bxor(a, m.resize(b, wa)); break;
      case 5: e = m.bnot(a); break;
      case 6: e = m.resize(m.lt(a, m.resize(b, wa)), wa); break;
      case 7:
        e = m.mux(m.red_or(b), a, m.resize(m.lit(0, 1), wa));
        break;
      case 8: {
        const int wm = std::min(6, wa);
        const auto am = m.resize(a, wm);
        const auto bm = m.resize(b, wm);
        e = m.mul(am, bm);
        break;
      }
      default:
        e = m.shl(a, static_cast<unsigned>(rng.index(static_cast<std::size_t>(wa))));
        break;
    }
    pool.push_back(e);
  }
  for (std::size_t i = 0; i < regs.size(); ++i) {
    const int w = m.signal(regs[i]).width;
    m.set_next(regs[i], m.resize(pool[rng.index(pool.size())], w));
  }
  const int n_outputs = 1 + static_cast<int>(rng.index(3));
  for (int i = 0; i < n_outputs; ++i) {
    const rtl::ExprId e = pool[pool.size() - 1 - rng.index(pool.size() / 2)];
    m.output("out" + std::to_string(i), m.expr(e).width, e);
  }
  return m;
}

class RtlFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(RtlFuzzTest, ElaborationMatchesRtlSimulator) {
  util::Rng rng(3000 + static_cast<std::uint64_t>(GetParam()));
  const rtl::Module m = random_module(rng, GetParam());
  ASSERT_TRUE(m.check().ok());
  const auto aig = synth::elaborate(m);
  ASSERT_TRUE(aig.ok()) << aig.status().to_string();

  auto rtl_sim = rtl::Simulator::create(m);
  ASSERT_TRUE(rtl_sim.ok());
  rtl_sim->reset();
  std::vector<std::uint64_t> state(aig->latches().size());
  for (std::size_t i = 0; i < state.size(); ++i) {
    state[i] = aig->latch_init(aig->latches()[i]) ? 1 : 0;
  }
  const auto in_ids = m.inputs();
  const auto out_ids = m.outputs();
  util::Rng stim(31 + static_cast<std::uint64_t>(GetParam()));
  for (int cycle = 0; cycle < 30; ++cycle) {
    std::vector<std::uint64_t> word_in(in_ids.size());
    std::vector<std::uint64_t> bit_in;
    for (std::size_t i = 0; i < in_ids.size(); ++i) {
      const int w = m.signal(in_ids[i]).width;
      word_in[i] = stim.next() & (w >= 64 ? ~0uLL : (1uLL << w) - 1);
      for (int b = 0; b < w; ++b) bit_in.push_back((word_in[i] >> b) & 1);
    }
    const auto rtl_out = rtl_sim->step(word_in);
    const auto words = aig->simulate(bit_in, state);
    const auto aig_bits = aig->output_words(words);
    std::size_t bit = 0;
    for (std::size_t o = 0; o < out_ids.size(); ++o) {
      const int w = m.signal(out_ids[o]).width;
      std::uint64_t v = 0;
      for (int b = 0; b < w; ++b) v |= (aig_bits[bit++] & 1uLL) << b;
      ASSERT_EQ(v, rtl_out[o]) << "output " << o << " cycle " << cycle;
    }
    state = aig->latch_next_words(words);
    for (auto& s : state) s &= 1;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RtlFuzzTest, ::testing::Range(0, 16));

// ---------------------------------------------------------------------------
// 3. Physical pipeline invariants over catalog x open nodes.
// ---------------------------------------------------------------------------

struct PhysicalCase {
  int design_index;
  const char* node_name;
};

// Node names are std::string, not const char*: gtest prints a char pointer
// param as its address, which would put a per-process value in test names.
class PhysicalPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(PhysicalPropertyTest, LegalCleanAndRoutable) {
  const auto [design_index, node_name] = GetParam();
  auto catalog = rtl::designs::standard_catalog();
  auto& entry = catalog[static_cast<std::size_t>(design_index)];
  const auto node = pdk::standard_node(node_name).value();
  const auto lib = pdk::build_library(node);
  const auto aig = synth::elaborate(entry.module);
  ASSERT_TRUE(aig.ok());
  const auto mapped = synth::map_to_library(synth::optimize(*aig, 1), lib);
  ASSERT_TRUE(mapped.ok());

  const auto placed = place::place(*mapped, node);
  ASSERT_TRUE(placed.ok()) << entry.name;
  EXPECT_TRUE(placed->is_legal()) << entry.name;

  const auto routed = route::route(*placed, node);
  ASSERT_TRUE(routed.ok()) << entry.name;

  const auto report = drc::check(*placed, node, &*routed);
  EXPECT_TRUE(report.clean())
      << entry.name << ": "
      << (report.violations.empty() ? "" : report.violations[0].detail);
}

INSTANTIATE_TEST_SUITE_P(
    CatalogXNodes, PhysicalPropertyTest,
    ::testing::Combine(::testing::Values(0, 2, 4, 8, 9),
                       ::testing::Values("gf180ish", "sky130ish",
                                         "ihp130ish")));

// ---------------------------------------------------------------------------
// 3b. Full-flow sweep: preset x node, end-to-end invariants.
// ---------------------------------------------------------------------------

class FlowSweepTest
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(FlowSweepTest, FlowInvariantsHoldEverywhere) {
  const auto [preset, node_name] = GetParam();
  const auto m = rtl::designs::alu(8);
  flow::FlowConfig cfg;
  cfg.node = pdk::standard_node(node_name).value();
  cfg.quality = preset == 0 ? flow::FlowQuality::kOpen
                            : flow::FlowQuality::kCommercial;
  const auto result = flow::run_reference_flow(m, cfg);
  ASSERT_TRUE(result.ok()) << node_name << ": "
                           << result.status().to_string();
  EXPECT_EQ(result->ppa.drc_violations, 0u);
  EXPECT_GT(result->ppa.fmax_mhz, 0.0);
  EXPECT_GT(result->ppa.power_uw, 0.0);
  EXPECT_TRUE(result->artifacts.placed->is_legal());
  EXPECT_TRUE(result->artifacts.timing.hold_met());
  // GDSII parses back and covers all cells.
  const auto parsed = gds::read(result->artifacts.gds_bytes);
  ASSERT_TRUE(parsed.ok());
  std::size_t cells = 0;
  for (const auto& b : parsed->structures[0].boundaries) {
    if (b.layer == gds::kLayerCells) ++cells;
  }
  EXPECT_EQ(cells, result->ppa.cell_count);
}

INSTANTIATE_TEST_SUITE_P(
    PresetsXNodes, FlowSweepTest,
    ::testing::Combine(::testing::Values(0, 1),
                       ::testing::Values("gf180ish", "sky130ish",
                                         "commercial28", "commercial2")));

// ---------------------------------------------------------------------------
// 4. GDS geometry fuzz round-trip.
// ---------------------------------------------------------------------------

class GdsFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(GdsFuzzTest, RandomGeometryRoundTrips) {
  util::Rng rng(4000 + static_cast<std::uint64_t>(GetParam()));
  gds::Library lib;
  lib.name = "FUZZ" + std::to_string(GetParam());
  const int n_structs = 1 + static_cast<int>(rng.index(3));
  for (int s = 0; s < n_structs; ++s) {
    gds::Structure st;
    st.name = "S" + std::to_string(s);
    const int n_rects = static_cast<int>(rng.index(50));
    for (int r = 0; r < n_rects; ++r) {
      const std::int64_t x = rng.uniform_int(-1000000, 1000000);
      const std::int64_t y = rng.uniform_int(-1000000, 1000000);
      const std::int64_t w = rng.uniform_int(1, 100000);
      const std::int64_t h = rng.uniform_int(1, 100000);
      st.boundaries.push_back(gds::Boundary::from_rect(
          static_cast<std::int16_t>(rng.index(64)),
          util::Rect{x, y, x + w, y + h}));
    }
    lib.structures.push_back(std::move(st));
  }
  const auto bytes = gds::write(lib);
  const auto parsed = gds::read(bytes);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->structures.size(), lib.structures.size());
  for (std::size_t s = 0; s < lib.structures.size(); ++s) {
    ASSERT_EQ(parsed->structures[s].boundaries.size(),
              lib.structures[s].boundaries.size());
    for (std::size_t b = 0; b < lib.structures[s].boundaries.size(); ++b) {
      EXPECT_EQ(parsed->structures[s].boundaries[b].points,
                lib.structures[s].boundaries[b].points);
      EXPECT_EQ(parsed->structures[s].boundaries[b].layer,
                lib.structures[s].boundaries[b].layer);
    }
  }
  // Byte-exact idempotence.
  EXPECT_EQ(gds::write(*parsed), bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GdsFuzzTest, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// 5. Verilog emission stays parseable for random AIG-derived netlists.
// ---------------------------------------------------------------------------

class VerilogFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(VerilogFuzzTest, EmittedVerilogParses) {
  util::Rng rng(5000 + static_cast<std::uint64_t>(GetParam()));
  const synth::Aig aig = random_aig(rng, 4, 2, 25);
  static const auto lib =
      pdk::build_library(pdk::standard_node("gf180ish").value());
  const auto mapped = synth::map_to_library(aig, lib);
  ASSERT_TRUE(mapped.ok());
  const auto summary =
      netlist::read_verilog_summary(netlist::write_verilog(*mapped));
  ASSERT_TRUE(summary.ok()) << summary.status().to_string();
  EXPECT_EQ(summary->num_instances, mapped->num_cells());
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerilogFuzzTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace eurochip
