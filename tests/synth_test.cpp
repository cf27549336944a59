#include <gtest/gtest.h>

#include "eurochip/netlist/simulator.hpp"
#include "eurochip/pdk/library_gen.hpp"
#include "eurochip/pdk/registry.hpp"
#include "eurochip/rtl/designs.hpp"
#include "eurochip/rtl/simulator.hpp"
#include "eurochip/synth/aig.hpp"
#include "eurochip/synth/cuts.hpp"
#include "eurochip/synth/elaborate.hpp"
#include "eurochip/synth/mapper.hpp"
#include "eurochip/synth/opt.hpp"

namespace eurochip::synth {
namespace {

using netlist::CellFn;

// --- AIG -------------------------------------------------------------------

TEST(AigTest, ConstantFolding) {
  Aig aig;
  const Lit a = aig.add_input("a");
  EXPECT_EQ(aig.and_(a, kLitFalse), kLitFalse);
  EXPECT_EQ(aig.and_(a, kLitTrue), a);
  EXPECT_EQ(aig.and_(a, a), a);
  EXPECT_EQ(aig.and_(a, lit_not(a)), kLitFalse);
  EXPECT_EQ(aig.num_ands(), 0u);
}

TEST(AigTest, StructuralHashingFoldsDuplicates) {
  Aig aig;
  const Lit a = aig.add_input("a");
  const Lit b = aig.add_input("b");
  const Lit x = aig.and_(a, b);
  const Lit y = aig.and_(b, a);  // commuted
  EXPECT_EQ(x, y);
  EXPECT_EQ(aig.num_ands(), 1u);
}

TEST(AigTest, XorAndMuxSemantics) {
  Aig aig;
  const Lit a = aig.add_input("a");
  const Lit b = aig.add_input("b");
  const Lit s = aig.add_input("s");
  aig.add_output("xor", aig.xor_(a, b));
  aig.add_output("mux", aig.mux(s, a, b));
  for (unsigned m = 0; m < 8; ++m) {
    const std::uint64_t wa = (m & 1) != 0 ? ~0uLL : 0;
    const std::uint64_t wb = (m & 2) != 0 ? ~0uLL : 0;
    const std::uint64_t ws = (m & 4) != 0 ? ~0uLL : 0;
    const auto words = aig.simulate({wa, wb, ws}, {});
    const auto out = aig.output_words(words);
    EXPECT_EQ(out[0], wa ^ wb);
    EXPECT_EQ(out[1], (ws & wa) | (~ws & wb));
  }
}

TEST(AigTest, LatchStateAdvances) {
  Aig aig;
  const Lit q = aig.add_latch("q");
  aig.set_latch_next(q, lit_not(q));  // toggle
  aig.add_output("q", q);
  std::vector<std::uint64_t> state = {0};
  for (int i = 0; i < 4; ++i) {
    const auto words = aig.simulate({}, state);
    const auto out = aig.output_words(words);
    EXPECT_EQ(out[0], i % 2 == 0 ? 0uLL : ~0uLL);
    state = aig.latch_next_words(words);
  }
}

TEST(AigTest, CheckPassesOnElaboratedDesigns) {
  for (auto& e : rtl::designs::standard_catalog()) {
    const auto aig = elaborate(e.module);
    ASSERT_TRUE(aig.ok()) << e.name;
    EXPECT_TRUE(aig->check().ok()) << e.name;
    // Pure-wiring designs (shift registers) legitimately have zero ANDs.
    EXPECT_GT(aig->num_ands() + aig->latches().size(), 0u) << e.name;
  }
}

// --- elaboration vs RTL simulation ----------------------------------------

/// Steps the RTL simulator and the AIG in lockstep with random stimulus.
void expect_aig_matches_rtl(const rtl::Module& m, const Aig& aig,
                            std::uint64_t seed, int cycles) {
  auto rtl_sim = rtl::Simulator::create(m);
  ASSERT_TRUE(rtl_sim.ok());
  rtl_sim->reset();

  // Map AIG latch state bits.
  std::vector<std::uint64_t> state(aig.latches().size());
  for (std::size_t i = 0; i < state.size(); ++i) {
    state[i] = aig.latch_init(aig.latches()[i]) ? 1 : 0;
  }
  util::Rng rng(seed);

  const auto in_ids = m.inputs();
  const auto out_ids = m.outputs();
  for (int c = 0; c < cycles; ++c) {
    std::vector<std::uint64_t> word_in(in_ids.size());
    std::vector<std::uint64_t> bit_in;
    for (std::size_t i = 0; i < in_ids.size(); ++i) {
      const int w = m.signal(in_ids[i]).width;
      word_in[i] = rng.next() & (w >= 64 ? ~0uLL : (1uLL << w) - 1);
      for (int b = 0; b < w; ++b) {
        bit_in.push_back((word_in[i] >> b) & 1);
      }
    }
    const auto rtl_out = rtl_sim->step(word_in);
    const auto words = aig.simulate(bit_in, state);
    const auto aig_out_bits = aig.output_words(words);
    // Repack AIG output bits into words by output declaration order.
    std::size_t bit_idx = 0;
    for (std::size_t o = 0; o < out_ids.size(); ++o) {
      const int w = m.signal(out_ids[o]).width;
      std::uint64_t v = 0;
      for (int b = 0; b < w; ++b) {
        v |= (aig_out_bits[bit_idx++] & 1uLL) << b;
      }
      ASSERT_EQ(v, rtl_out[o]) << "output " << o << " cycle " << c;
    }
    state = aig.latch_next_words(words);
    for (auto& s : state) s &= 1;
  }
}

class ElaborateCatalogTest : public ::testing::TestWithParam<int> {};

TEST_P(ElaborateCatalogTest, AigMatchesRtlSimulation) {
  auto catalog = rtl::designs::standard_catalog();
  auto& entry = catalog[static_cast<std::size_t>(GetParam())];
  const auto aig = elaborate(entry.module);
  ASSERT_TRUE(aig.ok()) << entry.name;
  expect_aig_matches_rtl(entry.module, *aig, 42 + GetParam(), 50);
}

INSTANTIATE_TEST_SUITE_P(Catalog, ElaborateCatalogTest,
                         ::testing::Range(0, 16));

// --- optimization ----------------------------------------------------------

class OptimizePreservesTest : public ::testing::TestWithParam<int> {};

TEST_P(OptimizePreservesTest, OptimizedAigEquivalent) {
  auto catalog = rtl::designs::standard_catalog();
  auto& entry = catalog[static_cast<std::size_t>(GetParam())];
  const auto aig = elaborate(entry.module);
  ASSERT_TRUE(aig.ok());
  OptStats stats;
  const Aig opt = optimize(*aig, 4, &stats);
  EXPECT_TRUE(opt.check().ok());
  // Optimization may trade a few duplicated ANDs for depth, but never
  // regress both axes at once.
  EXPECT_LE(static_cast<double>(stats.final_ands) + 3.0 * stats.final_depth,
            static_cast<double>(stats.initial_ands) +
                3.0 * stats.initial_depth)
      << entry.name;
  util::Rng rng(7);
  EXPECT_TRUE(random_equivalent(*aig, opt, rng)) << entry.name;
}

INSTANTIATE_TEST_SUITE_P(Catalog, OptimizePreservesTest,
                         ::testing::Range(0, 16));

TEST(OptimizeTest, SweepRemovesDeadLogic) {
  Aig aig;
  const Lit a = aig.add_input("a");
  const Lit b = aig.add_input("b");
  (void)aig.and_(a, b);                  // dead
  aig.add_output("y", aig.or_(a, b));    // live
  const Aig swept = sweep(aig);
  EXPECT_LT(swept.num_ands(), aig.num_ands() + 1);
  util::Rng rng(1);
  EXPECT_TRUE(random_equivalent(aig, swept, rng));
}

TEST(OptimizeTest, BalanceReducesDepthOfChain) {
  Aig aig;
  std::vector<Lit> ins;
  for (int i = 0; i < 16; ++i) {
    ins.push_back(aig.add_input("i" + std::to_string(i)));
  }
  Lit acc = ins[0];
  for (int i = 1; i < 16; ++i) acc = aig.and_(acc, ins[i]);
  aig.add_output("y", acc);
  EXPECT_EQ(aig.max_level(), 15u);
  const Aig bal = balance(aig);
  EXPECT_LE(bal.max_level(), 5u);  // ceil(log2 16) = 4 (+ slack)
  util::Rng rng(2);
  EXPECT_TRUE(random_equivalent(aig, bal, rng));
}

TEST(OptimizeTest, RewriteAppliesAbsorption) {
  Aig aig;
  const Lit a = aig.add_input("a");
  const Lit b = aig.add_input("b");
  const Lit ab = aig.and_(a, b);
  aig.add_output("y", aig.and_(a, ab));  // = a & b
  const Aig rw = rewrite(aig);
  EXPECT_EQ(rw.num_ands(), 1u);
  util::Rng rng(3);
  EXPECT_TRUE(random_equivalent(aig, rw, rng));
}

// --- cut engine --------------------------------------------------------------

/// Every node's cut set, built in topological order: up to kCutsPerNode
/// merged cuts plus the trivial cut, as both mappers bound them.
std::vector<std::vector<Cut>> enumerate_cuts(const Aig& aig, int k) {
  std::vector<std::vector<Cut>> cuts(aig.num_nodes());
  for (std::uint32_t n = 0; n < aig.num_nodes(); ++n) {
    if (aig.node(n).kind != NodeKind::kAnd) cuts[n] = {trivial_cut(n)};
  }
  for (std::uint32_t n : aig.and_nodes_topo()) {
    const AigNode& an = aig.node(n);
    std::vector<Cut> kept = merge_fanin_cuts(
        aig, n, cuts[lit_node(an.fanin0)], cuts[lit_node(an.fanin1)], k);
    if (kept.size() > kCutsPerNode) kept.resize(kCutsPerNode);
    kept.push_back(trivial_cut(n));
    cuts[n] = std::move(kept);
  }
  return cuts;
}

/// For every cut and each of 64 random patterns (inputs and latch states),
/// the cut's table indexed by its leaves' simulated bits must equal the
/// node's simulated bit.
void expect_cut_functions_match_simulation(const Aig& aig, int k,
                                           std::uint64_t seed,
                                           const std::string& label) {
  const auto cuts = enumerate_cuts(aig, k);
  util::Rng rng(seed);
  std::vector<std::uint64_t> in(aig.inputs().size());
  std::vector<std::uint64_t> state(aig.latches().size());
  for (std::uint64_t& w : in) w = rng.next();
  for (std::uint64_t& w : state) w = rng.next();
  const std::vector<std::uint64_t> sim = aig.simulate(in, state);
  std::size_t mismatches = 0;
  for (std::uint32_t n = 0; n < aig.num_nodes(); ++n) {
    for (const Cut& c : cuts[n]) {
      ASSERT_LE(c.size, k) << label;
      ASSERT_TRUE(std::is_sorted(c.leaves.begin(), c.leaves.begin() + c.size))
          << label;
      for (unsigned p = 0; p < 64; ++p) {
        unsigned row = 0;
        for (std::uint8_t s = 0; s < c.size; ++s) {
          row |= static_cast<unsigned>((sim[c.leaves[s]] >> p) & 1u) << s;
        }
        if (((c.tt >> row) & 1u) != ((sim[n] >> p) & 1u)) ++mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << label << " k=" << k;
}

TEST(CutTest, FunctionsAgreeWithSimulationOnTheCatalog) {
  std::size_t designs = 0;
  for (const int scale : {1, 2}) {
    for (const auto& entry : rtl::designs::standard_catalog(scale)) {
      const auto aig = elaborate(entry.module);
      ASSERT_TRUE(aig.ok()) << entry.name;
      const Aig opt = optimize(*aig, 2);
      const std::string label = entry.name + " s" + std::to_string(scale);
      for (const int k : {3, 6}) {
        expect_cut_functions_match_simulation(opt, k, 11 + designs, label);
      }
      ++designs;
    }
  }
  EXPECT_EQ(designs, 32u);
}

TEST(CutTest, FaninThatIsAMergedLeafEntersAsItsVariable) {
  // x = a & b;  w = x | c;  y = !x & w. The cut {a, b} of x merged with
  // the cut {c, x} of w gives {a, b, c, x}: x is itself a leaf there, so
  // the complemented edge into y must read !x from x's own variable, not
  // !(a & b) from x's cut. Over leaves (a, b, c, x) as variables 0..3,
  // y = c & !x.
  Aig aig;
  const Lit a = aig.add_input("a");
  const Lit b = aig.add_input("b");
  const Lit c = aig.add_input("c");
  const Lit x = aig.and_(a, b);
  const Lit w = aig.or_(x, c);
  const Lit y = aig.and_(lit_not(x), w);
  aig.add_output("y", y);
  const auto cuts = enumerate_cuts(aig, 6);
  Cut want;
  want.leaves = {lit_node(a), lit_node(b), lit_node(c), lit_node(x), 0, 0};
  want.size = 4;
  const auto& ys = cuts[lit_node(y)];
  const auto it = std::find(ys.begin(), ys.end(), want);
  ASSERT_NE(it, ys.end());
  EXPECT_EQ(it->tt, 0xF0F0F0F0F0F0F0F0ULL & ~0xFF00FF00FF00FF00ULL);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    expect_cut_functions_match_simulation(aig, 6, seed, "directed");
  }
}

// --- mapping ----------------------------------------------------------------

netlist::CellLibrary sky_lib() {
  return pdk::build_library(pdk::standard_node("sky130ish").value());
}

/// Lockstep-compares the RTL golden model with the mapped netlist.
void expect_netlist_matches_rtl(const rtl::Module& m,
                                const netlist::Netlist& nl,
                                std::uint64_t seed, int cycles) {
  auto rtl_sim = rtl::Simulator::create(m);
  ASSERT_TRUE(rtl_sim.ok());
  rtl_sim->reset();
  auto nl_sim = netlist::Simulator::create(nl);
  ASSERT_TRUE(nl_sim.ok());
  nl_sim->reset();

  util::Rng rng(seed);
  const auto in_ids = m.inputs();
  const auto out_ids = m.outputs();
  for (int c = 0; c < cycles; ++c) {
    std::vector<std::uint64_t> word_in(in_ids.size());
    std::vector<bool> bit_in;
    for (std::size_t i = 0; i < in_ids.size(); ++i) {
      const int w = m.signal(in_ids[i]).width;
      word_in[i] = rng.next() & (w >= 64 ? ~0uLL : (1uLL << w) - 1);
      for (int b = 0; b < w; ++b) bit_in.push_back(((word_in[i] >> b) & 1) != 0);
    }
    const auto rtl_out = rtl_sim->step(word_in);
    const auto nl_out = nl_sim->step(bit_in);
    std::size_t bit_idx = 0;
    for (std::size_t o = 0; o < out_ids.size(); ++o) {
      const int w = m.signal(out_ids[o]).width;
      std::uint64_t v = 0;
      for (int b = 0; b < w; ++b) {
        v |= (nl_out[bit_idx++] ? 1uLL : 0uLL) << b;
      }
      ASSERT_EQ(v, rtl_out[o]) << "output " << o << " cycle " << c;
    }
  }
}

class MapCatalogTest : public ::testing::TestWithParam<int> {};

TEST_P(MapCatalogTest, MappedNetlistEquivalentToRtl) {
  auto catalog = rtl::designs::standard_catalog();
  auto& entry = catalog[static_cast<std::size_t>(GetParam())];
  const auto aig = elaborate(entry.module);
  ASSERT_TRUE(aig.ok());
  const Aig opt = optimize(*aig, 2);
  const auto lib = sky_lib();
  MapStats stats;
  const auto nl = map_to_library(opt, lib, {}, &stats);
  ASSERT_TRUE(nl.ok()) << entry.name << ": " << nl.status().to_string();
  EXPECT_TRUE(nl->check().ok());
  EXPECT_GT(stats.mapped_cells, 0u);
  expect_netlist_matches_rtl(entry.module, *nl, 1000 + GetParam(), 40);
}

INSTANTIATE_TEST_SUITE_P(Catalog, MapCatalogTest, ::testing::Range(0, 16));

TEST(MapperTest, ComplexCellsReduceCellCount) {
  const auto m = rtl::designs::alu(12);
  const auto aig = elaborate(m);
  ASSERT_TRUE(aig.ok());
  const Aig opt = optimize(*aig, 2);
  const auto lib = sky_lib();
  // The same cells without any of more than two inputs.
  netlist::CellLibrary basic_lib(lib.name() + "_basic", lib.node_name(),
                                 lib.row_height_dbu(), lib.site_width_dbu());
  for (std::size_t i = 0; i < lib.size(); ++i) {
    if (lib.cell(i).num_inputs() <= 2) basic_lib.add_cell(lib.cell(i));
  }
  MapStats s_basic;
  MapStats s_rich;
  ASSERT_TRUE(map_to_library(opt, basic_lib, {}, &s_basic).ok());
  ASSERT_TRUE(map_to_library(opt, lib, {}, &s_rich).ok());
  EXPECT_EQ(s_basic.complex_cells_used, 0u);
  EXPECT_GT(s_rich.complex_cells_used, 0u);
  EXPECT_LT(s_rich.area_um2, s_basic.area_um2);
}

TEST(MapperTest, InitOneLatchFoldsPolarity) {
  // LFSR has reset value 1; mapped netlist must still match RTL.
  const auto m = rtl::designs::lfsr(8);
  const auto aig = elaborate(m);
  ASSERT_TRUE(aig.ok());
  const auto lib = sky_lib();
  const auto nl = map_to_library(optimize(*aig, 2), lib);
  ASSERT_TRUE(nl.ok());
  expect_netlist_matches_rtl(m, *nl, 77, 60);
}

TEST(MapperTest, DelayObjectiveReducesDepth) {
  const auto m = rtl::designs::adder(24);
  const auto aig = elaborate(m);
  ASSERT_TRUE(aig.ok());
  const Aig opt = optimize(*aig, 2);
  const auto lib = sky_lib();
  MapOptions area_opt;
  area_opt.objective = MapObjective::kArea;
  MapOptions delay_opt;
  delay_opt.objective = MapObjective::kDelay;
  const auto nl_area = map_to_library(opt, lib, area_opt);
  const auto nl_delay = map_to_library(opt, lib, delay_opt);
  ASSERT_TRUE(nl_area.ok());
  ASSERT_TRUE(nl_delay.ok());
  EXPECT_LE(nl_delay->logic_depth(), nl_area->logic_depth() + 2);
}

TEST(MapperTest, SizingRespectsMaxLoad) {
  const auto m = rtl::designs::mini_cpu_datapath(8);
  const auto aig = elaborate(m);
  ASSERT_TRUE(aig.ok());
  const auto lib = sky_lib();
  MapOptions opt;
  opt.size_for_load = true;
  const auto nl = map_to_library(optimize(*aig, 2), lib, opt);
  ASSERT_TRUE(nl.ok());
  // After sizing, no driver may exceed its max load unless even the
  // strongest drive cannot carry it.
  for (netlist::CellId id : nl->all_cells()) {
    const auto& lc = nl->lib_cell(id);
    double load = 0.0;
    for (const auto& sink : nl->net(nl->cell(id).output).sinks) {
      load += nl->lib_cell(sink.cell).input_cap_ff;
    }
    const auto strongest = lib.strongest_for(lc.fn);
    if (strongest && lib.cell(*strongest).max_load_ff >= load) {
      EXPECT_LE(load, lc.max_load_ff * 1.0001) << lc.name;
    }
  }
  expect_netlist_matches_rtl(m, *nl, 5, 30);
}

TEST(MapperTest, StatsAreFilled) {
  const auto m = rtl::designs::counter(8);
  const auto aig = elaborate(m);
  ASSERT_TRUE(aig.ok());
  const auto lib = sky_lib();
  MapStats stats;
  ASSERT_TRUE(map_to_library(*aig, lib, {}, &stats).ok());
  EXPECT_EQ(stats.aig_ands, aig->num_ands());
  EXPECT_GT(stats.mapped_cells, 0u);
  EXPECT_GT(stats.area_um2, 0.0);
}

}  // namespace
}  // namespace eurochip::synth
