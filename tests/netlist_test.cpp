#include <gtest/gtest.h>

#include "eurochip/flow/fingerprint.hpp"
#include "eurochip/flow/serialize.hpp"
#include "eurochip/netlist/library.hpp"
#include "eurochip/netlist/netlist.hpp"
#include "eurochip/netlist/simulator.hpp"
#include "eurochip/pdk/library_gen.hpp"
#include "eurochip/pdk/registry.hpp"
#include "eurochip/rtl/designs.hpp"
#include "eurochip/synth/elaborate.hpp"
#include "eurochip/synth/mapper.hpp"
#include "eurochip/synth/opt.hpp"
#include "eurochip/util/rng.hpp"
#include "eurochip/util/wire.hpp"

namespace eurochip::netlist {
namespace {

CellLibrary test_library() {
  const auto node = pdk::standard_node("sky130ish");
  return pdk::build_library(node.value());
}

TEST(CellFnTest, ArityMatchesFunction) {
  EXPECT_EQ(fn_num_inputs(CellFn::kTie0), 0);
  EXPECT_EQ(fn_num_inputs(CellFn::kInv), 1);
  EXPECT_EQ(fn_num_inputs(CellFn::kNand2), 2);
  EXPECT_EQ(fn_num_inputs(CellFn::kMux2), 3);
  EXPECT_EQ(fn_num_inputs(CellFn::kDff), 1);
}

TEST(CellFnTest, TruthTablesEvaluateCorrectly) {
  // inv
  EXPECT_TRUE(fn_eval(CellFn::kInv, 0));
  EXPECT_FALSE(fn_eval(CellFn::kInv, 1));
  // nand2
  EXPECT_TRUE(fn_eval(CellFn::kNand2, 0b00));
  EXPECT_TRUE(fn_eval(CellFn::kNand2, 0b01));
  EXPECT_FALSE(fn_eval(CellFn::kNand2, 0b11));
  // xor2
  EXPECT_FALSE(fn_eval(CellFn::kXor2, 0b00));
  EXPECT_TRUE(fn_eval(CellFn::kXor2, 0b01));
  EXPECT_TRUE(fn_eval(CellFn::kXor2, 0b10));
  EXPECT_FALSE(fn_eval(CellFn::kXor2, 0b11));
  // aoi21: !((a&b)|c), inputs a=bit0 b=bit1 c=bit2
  EXPECT_TRUE(fn_eval(CellFn::kAoi21, 0b000));
  EXPECT_FALSE(fn_eval(CellFn::kAoi21, 0b011));
  EXPECT_FALSE(fn_eval(CellFn::kAoi21, 0b100));
  // mux2: s?b:a, a=bit0 b=bit1 s=bit2
  EXPECT_TRUE(fn_eval(CellFn::kMux2, 0b001));   // s=0 -> a=1
  EXPECT_FALSE(fn_eval(CellFn::kMux2, 0b101));  // s=1 -> b=0
  EXPECT_TRUE(fn_eval(CellFn::kMux2, 0b110));   // s=1 -> b=1
}

TEST(CellFnTest, AllCombinationalTruthTablesConsistentWithArity) {
  for (CellFn fn :
       {CellFn::kTie0, CellFn::kTie1, CellFn::kBuf, CellFn::kInv,
        CellFn::kAnd2, CellFn::kNand2, CellFn::kOr2, CellFn::kNor2,
        CellFn::kXor2, CellFn::kXnor2, CellFn::kAnd3, CellFn::kNand3,
        CellFn::kOr3, CellFn::kNor3, CellFn::kAoi21, CellFn::kOai21,
        CellFn::kMux2}) {
    const int n = fn_num_inputs(fn);
    const std::uint16_t tt = fn_truth_table(fn);
    // Bits above 2^n must be zero (table is exactly 2^n entries wide).
    if (n < 4) {
      EXPECT_EQ(tt >> (1 << n), 0) << to_string(fn);
    }
  }
}

TEST(NldmTableTest, ConstantTable) {
  const NldmTable t = NldmTable::constant(42.0);
  EXPECT_DOUBLE_EQ(t.lookup(0, 0), 42.0);
  EXPECT_DOUBLE_EQ(t.lookup(100, 100), 42.0);
}

TEST(NldmTableTest, BilinearInterpolation) {
  const NldmTable t({0.0, 10.0}, {0.0, 10.0}, {0.0, 10.0, 10.0, 20.0});
  EXPECT_DOUBLE_EQ(t.lookup(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(t.lookup(10, 10), 20.0);
  EXPECT_DOUBLE_EQ(t.lookup(5, 5), 10.0);
  EXPECT_DOUBLE_EQ(t.lookup(0, 5), 5.0);
}

TEST(NldmTableTest, ClampsOutsideRange) {
  const NldmTable t({0.0, 10.0}, {0.0, 10.0}, {0.0, 10.0, 10.0, 20.0});
  EXPECT_DOUBLE_EQ(t.lookup(-5, -5), 0.0);
  EXPECT_DOUBLE_EQ(t.lookup(100, 100), 20.0);
}

TEST(NldmTableTest, RejectsInconsistentShape) {
  EXPECT_THROW(NldmTable({0.0}, {0.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(NldmTable({1.0, 0.0}, {0.0}, {1.0, 2.0}),
               std::invalid_argument);
}

TEST(CellLibraryTest, GeneratedLibraryHasAllFunctions) {
  const CellLibrary lib = test_library();
  EXPECT_GT(lib.size(), 20u);
  for (CellFn fn : {CellFn::kInv, CellFn::kNand2, CellFn::kXor2,
                    CellFn::kMux2, CellFn::kDff}) {
    EXPECT_TRUE(lib.smallest_for(fn).has_value()) << to_string(fn);
  }
}

TEST(CellLibraryTest, FindByName) {
  const CellLibrary lib = test_library();
  const auto idx = lib.find("INV_X1");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(lib.cell(*idx).fn, CellFn::kInv);
  EXPECT_FALSE(lib.find("NO_SUCH_CELL").ok());
}

TEST(CellLibraryTest, DriveStrengthOrdering) {
  const CellLibrary lib = test_library();
  const auto cells = lib.cells_for(CellFn::kNand2);
  ASSERT_GE(cells.size(), 2u);
  for (std::size_t i = 1; i < cells.size(); ++i) {
    EXPECT_LE(lib.cell(cells[i - 1]).drive_strength,
              lib.cell(cells[i]).drive_strength);
    EXPECT_LE(lib.cell(cells[i - 1]).area_um2, lib.cell(cells[i]).area_um2);
  }
  const auto strongest = lib.strongest_for(CellFn::kNand2);
  ASSERT_TRUE(strongest.has_value());
  EXPECT_EQ(lib.cell(*strongest).drive_strength,
            lib.cell(cells.back()).drive_strength);
}

TEST(CellLibraryTest, RejectsDuplicateNames) {
  CellLibrary lib("l", "n", 100, 10);
  LibraryCell c;
  c.name = "X";
  c.fn = CellFn::kInv;
  lib.add_cell(c);
  EXPECT_THROW(lib.add_cell(c), std::invalid_argument);
}

class NetlistFixture : public ::testing::Test {
 protected:
  NetlistFixture() : lib_(test_library()), nl_(&lib_, "t") {}

  std::uint32_t idx(const char* name) {
    return static_cast<std::uint32_t>(lib_.find(name).value());
  }

  CellLibrary lib_;
  Netlist nl_;
};

TEST_F(NetlistFixture, BuildAndCheckSimpleGate) {
  const NetId a = nl_.add_input("a");
  const NetId b = nl_.add_input("b");
  const auto g = nl_.add_cell("g1", idx("NAND2_X1"), {a, b});
  ASSERT_TRUE(g.ok());
  nl_.add_output("y", nl_.cell(g.value()).output);
  EXPECT_TRUE(nl_.check().ok());
  EXPECT_EQ(nl_.num_cells(), 1u);
  EXPECT_EQ(nl_.inputs().size(), 2u);
  EXPECT_EQ(nl_.outputs().size(), 1u);
}

TEST_F(NetlistFixture, ArityMismatchRejected) {
  const NetId a = nl_.add_input("a");
  EXPECT_FALSE(nl_.add_cell("g", idx("NAND2_X1"), {a}).ok());
}

TEST_F(NetlistFixture, RewireInputMaintainsConsistency) {
  const NetId a = nl_.add_input("a");
  const NetId b = nl_.add_input("b");
  const NetId c = nl_.add_input("c");
  const auto g = nl_.add_cell("g1", idx("AND2_X1"), {a, b});
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(nl_.rewire_input(g.value(), 1, c).ok());
  EXPECT_TRUE(nl_.check().ok());
  EXPECT_TRUE(nl_.net(b).sinks.empty());
  ASSERT_EQ(nl_.net(c).sinks.size(), 1u);
  EXPECT_EQ(nl_.cell(g.value()).fanin[1], c);
}

TEST_F(NetlistFixture, ReplaceCellLibRequiresSameFunction) {
  const NetId a = nl_.add_input("a");
  const NetId b = nl_.add_input("b");
  const auto g = nl_.add_cell("g1", idx("AND2_X1"), {a, b});
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(nl_.replace_cell_lib(g.value(), idx("AND2_X2")).ok());
  EXPECT_FALSE(nl_.replace_cell_lib(g.value(), idx("NAND2_X1")).ok());
  EXPECT_EQ(nl_.lib_cell(g.value()).drive_strength, 2);
}

TEST_F(NetlistFixture, TopoOrderRespectsDependencies) {
  const NetId a = nl_.add_input("a");
  const NetId b = nl_.add_input("b");
  const auto g1 = nl_.add_cell("g1", idx("AND2_X1"), {a, b});
  const auto g2 =
      nl_.add_cell("g2", idx("INV_X1"), {nl_.cell(g1.value()).output});
  const auto g3 = nl_.add_cell(
      "g3", idx("OR2_X1"), {nl_.cell(g2.value()).output, a});
  nl_.add_output("y", nl_.cell(g3.value()).output);
  const auto order = nl_.topo_order();
  ASSERT_TRUE(order.ok());
  std::vector<std::uint32_t> pos(nl_.num_cells());
  for (std::size_t i = 0; i < order->size(); ++i) {
    pos[(*order)[i].value] = static_cast<std::uint32_t>(i);
  }
  EXPECT_LT(pos[g1->value], pos[g2->value]);
  EXPECT_LT(pos[g2->value], pos[g3->value]);
}

TEST_F(NetlistFixture, AreaAndLeakageAccumulate) {
  const NetId a = nl_.add_input("a");
  const NetId b = nl_.add_input("b");
  (void)nl_.add_cell("g1", idx("AND2_X1"), {a, b});
  (void)nl_.add_cell("g2", idx("AND2_X1"), {a, b});
  EXPECT_NEAR(nl_.total_area_um2(),
              2 * lib_.cell(idx("AND2_X1")).area_um2, 1e-9);
  EXPECT_GT(nl_.total_leakage_nw(), 0.0);
  EXPECT_EQ(nl_.count_fn(CellFn::kAnd2), 2u);
}

TEST_F(NetlistFixture, LogicDepthCountsLevels) {
  NetId prev = nl_.add_input("a");
  for (int i = 0; i < 5; ++i) {
    const auto g = nl_.add_cell("i" + std::to_string(i), idx("INV_X1"), {prev});
    prev = nl_.cell(g.value()).output;
  }
  nl_.add_output("y", prev);
  EXPECT_EQ(nl_.logic_depth(), 5u);
}

// --- simulator -------------------------------------------------------------

TEST_F(NetlistFixture, SimulatorEvaluatesCombinational) {
  const NetId a = nl_.add_input("a");
  const NetId b = nl_.add_input("b");
  const auto g = nl_.add_cell("g", idx("XOR2_X1"), {a, b});
  nl_.add_output("y", nl_.cell(g.value()).output);
  auto sim = Simulator::create(nl_);
  ASSERT_TRUE(sim.ok());
  EXPECT_EQ(sim->eval({false, false}), std::vector<bool>{false});
  EXPECT_EQ(sim->eval({true, false}), std::vector<bool>{true});
  EXPECT_EQ(sim->eval({true, true}), std::vector<bool>{false});
}

TEST_F(NetlistFixture, SimulatorSequentialToggle) {
  // DFF whose input is the inverse of its output: toggles every cycle.
  const auto inv_idx = idx("INV_X1");
  const auto dff_idx = idx("DFF_X1");
  const NetId tmp = nl_.add_const(false, "seed");
  const auto dff = nl_.add_cell("ff", dff_idx, {tmp});
  const auto inv = nl_.add_cell("nv", inv_idx, {nl_.cell(dff.value()).output});
  ASSERT_TRUE(nl_.rewire_input(dff.value(), 0, nl_.cell(inv.value()).output).ok());
  nl_.add_output("q", nl_.cell(dff.value()).output);
  auto sim = Simulator::create(nl_);
  ASSERT_TRUE(sim.ok());
  sim->reset();
  EXPECT_EQ(sim->step({}), std::vector<bool>{false});
  EXPECT_EQ(sim->step({}), std::vector<bool>{true});
  EXPECT_EQ(sim->step({}), std::vector<bool>{false});
}

TEST_F(NetlistFixture, SimulatorCountsToggles) {
  const NetId a = nl_.add_input("a");
  const auto g = nl_.add_cell("g", idx("INV_X1"), {a});
  nl_.add_output("y", nl_.cell(g.value()).output);
  auto sim = Simulator::create(nl_);
  ASSERT_TRUE(sim.ok());
  (void)sim->eval({false});
  (void)sim->eval({true});
  (void)sim->eval({false});
  const auto& t = sim->toggle_counts();
  EXPECT_EQ(t[a.value], 2u);
  EXPECT_EQ(sim->eval_count(), 3u);
}

TEST_F(NetlistFixture, SimulatorLanesMatchTruthTables) {
  // Lane l sees input assignment l (pin 0 is bit 0 of l), so the output's
  // low 2^n lanes spell out the library's truth table.
  const std::uint64_t kPins[] = {0xAA, 0xCC, 0xF0};
  for (CellFn fn :
       {CellFn::kTie0, CellFn::kTie1, CellFn::kBuf, CellFn::kInv,
        CellFn::kAnd2, CellFn::kNand2, CellFn::kOr2, CellFn::kNor2,
        CellFn::kXor2, CellFn::kXnor2, CellFn::kAnd3, CellFn::kNand3,
        CellFn::kOr3, CellFn::kNor3, CellFn::kAoi21, CellFn::kOai21,
        CellFn::kMux2}) {
    const auto cell = lib_.smallest_for(fn);
    ASSERT_TRUE(cell.has_value()) << to_string(fn);
    Netlist nl(&lib_, to_string(fn));
    const int n = fn_num_inputs(fn);
    std::vector<NetId> fanin;
    for (int k = 0; k < n; ++k) {
      fanin.push_back(nl.add_input("i" + std::to_string(k)));
    }
    const auto g =
        nl.add_cell("g", static_cast<std::uint32_t>(*cell), fanin);
    ASSERT_TRUE(g.ok()) << to_string(fn);
    const NetId y = nl.cell(g.value()).output;
    nl.add_output("y", y);
    auto sim = Simulator::create(nl);
    ASSERT_TRUE(sim.ok()) << to_string(fn);
    sim->reset();
    sim->step_lanes(std::span<const std::uint64_t>(kPins, fanin.size()),
                    0xFF);
    const std::uint64_t rows = std::uint64_t{1} << (1 << n);
    EXPECT_EQ(sim->net_lanes(y) & (rows - 1), fn_truth_table(fn))
        << to_string(fn);
  }
}

TEST_F(NetlistFixture, SimulatorLanesMatchScalarRuns) {
  // 64 seeded stimulus streams on a mapped sequential design: one 64-lane
  // run must equal 64 scalar runs lane by lane, net by net, and in the
  // summed toggle counts.
  const rtl::Module m = rtl::designs::mini_cpu_datapath(8);
  auto mapped =
      synth::map_to_library(synth::optimize(*synth::elaborate(m), 2), lib_);
  ASSERT_TRUE(mapped.ok()) << mapped.status().to_string();
  const Netlist& nl = *mapped;
  ASSERT_FALSE(nl.sequential_cells().empty());
  constexpr int kLanes = 64;
  constexpr int kCycles = 24;

  auto lanes = Simulator::create(nl);
  ASSERT_TRUE(lanes.ok());
  lanes->reset();
  std::vector<Simulator> scalars;
  std::vector<util::Rng> rngs;
  for (int l = 0; l < kLanes; ++l) {
    scalars.push_back(Simulator::create(nl).value());
    scalars.back().reset();
    rngs.emplace_back(1000 + static_cast<std::uint64_t>(l));
  }
  const std::vector<NetId> nets = nl.all_nets();
  std::vector<std::uint64_t> words(lanes->num_inputs());
  std::vector<bool> bits(lanes->num_inputs());
  for (int c = 0; c < kCycles; ++c) {
    std::fill(words.begin(), words.end(), 0);
    std::vector<std::vector<bool>> outs;
    for (int l = 0; l < kLanes; ++l) {
      for (std::size_t i = 0; i < bits.size(); ++i) {
        bits[i] = rngs[l].chance(0.5);
        if (bits[i]) words[i] |= std::uint64_t{1} << l;
      }
      outs.push_back(scalars[l].step(bits));
    }
    lanes->step_lanes(words, ~std::uint64_t{0});
    for (int l = 0; l < kLanes; ++l) {
      for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
        const bool got = (lanes->net_lanes(nl.outputs()[o].net) >> l & 1) != 0;
        ASSERT_EQ(got, outs[l][o]) << "cycle " << c << " lane " << l;
      }
      for (NetId id : nets) {
        const bool got = (lanes->net_lanes(id) >> l & 1) != 0;
        ASSERT_EQ(got, scalars[l].net_value(id))
            << "cycle " << c << " lane " << l << " net " << id.value;
      }
    }
  }
  std::vector<std::uint64_t> summed(nl.num_nets(), 0);
  for (const Simulator& s : scalars) {
    for (std::size_t i = 0; i < summed.size(); ++i) {
      summed[i] += s.toggle_counts()[i];
    }
  }
  EXPECT_EQ(lanes->toggle_counts(), summed);
  EXPECT_EQ(lanes->eval_count(), static_cast<std::uint64_t>(kCycles));
}

TEST_F(NetlistFixture, SimulatorInactiveAndLateLanes) {
  // A DFF fed by its own inverse: q flips on every clock of its lane.
  const NetId seed = nl_.add_const(false, "seed");
  const auto dff = nl_.add_cell("ff", idx("DFF_X1"), {seed});
  const NetId q = nl_.cell(dff.value()).output;
  const auto inv = nl_.add_cell("nv", idx("INV_X1"), {q});
  const NetId nq = nl_.cell(inv.value()).output;
  ASSERT_TRUE(nl_.rewire_input(dff.value(), 0, nq).ok());
  nl_.add_output("q", q);
  auto sim = Simulator::create(nl_);
  ASSERT_TRUE(sim.ok());
  sim->reset();
  constexpr std::uint64_t kEarly = 1;
  constexpr std::uint64_t kLate = std::uint64_t{1} << 63;
  const auto toggles = [&](NetId n) { return sim->toggle_counts()[n.value]; };

  // Fresh lane 0: its first evaluation counts nothing.
  sim->step_lanes({}, kEarly);
  EXPECT_EQ(sim->net_lanes(q), 0u);
  EXPECT_EQ(sim->net_lanes(nq), kEarly);
  EXPECT_EQ(toggles(q) + toggles(nq), 0u);
  sim->step_lanes({}, kEarly);
  EXPECT_EQ(sim->net_lanes(q), kEarly);
  EXPECT_EQ(toggles(q), 1u);
  EXPECT_EQ(toggles(nq), 1u);

  // Lane 63 starts late: its first evaluation changes nq from 0 to 1 but
  // counts nothing; lane 0 counts its flips as usual.
  sim->step_lanes({}, kEarly | kLate);
  EXPECT_EQ(sim->net_lanes(q), 0u);
  EXPECT_EQ(sim->net_lanes(nq), kEarly | kLate);
  EXPECT_EQ(toggles(q), 2u);
  EXPECT_EQ(toggles(nq), 2u);

  // Lane 63 idles: its nets and its DFF state (now 1) hold, and it counts
  // nothing, while lane 0 flips again.
  sim->step_lanes({}, kEarly);
  EXPECT_EQ(sim->net_lanes(q), kEarly);
  EXPECT_EQ(sim->net_lanes(nq), kLate);
  EXPECT_EQ(toggles(q), 3u);
  EXPECT_EQ(toggles(nq), 3u);
  sim->step_lanes({}, 0);
  EXPECT_EQ(sim->net_lanes(q), kEarly);
  EXPECT_EQ(toggles(q), 3u);

  // Lane 63 resumes from its held state: q reads 1, one flip per net.
  sim->step_lanes({}, kLate);
  EXPECT_EQ(sim->net_lanes(q), kEarly | kLate);
  EXPECT_EQ(sim->net_lanes(nq), 0u);
  EXPECT_EQ(toggles(q), 4u);
  EXPECT_EQ(toggles(nq), 4u);

  sim->step_lanes({}, kLate);
  EXPECT_EQ(sim->net_lanes(nq), kLate);
  EXPECT_EQ(toggles(q), 5u);

  // reset() zeroes every lane's state and makes every lane fresh again. A
  // lane idle after the reset keeps the reset state, not the D value still
  // on its nets (lane 63's nq reads 1).
  sim->reset();
  sim->step_lanes({}, kEarly);
  sim->step_lanes({}, kLate);
  EXPECT_EQ(sim->net_lanes(q), 0u);
  EXPECT_EQ(sim->net_lanes(nq), kEarly | kLate);
  EXPECT_EQ(toggles(q), 5u);
  EXPECT_EQ(toggles(nq), 5u);
  EXPECT_EQ(sim->eval_count(), 9u);
}

TEST_F(NetlistFixture, CheckCatchesDanglingInput) {
  const NetId floating = nl_.add_net("floating");
  const NetId a = nl_.add_input("a");
  const auto g = nl_.add_cell("g", idx("AND2_X1"), {a, floating});
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(nl_.check().ok());
}

// --- check() gap regressions (validation added with the SoA core) ----------

TEST_F(NetlistFixture, CheckRejectsInputPortOnNonInputNet) {
  (void)nl_.add_input("a");
  RawNetlist raw = nl_.to_raw();
  // Tamper: the port stays, but its net is no longer input-driven.
  raw.net_driver_kind[raw.inputs[0].net.value] = DriverKind::kNone;
  auto nl = Netlist::from_raw(&lib_, "t", std::move(raw));
  ASSERT_TRUE(nl.ok());
  EXPECT_FALSE(nl->check().ok());
}

TEST_F(NetlistFixture, CheckRejectsInputNetWithoutPort) {
  (void)nl_.add_input("a");
  RawNetlist raw = nl_.to_raw();
  raw.inputs.clear();  // kInput-driven net left behind with no port
  auto nl = Netlist::from_raw(&lib_, "t", std::move(raw));
  ASSERT_TRUE(nl.ok());
  EXPECT_FALSE(nl->check().ok());
}

TEST_F(NetlistFixture, CheckRejectsTwoPortsClaimingOneNet) {
  (void)nl_.add_input("a");
  RawNetlist raw = nl_.to_raw();
  raw.inputs.push_back(raw.inputs[0]);
  auto nl = Netlist::from_raw(&lib_, "t", std::move(raw));
  ASSERT_TRUE(nl.ok());
  EXPECT_FALSE(nl->check().ok());
}

TEST_F(NetlistFixture, CheckRejectsDuplicateSinkForSamePin) {
  const NetId a = nl_.add_input("a");
  const auto g = nl_.add_cell("g", idx("INV_X1"), {a});
  ASSERT_TRUE(g.ok());
  RawNetlist raw = nl_.to_raw();
  // Duplicate net a's (g, pin 0) sink; the image shape stays legal, so
  // from_raw accepts it and check() must be the one to reject.
  const std::uint32_t pos = raw.sink_begin[a.value];
  raw.sink_pool.insert(raw.sink_pool.begin() + pos, raw.sink_pool[pos]);
  for (std::size_t i = a.value + 1; i < raw.sink_begin.size(); ++i) {
    ++raw.sink_begin[i];
  }
  auto nl = Netlist::from_raw(&lib_, "t", std::move(raw));
  ASSERT_TRUE(nl.ok());
  EXPECT_FALSE(nl->check().ok());
}

TEST_F(NetlistFixture, FromRawRejectsMalformedShapes) {
  const NetId a = nl_.add_input("a");
  ASSERT_TRUE(nl_.add_cell("g", idx("INV_X1"), {a}).ok());
  {
    RawNetlist raw = nl_.to_raw();
    raw.cell_fanin_begin.back() += 1;  // CSR end past the pool
    EXPECT_FALSE(Netlist::from_raw(&lib_, "t", std::move(raw)).ok());
  }
  {
    RawNetlist raw = nl_.to_raw();
    raw.cell_name[0].offset = 1u << 30;  // name outside the arena
    EXPECT_FALSE(Netlist::from_raw(&lib_, "t", std::move(raw)).ok());
  }
  {
    RawNetlist raw = nl_.to_raw();
    raw.fanin_pool[0] = NetId{999};  // dangling net id
    EXPECT_FALSE(Netlist::from_raw(&lib_, "t", std::move(raw)).ok());
  }
}

// --- SoA core properties ----------------------------------------------------

TEST_F(NetlistFixture, RewirePreservesRelativeSinkOrder) {
  const NetId a = nl_.add_input("a");
  const NetId b = nl_.add_input("b");
  std::vector<CellId> gs;
  for (int i = 0; i < 3; ++i) {
    gs.push_back(
        nl_.add_cell("g" + std::to_string(i), idx("INV_X1"), {a}).value());
  }
  // Remove the middle sink: survivors keep their relative order (the
  // contract the old vector-erase storage gave analysis kernels).
  ASSERT_TRUE(nl_.rewire_input(gs[1], 0, b).ok());
  auto sinks = nl_.sink_snapshot(a);
  ASSERT_EQ(sinks.size(), 2u);
  EXPECT_EQ(sinks[0].cell, gs[0]);
  EXPECT_EQ(sinks[1].cell, gs[2]);
  // Re-adding appends at the tail.
  ASSERT_TRUE(nl_.rewire_input(gs[1], 0, a).ok());
  sinks = nl_.sink_snapshot(a);
  ASSERT_EQ(sinks.size(), 3u);
  EXPECT_EQ(sinks[2].cell, gs[1]);
  EXPECT_TRUE(nl_.check().ok());
}

TEST_F(NetlistFixture, RandomEditSequenceKeepsIdsAndAdjacencyConsistent) {
  // Property test: a long randomized add_cell / rewire_input /
  // replace_cell_lib sequence against a naive shadow model. Verifies ID
  // stability (a CellId keeps naming the same cell across later edits),
  // fanin contents, and exactly-once sink membership.
  struct ShadowCell {
    std::string name;
    std::uint32_t lib;
    std::vector<NetId> fanin;
  };
  std::vector<ShadowCell> shadow;
  std::vector<NetId> nets;
  for (int i = 0; i < 8; ++i) {
    nets.push_back(nl_.add_input("in" + std::to_string(i)));
  }
  const std::uint32_t and_x1 = idx("AND2_X1");
  const std::uint32_t and_x2 = idx("AND2_X2");
  const std::uint32_t inv_x1 = idx("INV_X1");

  std::uint64_t rng = 12345;
  const auto next = [&rng]() {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(rng >> 33);
  };
  const auto rand_net = [&]() { return nets[next() % nets.size()]; };

  for (int step = 0; step < 1500; ++step) {
    const std::uint32_t roll = next() % 100;
    if (roll < 50 || shadow.empty()) {
      const std::string name = "c" + std::to_string(shadow.size());
      ShadowCell sc;
      sc.lib = (next() % 2 == 0) ? and_x1 : inv_x1;
      sc.name = name;
      sc.fanin.push_back(rand_net());
      if (sc.lib == and_x1) sc.fanin.push_back(rand_net());
      const auto cell = nl_.add_cell(name, sc.lib, sc.fanin);
      ASSERT_TRUE(cell.ok());
      ASSERT_EQ(cell.value().value, shadow.size());  // dense, stable ids
      nets.push_back(nl_.output(cell.value()));
      shadow.push_back(std::move(sc));
    } else if (roll < 85) {
      const CellId cell{next() % static_cast<std::uint32_t>(shadow.size())};
      const auto pin =
          static_cast<std::uint8_t>(next() % shadow[cell.value].fanin.size());
      const NetId to = rand_net();
      ASSERT_TRUE(nl_.rewire_input(cell, pin, to).ok());
      shadow[cell.value].fanin[pin] = to;
    } else {
      const CellId cell{next() % static_cast<std::uint32_t>(shadow.size())};
      if (shadow[cell.value].lib == and_x1 ||
          shadow[cell.value].lib == and_x2) {
        const std::uint32_t to =
            shadow[cell.value].lib == and_x1 ? and_x2 : and_x1;
        ASSERT_TRUE(nl_.replace_cell_lib(cell, to).ok());
        shadow[cell.value].lib = to;
      }
    }
  }

  ASSERT_TRUE(nl_.check().ok());
  ASSERT_EQ(nl_.num_cells(), shadow.size());
  for (std::uint32_t i = 0; i < shadow.size(); ++i) {
    const CellView c = nl_.cell(CellId{i});
    EXPECT_EQ(c.name, shadow[i].name);
    EXPECT_EQ(c.lib_index, shadow[i].lib);
    ASSERT_EQ(c.fanin.size(), shadow[i].fanin.size());
    for (std::size_t p = 0; p < c.fanin.size(); ++p) {
      EXPECT_EQ(c.fanin[p], shadow[i].fanin[p]);
    }
  }
  // Exactly-once adjacency: every connected (cell, pin) appears in
  // precisely its fanin net's sink chain; per-net counts match the shadow.
  std::vector<std::size_t> expected_count(nl_.num_nets(), 0);
  for (std::uint32_t i = 0; i < shadow.size(); ++i) {
    for (std::size_t p = 0; p < shadow[i].fanin.size(); ++p) {
      ++expected_count[shadow[i].fanin[p].value];
      std::size_t hits = 0;
      for (const PinRef& s : nl_.sinks(shadow[i].fanin[p])) {
        if (s.cell.value == i && s.pin == p) ++hits;
      }
      EXPECT_EQ(hits, 1u) << "cell " << i << " pin " << p;
    }
  }
  for (NetId id : nl_.all_nets()) {
    EXPECT_EQ(nl_.num_sinks(id), expected_count[id.value]);
  }
  // The raw SoA image survives a round trip with identical structure.
  auto rt = Netlist::from_raw(&lib_, "t", nl_.to_raw());
  ASSERT_TRUE(rt.ok());
  EXPECT_TRUE(rt->check().ok());
  ASSERT_EQ(rt->num_cells(), nl_.num_cells());
  for (NetId id : nl_.all_nets()) {
    EXPECT_EQ(rt->sink_snapshot(id), nl_.sink_snapshot(id));
  }
}

TEST_F(NetlistFixture, MemoryBytesTracksGrowth) {
  const std::size_t empty = nl_.memory_bytes();
  const NetId a = nl_.add_input("a");
  ASSERT_TRUE(nl_.add_cell("g", idx("INV_X1"), {a}).ok());
  EXPECT_GT(nl_.memory_bytes(), empty);
}

TEST(NetlistScaleTest, SerializeRoundTrip100kCells) {
  // 100k-cell synthetic design through the v2 SoA wire codec: the reload
  // must be digest-equal (including sink order) and pass check().
  const CellLibrary lib = test_library();
  const std::uint32_t nand2 =
      static_cast<std::uint32_t>(lib.cells_for(CellFn::kNand2).front());
  const std::uint32_t dff =
      static_cast<std::uint32_t>(lib.cells_for(CellFn::kDff).front());
  Netlist nl(&lib, "scale100k");
  constexpr std::size_t kCells = 100'000;
  nl.reserve(kCells, kCells + 16, 2 * kCells, 24 * kCells);
  std::vector<NetId> nets;
  for (int i = 0; i < 16; ++i) {
    nets.push_back(nl.add_input("in" + std::to_string(i)));
  }
  std::uint64_t rng = 7;
  const auto next = [&rng]() {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(rng >> 33);
  };
  const auto pick = [&]() { return nets[next() % nets.size()]; };
  for (std::size_t i = 0; i < kCells; ++i) {
    const std::string name = "c" + std::to_string(i);
    const auto cell = next() % 16 == 0
                          ? nl.add_cell(name, dff, {pick()})
                          : nl.add_cell(name, nand2, {pick(), pick()});
    ASSERT_TRUE(cell.ok());
    nets.push_back(nl.output(cell.value()));
  }
  nl.add_output("out", nets.back());
  // A few rewires so the serialized sink order differs from the
  // pin-order reconstruction a naive codec would produce.
  for (int i = 0; i < 100; ++i) {
    const CellId cell{static_cast<std::uint32_t>(next() % kCells)};
    ASSERT_TRUE(nl.rewire_input(cell, 0, pick()).ok());
  }
  ASSERT_TRUE(nl.check().ok());

  util::WireWriter w;
  flow::serialize(w, nl);
  util::WireReader r(w.buffer());
  const auto loaded = flow::deserialize_netlist(r, &lib);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->check().ok());
  EXPECT_TRUE(flow::digest_of(*loaded) == flow::digest_of(nl));
}

}  // namespace
}  // namespace eurochip::netlist
