// Design-debug provenance (eurochip::dbg): the SymbolTable recorded by the
// reference flow, the query API ("where did my adder go?"), wire-format
// snapshot stability, cache-backed answers, and flight-record rendering.
//
// The acceptance design is mul16 (rtl::designs::multiplier(16)): every RTL
// port and named signal — a, b, p_q, p — must round-trip through where_is()
// to a mapped net, a placed location, and a routed net.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "eurochip/dbg/debug.hpp"
#include "eurochip/dbg/symbols.hpp"
#include "eurochip/flow/cache.hpp"
#include "eurochip/flow/fingerprint.hpp"
#include "eurochip/flow/flow.hpp"
#include "eurochip/flow/serialize.hpp"
#include "eurochip/hub/job.hpp"
#include "eurochip/netlist/verilog.hpp"
#include "eurochip/pdk/registry.hpp"
#include "eurochip/rtl/designs.hpp"
#include "eurochip/util/wire.hpp"
#include "wire_snapshot.hpp"

namespace eurochip {
namespace {

// mul16 is the largest stock design that routes at commercial defaults;
// the open preset congests.
flow::FlowConfig mul_config() {
  flow::FlowConfig cfg;
  cfg.node = pdk::standard_node("commercial28").value();
  cfg.quality = flow::FlowQuality::kCommercial;
  cfg.seed = 16;
  return cfg;
}

// One mul16 reference-flow run, shared by every test that only inspects
// the result.
struct Baked {
  std::unique_ptr<rtl::Module> design;
  flow::FlowContext ctx;
};

const Baked& baked() {
  static const Baked* b = [] {
    auto* out = new Baked;
    out->design =
        std::make_unique<rtl::Module>(rtl::designs::multiplier(16));
    const auto cfg = mul_config();
    auto res = flow::run_reference_flow(*out->design, cfg);
    if (!res.ok()) {
      ADD_FAILURE() << "reference flow failed: " << res.status().to_string();
    } else {
      out->ctx.config = cfg;
      out->ctx.artifacts = std::move(res->artifacts);
      out->ctx.steps = std::move(res->steps);
    }
    out->ctx.artifacts.design = out->design.get();
    return out;
  }();
  return *b;
}

struct NamedSignal {
  const char* name;
  const char* kind;  // BitLocation::kind rendering
  int width;
};

// Every port and named signal of mul16: a/b inputs, p_q product register,
// p output.
const NamedSignal kMul16Signals[] = {
    {"a", "input", 16},
    {"b", "input", 16},
    {"p_q", "reg", 32},
    {"p", "output", 32},
};

// --- symbol table shape ----------------------------------------------------

TEST(DbgSymbolsTest, TableCoversEveryStageAndMatchesTheFinalNetlist) {
  const auto& a = baked().ctx.artifacts;
  ASSERT_NE(a.symbols, nullptr);
  const auto& sym = *a.symbols;

  EXPECT_TRUE(sym.has(dbg::kStageElab));
  EXPECT_TRUE(sym.has(dbg::kStageMap));
  EXPECT_TRUE(sym.has(dbg::kStageNames));
  EXPECT_TRUE(sym.has(dbg::kStageSta));

  ASSERT_NE(a.mapped, nullptr);
  const std::size_t cells = a.mapped->num_cells();
  const std::size_t nets = a.mapped->num_nets();
  EXPECT_EQ(sym.cell_origin.size(), cells);
  EXPECT_EQ(sym.instance_names.size(), cells);
  EXPECT_EQ(sym.net_names.size(), nets);
  EXPECT_EQ(sym.arrival_ps.size(), nets);
  EXPECT_EQ(sym.arrival_min_ps.size(), nets);
  EXPECT_EQ(sym.net_driven.size(), nets);

  EXPECT_EQ(sym.rtl_signals.size(), 4u);
  for (const auto& s : kMul16Signals) {
    const auto* decl = sym.find_rtl_signal(s.name);
    ASSERT_NE(decl, nullptr) << s.name;
    EXPECT_EQ(decl->width, s.width) << s.name;
  }
  EXPECT_EQ(sym.find_rtl_signal("no_such_signal"), nullptr);

  // The frozen names are the verilog writer's spelling — what a student
  // sees in the netlist dump.
  const auto names = netlist::verilog_names(*a.mapped);
  EXPECT_EQ(sym.sv(sym.module_name), names.module_name);
  ASSERT_EQ(sym.instance_names.size(), names.instance_names.size());
  for (std::size_t i = 0; i < names.instance_names.size(); ++i) {
    EXPECT_EQ(sym.sv(sym.instance_names[i]), names.instance_names[i]);
  }

  // Bit bindings: one per bit of every named signal, ascending bit order.
  const auto pq = sym.find_bits("p_q");
  ASSERT_EQ(pq.size(), 32u);
  EXPECT_EQ(sym.sv(pq[0]->name), "p_q[0]");
  EXPECT_EQ(sym.sv(pq[31]->name), "p_q[31]");
  for (const auto* bit : pq) {
    EXPECT_EQ(bit->kind, dbg::SymbolTable::BitKind::kReg);
    EXPECT_NE(bit->cell.value, netlist::CellId::kInvalid);
  }
}

// --- where_is round trip ---------------------------------------------------

void expect_where_is_round_trips(const flow::FlowContext& ctx) {
  for (const auto& s : kMul16Signals) {
    const auto r = dbg::answer(dbg::Query::where_is(s.name), ctx);
    ASSERT_TRUE(r.found) << s.name << ": " << r.text;
    EXPECT_EQ(r.where_is.rtl_name, s.name);
    EXPECT_EQ(r.where_is.declared_width, s.width) << s.name;
    ASSERT_EQ(r.where_is.bits.size(), static_cast<std::size_t>(s.width))
        << s.name;
    for (const auto& bit : r.where_is.bits) {
      EXPECT_EQ(bit.kind, s.kind) << bit.bit_name;
      EXPECT_NE(bit.net, netlist::NetId::kInvalid) << bit.bit_name;
      EXPECT_TRUE(bit.placed) << bit.bit_name;
      EXPECT_TRUE(bit.routed) << bit.bit_name;
      if (std::string(s.kind) == "reg") {
        EXPECT_NE(bit.cell, netlist::CellId::kInvalid) << bit.bit_name;
        EXPECT_FALSE(bit.cell_name.empty()) << bit.bit_name;
        EXPECT_TRUE(bit.timed) << bit.bit_name;
        EXPECT_GE(bit.arrival_ps, 0.0) << bit.bit_name;
      }
      if (std::string(s.kind) == "output") {
        EXPECT_TRUE(bit.timed) << bit.bit_name;
        EXPECT_GT(bit.arrival_ps, 0.0) << bit.bit_name;
      }
    }
  }
  // Unknown names answer found=false with an explanation, not an error.
  const auto miss = dbg::answer(dbg::Query::where_is("carry_out"), ctx);
  EXPECT_FALSE(miss.found);
  EXPECT_FALSE(miss.text.empty());
}

TEST(DbgWhereIsTest, RoundTripsEveryNamedSignalOfMul16) {
  expect_where_is_round_trips(baked().ctx);
}

// --- why_slack -------------------------------------------------------------

TEST(DbgWhySlackTest, WorstEndpointCarriesTheCriticalPath) {
  const auto r = dbg::answer(dbg::Query::why_slack(), baked().ctx);
  ASSERT_TRUE(r.found) << r.text;
  EXPECT_FALSE(r.why_slack.endpoint.empty());
  EXPECT_TRUE(r.why_slack.is_critical);
  EXPECT_FALSE(r.why_slack.path.empty());
  EXPECT_NEAR(r.why_slack.slack_ps,
              r.why_slack.required_ps - r.why_slack.arrival_ps, 1e-6);
  EXPECT_NEAR(r.why_slack.slack_ps, baked().ctx.artifacts.timing.wns_ps,
              1e-6);

  const auto miss =
      dbg::answer(dbg::Query::why_slack("no_such_endpoint"), baked().ctx);
  EXPECT_FALSE(miss.found);
}

// --- net_route geometry ----------------------------------------------------

TEST(DbgNetRouteTest, WaypointGeometryReproducesEveryNetsWirelength) {
  const auto& routed = *baked().ctx.artifacts.routed;
  ASSERT_GT(routed.gcell_dbu, 0);
  std::size_t checked = 0;
  for (const auto& net : routed.nets) {
    if (!net.routed) continue;
    ASSERT_GE(net.seg_begin.size(), 2u);
    ASSERT_EQ(net.seg_begin.front(), 0u);
    ASSERT_EQ(net.seg_begin.back(), net.waypoints.size());
    std::int64_t length = 0;
    for (std::size_t s = 0; s + 1 < net.seg_begin.size(); ++s) {
      const std::uint32_t lo = net.seg_begin[s];
      const std::uint32_t hi = net.seg_begin[s + 1];
      if (hi - lo < 2) {
        length += routed.gcell_dbu / 2;  // same-gcell connection
        continue;
      }
      for (std::uint32_t i = lo; i + 1 < hi; ++i) {
        const auto& p = net.waypoints[i];
        const auto& q = net.waypoints[i + 1];
        length += (std::abs(static_cast<std::int64_t>(q.x) - p.x) +
                   std::abs(static_cast<std::int64_t>(q.y) - p.y)) *
                  routed.gcell_dbu;
      }
    }
    EXPECT_EQ(length, net.wirelength_dbu) << "net " << net.net.value;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(DbgNetRouteTest, QueryResolvesAnRtlBitToItsGeometry) {
  const auto r = dbg::answer(dbg::Query::net_route("p_q[0]"), baked().ctx);
  ASSERT_TRUE(r.found) << r.text;
  EXPECT_NE(r.net_route.net, netlist::NetId::kInvalid);
  EXPECT_TRUE(r.net_route.is_routed);
  EXPECT_EQ(r.net_route.gcell_dbu, baked().ctx.artifacts.routed->gcell_dbu);
  EXPECT_FALSE(r.net_route.segments.empty());
  const auto& net = baked().ctx.artifacts.routed->nets.at(r.net_route.net);
  EXPECT_EQ(r.net_route.wirelength_dbu, net.wirelength_dbu);
  EXPECT_EQ(r.net_route.vias, net.vias);
}

// --- cone_of ---------------------------------------------------------------

TEST(DbgConeTest, OutputConeReachesThePrimaryInputs) {
  const auto r = dbg::answer(dbg::Query::cone_of("p[4]"), baked().ctx);
  ASSERT_TRUE(r.found) << r.text;
  EXPECT_FALSE(r.cone.cells.empty());
  EXPECT_FALSE(r.cone.inputs.empty());
  EXPECT_GE(r.cone.depth, 1u);
  for (const auto& in : r.cone.inputs) {
    EXPECT_TRUE(in.rfind("a[", 0) == 0 || in.rfind("b[", 0) == 0) << in;
  }
}

// --- wire format -----------------------------------------------------------

template <typename T>
std::vector<std::uint8_t> bytes_of(const T& value) {
  util::WireWriter w;
  flow::serialize(w, value);
  return std::move(w).take();
}

TEST(DbgSerializeTest, SymbolTableRoundTripIsByteStable) {
  const auto& sym = *baked().ctx.artifacts.symbols;
  const auto bytes = bytes_of(sym);
  util::WireReader r(bytes);
  auto back = flow::deserialize_symbols(r);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->stage_mask, sym.stage_mask);
  EXPECT_EQ(back->arena(), sym.arena());
  EXPECT_EQ(back->bits.size(), sym.bits.size());
  EXPECT_EQ(back->arrival_ps, sym.arrival_ps);
  EXPECT_EQ(bytes_of(*back), bytes);  // re-encoding is the identity
}

TEST(DbgSerializeTest, SnapshotCarriesSymbolsAndStaysDigestStable) {
  const auto& b = baked();
  const wire_test::WireSnapshot wire = wire_test::to_wire(b.ctx);
  // Every step that writes symbols ships them in its entry.
  const flow::FlowTemplate tmpl = flow::reference_template();
  for (std::size_t i = 0; i < tmpl.steps().size(); ++i) {
    if ((tmpl.steps()[i].writes & flow::slot_bit(flow::kSymbolsSlot)) == 0) {
      continue;
    }
    flow::FlowArtifacts a = b.ctx.artifacts;
    a.symbols = nullptr;
    flow::ArtifactMask writes = 0;
    flow::StepRecord record;
    ASSERT_TRUE(flow::deserialize_entry(wire.keys[i], wire.entries[i], a,
                                        writes, record)
                    .ok())
        << tmpl.steps()[i].name;
    EXPECT_NE(a.symbols, nullptr) << tmpl.steps()[i].name;
  }

  flow::FlowContext restored;
  restored.config = b.ctx.config;
  restored.artifacts.design = b.design.get();
  const auto st = wire_test::from_wire(wire, restored);
  ASSERT_TRUE(st.ok()) << st.to_string();

  ASSERT_NE(restored.artifacts.symbols, nullptr);
  EXPECT_EQ(restored.artifacts.symbols->stage_mask,
            b.ctx.artifacts.symbols->stage_mask);
  EXPECT_TRUE(flow::digest_of(*restored.artifacts.routed) ==
              flow::digest_of(*b.ctx.artifacts.routed));

  // Digest-stable across save/load: re-serializing the restored context
  // yields the identical entries.
  const wire_test::WireSnapshot again = wire_test::to_wire(restored);
  EXPECT_EQ(again.entries, wire.entries);

  // The restored context answers queries like the live one.
  expect_where_is_round_trips(restored);
}

// --- cache-backed answers --------------------------------------------------

TEST(DbgCacheTest, AnswersFromTheDeepestCachedSnapshot) {
  const auto design = rtl::designs::multiplier(8);
  flow::FlowCache cache(flow::FlowCache::Options{.max_bytes = 256u << 20});
  auto cfg = mul_config();
  cfg.seed = 8;

  // Nothing resident yet: NotFound, not a crash.
  const auto cold =
      dbg::answer_from_cache(dbg::Query::where_is("p_q"), design, cfg, cache);
  EXPECT_FALSE(cold.ok());

  cfg.cache = &cache;
  auto run = flow::run_reference_flow(design, cfg);
  ASSERT_TRUE(run.ok()) << run.status().to_string();

  const auto warm =
      dbg::answer_from_cache(dbg::Query::where_is("p_q"), design, cfg, cache);
  ASSERT_TRUE(warm.ok()) << warm.status().to_string();
  ASSERT_TRUE(warm->found) << warm->text;
  ASSERT_EQ(warm->where_is.bits.size(), 16u);
  for (const auto& bit : warm->where_is.bits) {
    EXPECT_TRUE(bit.placed) << bit.bit_name;
    EXPECT_TRUE(bit.routed) << bit.bit_name;
  }

  const auto slack =
      dbg::answer_from_cache(dbg::Query::why_slack(), design, cfg, cache);
  ASSERT_TRUE(slack.ok()) << slack.status().to_string();
  EXPECT_TRUE(slack->found);
  EXPECT_FALSE(slack->why_slack.path.empty());
}

// --- flight record rendering ----------------------------------------------

TEST(DbgFlightTest, RenderSortsEntriesByTimestamp) {
  hub::JobRecord rec;
  rec.id = 7;
  rec.name = "out-of-order";
  rec.state = hub::JobState::kSucceeded;
  rec.flight = {
      {5.0, "step", "zeta", ""},
      {1.0, "submit", "alpha", ""},
      {3.0, "park", "beta", "flow parked at breakpoint"},
      {3.0, "resume", "gamma", "parked 1 ms"},  // stable: keeps park first
      {2.0, "start", "delta", ""},
  };
  const auto text = hub::render_flight_record(rec);
  const auto pos = [&](const char* label) {
    const auto p = text.find(label);
    EXPECT_NE(p, std::string::npos) << label << " missing:\n" << text;
    return p;
  };
  EXPECT_LT(pos("alpha"), pos("delta"));
  EXPECT_LT(pos("delta"), pos("beta"));
  EXPECT_LT(pos("beta"), pos("gamma"));  // equal t_ms: submission order
  EXPECT_LT(pos("gamma"), pos("zeta"));
}

}  // namespace
}  // namespace eurochip
