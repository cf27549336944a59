#include "eurochip/flow/fingerprint.hpp"

namespace eurochip::flow {

namespace {

void hash_id(util::Hasher& h, rtl::SignalId id) { h.u32(id.value); }
void hash_id(util::Hasher& h, rtl::ExprId id) { h.u32(id.value); }
void hash_id(util::Hasher& h, netlist::NetId id) { h.u32(id.value); }
void hash_id(util::Hasher& h, netlist::CellId id) { h.u32(id.value); }

}  // namespace

util::Digest digest_of(const rtl::Module& module) {
  util::Hasher h;
  h.str("rtl.module.v1").str(module.name());
  h.u64(module.signals().size());
  for (const rtl::Signal& s : module.signals()) {
    h.str(s.name).u8(static_cast<std::uint8_t>(s.kind));
    h.i64(s.width);
    hash_id(h, s.binding);
    h.u64(s.reset_value);
  }
  h.u64(module.num_exprs());
  for (std::size_t i = 0; i < module.num_exprs(); ++i) {
    const rtl::Expr& e = module.expr(rtl::ExprId{static_cast<std::uint32_t>(i)});
    h.u8(static_cast<std::uint8_t>(e.op)).i64(e.width).u64(e.imm);
    hash_id(h, e.signal);
    hash_id(h, e.a);
    hash_id(h, e.b);
    hash_id(h, e.c);
  }
  return h.finalize();
}

util::Digest digest_of(const pdk::TechnologyNode& node) {
  util::Hasher h;
  h.str("pdk.node.v1").str(node.name).str(node.foundry);
  h.i64(node.feature_nm).u8(static_cast<std::uint8_t>(node.access));
  h.f64(node.supply_v).f64(node.fo4_delay_ps).f64(node.gate_cap_ff);
  h.f64(node.unit_drive_res_kohm).f64(node.leakage_nw_per_gate);
  h.f64(node.track_pitch_dbu);
  h.i64(node.rules.cell_spacing_dbu).i64(node.rules.core_margin_dbu);
  h.i64(node.rules.site_width_dbu).i64(node.rules.row_height_dbu);
  h.f64(node.rules.max_utilization);
  h.u64(node.layers.size());
  for (const pdk::RoutingLayer& l : node.layers) {
    h.str(l.name).boolean(l.horizontal).i64(l.pitch_dbu);
    h.i64(l.min_width_dbu).i64(l.min_spacing_dbu);
    h.f64(l.res_ohm_per_um).f64(l.cap_ff_per_um);
  }
  return h.finalize();
}

util::Digest digest_of(const netlist::Netlist& netlist) {
  util::Hasher h;
  h.str("netlist.v1").str(netlist.name()).str(netlist.library().name());
  h.u64(netlist.num_cells());
  for (netlist::CellId id : netlist.all_cells()) {
    const netlist::CellView c = netlist.cell(id);
    h.str(c.name).u32(c.lib_index);
    h.u64(c.fanin.size());
    for (netlist::NetId f : c.fanin) hash_id(h, f);
    hash_id(h, c.output);
  }
  h.u64(netlist.num_nets());
  for (netlist::NetId id : netlist.all_nets()) {
    const netlist::NetView n = netlist.net(id);
    h.str(n.name).u8(static_cast<std::uint8_t>(n.driver_kind));
    hash_id(h, n.driver_cell);
    h.boolean(n.is_primary_output);
    h.u64(n.sinks.size());
    for (const netlist::PinRef& s : n.sinks) {
      hash_id(h, s.cell);
      h.u8(s.pin);
    }
  }
  h.u64(netlist.inputs().size());
  for (const netlist::Port& p : netlist.inputs()) {
    h.str(p.name);
    hash_id(h, p.net);
  }
  h.u64(netlist.outputs().size());
  for (const netlist::Port& p : netlist.outputs()) {
    h.str(p.name);
    hash_id(h, p.net);
  }
  return h.finalize();
}

util::Digest digest_of(const place::PlacedDesign& placed) {
  util::Hasher h;
  h.str("placed.v1");
  if (placed.netlist != nullptr) h.digest(digest_of(*placed.netlist));
  const util::Rect die = placed.floorplan.die();
  h.i64(die.lx).i64(die.ly).i64(die.ux).i64(die.uy);
  h.u64(placed.cell_origin.size());
  for (const util::Point& p : placed.cell_origin) h.i64(p.x).i64(p.y);
  h.u64(placed.input_pad.size());
  for (const util::Point& p : placed.input_pad) h.i64(p.x).i64(p.y);
  h.u64(placed.output_pad.size());
  for (const util::Point& p : placed.output_pad) h.i64(p.x).i64(p.y);
  return h.finalize();
}

util::Digest digest_of(const route::RoutedDesign& routed) {
  util::Hasher h;
  h.str("routed.v2");  // v2: per-net geometry (waypoints + segment CSR)
  h.u64(routed.nets.size());
  for (const route::NetRoute& n : routed.nets) {
    hash_id(h, n.net);
    h.i64(n.wirelength_dbu).i64(n.vias).boolean(n.routed);
    h.u64(n.waypoints.size());
    for (const route::RoutePoint& p : n.waypoints) h.i64(p.x).i64(p.y);
    h.u64(n.seg_begin.size());
    for (const std::uint32_t s : n.seg_begin) h.u32(s);
  }
  h.i64(routed.gcell_dbu);
  h.i64(routed.total_wirelength_dbu).i64(routed.total_vias);
  h.i64(routed.overflowed_edges).i64(routed.iterations_used);
  h.f64(routed.max_congestion);
  return h.finalize();
}

void hash_options(util::Hasher& h, const synth::MapOptions& o) {
  h.u8(static_cast<std::uint8_t>(o.objective)).boolean(o.size_for_load);
}

void hash_options(util::Hasher& h, const place::PlacementOptions& o) {
  h.f64(o.target_utilization).i64(o.global_iterations);
  h.i64(o.spreading_rounds).i64(o.detailed_passes);
  h.boolean(o.random_only).u64(o.seed);
}

void hash_options(util::Hasher& h, const route::RouteOptions& o) {
  h.i64(o.gcell_pitches).i64(o.max_ripup_iterations);
  h.f64(o.history_weight).boolean(o.congestion_aware);
}

void hash_options(util::Hasher& h, const power::PowerOptions& o) {
  h.f64(o.clock_mhz).i64(o.activity_cycles).u64(o.seed);
  h.f64(o.default_activity).boolean(o.simulate_activity);
}

}  // namespace eurochip::flow
