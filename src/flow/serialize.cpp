#include "eurochip/flow/serialize.hpp"

#include <algorithm>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "eurochip/util/digest.hpp"

namespace eurochip::flow {

namespace {

util::Status bad(const std::string& what) {
  return util::Status::Internal("wire: " + what);
}

void write_point(util::WireWriter& w, const util::Point& p) {
  w.i64(p.x).i64(p.y);
}

// Braced initializers evaluate left to right, so these read in field order.
util::Point read_point(util::WireReader& r) { return {r.i64(), r.i64()}; }

void write_rect(util::WireWriter& w, const util::Rect& rect) {
  w.i64(rect.lx).i64(rect.ly).i64(rect.ux).i64(rect.uy);
}

util::Rect read_rect(util::WireReader& r) {
  return {r.i64(), r.i64(), r.i64(), r.i64()};
}

/// Reads `n` elements with `read_one`, stopping once the reader fails.
template <typename F>
auto read_n(util::WireReader& r, std::size_t n, F read_one) {
  std::vector<decltype(read_one())> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n && r.ok(); ++i) v.push_back(read_one());
  return v;
}

/// A size-prefixed sequence.
template <typename F>
auto read_seq(util::WireReader& r, F read_one) {
  const std::size_t n = r.size();
  return read_n(r, n, read_one);
}

void write_doubles(util::WireWriter& w, const std::vector<double>& v) {
  w.size(v.size());
  for (const double x : v) w.f64(x);
}

std::vector<double> read_doubles(util::WireReader& r) {
  return read_seq(r, [&r] { return r.f64(); });
}

void write_table(util::WireWriter& w, const netlist::NldmTable& t) {
  write_doubles(w, t.slew_axis());
  write_doubles(w, t.load_axis());
  write_doubles(w, t.values());
}

/// NldmTable's constructor throws on inconsistent grids, so the vectors
/// are validated here first and a corrupt stream fails the reader instead.
util::Result<netlist::NldmTable> read_table(util::WireReader& r) {
  std::vector<double> slew = read_doubles(r);
  std::vector<double> load = read_doubles(r);
  std::vector<double> values = read_doubles(r);
  if (!r.ok()) return bad("truncated NLDM table");
  if (slew.empty() && load.empty() && values.empty()) {
    return netlist::NldmTable();  // default-constructed empty table
  }
  if (slew.empty() || load.empty() ||
      values.size() != slew.size() * load.size() ||
      !std::is_sorted(slew.begin(), slew.end()) ||
      !std::is_sorted(load.begin(), load.end())) {
    r.fail();
    return bad("inconsistent NLDM table");
  }
  return netlist::NldmTable(std::move(slew), std::move(load),
                            std::move(values));
}

}  // namespace

// --- CellLibrary ----------------------------------------------------------

void serialize(util::WireWriter& w, const netlist::CellLibrary& lib) {
  w.str(lib.name()).str(lib.node_name());
  w.i64(lib.row_height_dbu()).i64(lib.site_width_dbu());
  w.size(lib.size());
  for (std::size_t i = 0; i < lib.size(); ++i) {
    const netlist::LibraryCell& c = lib.cell(i);
    w.str(c.name).u8(static_cast<std::uint8_t>(c.fn));
    w.i64(c.drive_strength);
    w.f64(c.area_um2).f64(c.leakage_nw).f64(c.input_cap_ff);
    w.f64(c.output_cap_ff).f64(c.max_load_ff);
    w.i64(c.width_dbu);
    write_table(w, c.delay_ps);
    write_table(w, c.output_slew_ps);
  }
}

util::Result<netlist::CellLibrary> deserialize_library(util::WireReader& r) {
  std::string name = r.str();
  std::string node_name = r.str();
  const std::int64_t row_height = r.i64();
  const std::int64_t site_width = r.i64();
  netlist::CellLibrary lib(std::move(name), std::move(node_name), row_height,
                           site_width);
  const std::size_t n = r.size();
  for (std::size_t i = 0; i < n && r.ok(); ++i) {
    netlist::LibraryCell c;
    c.name = r.str();
    const std::uint8_t fn = r.u8();
    if (fn > static_cast<std::uint8_t>(netlist::CellFn::kDff)) {
      return bad("unknown cell function");
    }
    c.fn = static_cast<netlist::CellFn>(fn);
    c.drive_strength = static_cast<int>(r.i64());
    c.area_um2 = r.f64();
    c.leakage_nw = r.f64();
    c.input_cap_ff = r.f64();
    c.output_cap_ff = r.f64();
    c.max_load_ff = r.f64();
    c.width_dbu = r.i64();
    auto delay = read_table(r);
    if (!delay.ok()) return delay.status();
    c.delay_ps = std::move(*delay);
    auto slew = read_table(r);
    if (!slew.ok()) return slew.status();
    c.output_slew_ps = std::move(*slew);
    lib.add_cell(std::move(c));
  }
  if (!r.ok()) return bad("truncated library");
  return lib;
}

// --- Aig ------------------------------------------------------------------

void serialize(util::WireWriter& w, const synth::Aig& aig) {
  // Names live in parallel vectors keyed by position; index them by node
  // id once so the node loop stays O(1) per node.
  std::unordered_map<std::uint32_t, const std::string*> name_of;
  for (std::size_t i = 0; i < aig.inputs().size(); ++i) {
    name_of[aig.inputs()[i]] = &aig.input_names()[i];
  }
  for (std::size_t i = 0; i < aig.latches().size(); ++i) {
    name_of[aig.latches()[i]] = &aig.latch_names()[i];
  }
  w.size(aig.num_nodes());
  for (std::uint32_t id = 1; id < aig.num_nodes(); ++id) {
    const synth::AigNode& node = aig.node(id);
    w.u8(static_cast<std::uint8_t>(node.kind));
    switch (node.kind) {
      case synth::NodeKind::kInput:
        w.str(*name_of.at(id));
        break;
      case synth::NodeKind::kLatch:
        w.str(*name_of.at(id)).boolean(aig.latch_init(id));
        break;
      case synth::NodeKind::kAnd:
        w.u32(node.fanin0).u32(node.fanin1);
        break;
      case synth::NodeKind::kConst:
        break;  // only node 0; never reached for id >= 1
    }
  }
  w.size(aig.latches().size());
  for (const std::uint32_t latch : aig.latches()) {
    w.u32(aig.latch_next(latch));
  }
  w.size(aig.outputs().size());
  for (const synth::AigOutput& out : aig.outputs()) {
    w.str(out.name).u32(out.lit);
  }
}

util::Result<synth::Aig> deserialize_aig(util::WireReader& r) {
  synth::Aig aig;
  const std::size_t num_nodes = r.size();
  if (r.ok() && num_nodes == 0) return bad("AIG without constant node");
  for (std::uint32_t id = 1; id < num_nodes && r.ok(); ++id) {
    const std::uint8_t kind = r.u8();
    switch (static_cast<synth::NodeKind>(kind)) {
      case synth::NodeKind::kInput: {
        const synth::Lit lit = aig.add_input(r.str());
        if (synth::lit_node(lit) != id) return bad("AIG input id drift");
        break;
      }
      case synth::NodeKind::kLatch: {
        std::string name = r.str();
        const bool init = r.boolean();
        const synth::Lit lit = aig.add_latch(std::move(name), init);
        if (synth::lit_node(lit) != id) return bad("AIG latch id drift");
        break;
      }
      case synth::NodeKind::kAnd: {
        const synth::Lit f0 = r.u32();
        const synth::Lit f1 = r.u32();
        if (synth::lit_node(f0) >= id || synth::lit_node(f1) >= id) {
          return bad("AIG fanin ahead of node");
        }
        // Replay through the structural hash: the original graph already
        // survived folding, so and_() must recreate this exact node. Any
        // drift means the stream and this strash disagree — reject rather
        // than return a structurally different graph under the same key.
        const synth::Lit lit = aig.and_(f0, f1);
        if (lit != synth::make_lit(id, false)) {
          return bad("AIG strash replay mismatch");
        }
        break;
      }
      default:
        return bad("unknown AIG node kind");
    }
  }
  const std::size_t num_latches = r.size();
  if (r.ok() && num_latches != aig.latches().size()) {
    return bad("AIG latch count mismatch");
  }
  for (std::size_t i = 0; i < num_latches && r.ok(); ++i) {
    const synth::Lit next = r.u32();
    if (synth::lit_node(next) >= aig.num_nodes()) {
      return bad("AIG latch next out of range");
    }
    aig.set_latch_next(synth::make_lit(aig.latches()[i], false), next);
  }
  const std::size_t num_outputs = r.size();
  for (std::size_t i = 0; i < num_outputs && r.ok(); ++i) {
    std::string name = r.str();
    const synth::Lit lit = r.u32();
    if (synth::lit_node(lit) >= aig.num_nodes()) {
      return bad("AIG output out of range");
    }
    aig.add_output(std::move(name), lit);
  }
  if (!r.ok()) return bad("truncated AIG");
  return aig;
}

// --- Netlist --------------------------------------------------------------

// v2 codec: the netlist ships as its raw SoA image — one interned-name
// arena plus flat arrays (see netlist::RawNetlist) — so encode/decode is a
// handful of tight loops over PODs instead of per-object string and vector
// traffic. Sinks are written explicitly in chain order rather than rebuilt
// from fanins on load: rewire history leaves sinks ordered differently
// than pin-order reconstruction would, and digests hash sink order, so a
// round trip must preserve it to stay digest-equal.

void serialize(util::WireWriter& w, const netlist::Netlist& nl) {
  const netlist::RawNetlist raw = nl.to_raw();
  w.str(nl.name());
  w.str(raw.name_arena);
  w.size(raw.cell_lib.size());
  for (const netlist::NameRef n : raw.cell_name) w.u32(n.offset).u32(n.size);
  for (const std::uint32_t lib : raw.cell_lib) w.u32(lib);
  for (const std::uint32_t off : raw.cell_fanin_begin) w.u32(off);
  for (const netlist::NetId f : raw.fanin_pool) w.u32(f.value);
  for (const netlist::NetId o : raw.cell_output) w.u32(o.value);
  w.size(raw.net_driver_kind.size());
  for (const netlist::NameRef n : raw.net_name) w.u32(n.offset).u32(n.size);
  for (const netlist::DriverKind k : raw.net_driver_kind) {
    w.u8(static_cast<std::uint8_t>(k));
  }
  for (const netlist::CellId c : raw.net_driver_cell) w.u32(c.value);
  for (const std::uint8_t b : raw.net_is_output) w.u8(b);
  for (const std::uint32_t off : raw.sink_begin) w.u32(off);
  for (const netlist::PinRef& s : raw.sink_pool) w.u32(s.cell.value).u8(s.pin);
  const auto write_ports = [&w](const std::vector<netlist::Port>& ports) {
    w.size(ports.size());
    for (const netlist::Port& p : ports) w.str(p.name).u32(p.net.value);
  };
  write_ports(nl.inputs());
  write_ports(nl.outputs());
}

util::Result<netlist::Netlist> deserialize_netlist(
    util::WireReader& r, const netlist::CellLibrary* library) {
  if (library == nullptr) return bad("netlist without library");
  std::string name = r.str();
  netlist::RawNetlist raw;
  raw.name_arena = r.str();
  const auto read_u32 = [&r] { return r.u32(); };
  const auto read_name = [&r] { return netlist::NameRef{r.u32(), r.u32()}; };
  const auto read_net = [&r] { return netlist::NetId{r.u32()}; };
  const std::size_t num_cells = r.size();
  raw.cell_name = read_n(r, num_cells, read_name);
  raw.cell_lib = read_n(r, num_cells, read_u32);
  for (const std::uint32_t lib : raw.cell_lib) {
    if (lib >= library->size()) return bad("cell library index out of range");
  }
  raw.cell_fanin_begin = read_n(r, num_cells + 1, read_u32);
  const std::size_t num_fanins =
      r.ok() && !raw.cell_fanin_begin.empty() ? raw.cell_fanin_begin.back() : 0;
  raw.fanin_pool = read_n(r, num_fanins, read_net);
  raw.cell_output = read_n(r, num_cells, read_net);
  const std::size_t num_nets = r.size();
  raw.net_name = read_n(r, num_nets, read_name);
  raw.net_driver_kind = read_n(
      r, num_nets, [&r] { return static_cast<netlist::DriverKind>(r.u8()); });
  for (const netlist::DriverKind k : raw.net_driver_kind) {
    if (k > netlist::DriverKind::kConst1) return bad("unknown net driver kind");
  }
  raw.net_driver_cell =
      read_n(r, num_nets, [&r] { return netlist::CellId{r.u32()}; });
  raw.net_is_output = read_n(r, num_nets, [&r] { return r.u8(); });
  raw.sink_begin = read_n(r, num_nets + 1, read_u32);
  const std::size_t num_sinks =
      r.ok() && !raw.sink_begin.empty() ? raw.sink_begin.back() : 0;
  raw.sink_pool = read_n(r, num_sinks, [&r] {
    return netlist::PinRef{netlist::CellId{r.u32()}, r.u8()};
  });
  const auto read_port = [&] { return netlist::Port{r.str(), read_net()}; };
  raw.inputs = read_seq(r, read_port);
  raw.outputs = read_seq(r, read_port);
  if (!r.ok()) return bad("truncated netlist");
  for (const netlist::Port& p : raw.inputs) {
    if (p.net.valid() && p.net.value >= num_nets) {
      return bad("input port net out of range");
    }
  }
  for (const netlist::Port& p : raw.outputs) {
    if (p.net.valid() && p.net.value >= num_nets) {
      return bad("output port net out of range");
    }
  }
  // from_raw validates the shape (CSR monotonicity, name refs inside the
  // arena, ids in range); callers run check() for semantic invariants.
  return netlist::Netlist::from_raw(library, std::move(name), std::move(raw));
}

// --- PlacedDesign ---------------------------------------------------------

void serialize(util::WireWriter& w, const place::PlacedDesign& placed) {
  const place::Floorplan& fp = placed.floorplan;
  write_rect(w, fp.die());
  write_rect(w, fp.core());
  w.size(fp.rows().size());
  for (const place::Row& row : fp.rows()) write_rect(w, row.bounds);
  w.i64(fp.site_width()).i64(fp.row_height()).f64(fp.utilization());
  const auto write_points = [&w](const std::vector<util::Point>& pts) {
    w.size(pts.size());
    for (const util::Point& p : pts) write_point(w, p);
  };
  write_points(placed.cell_origin);
  write_points(placed.input_pad);
  write_points(placed.output_pad);
  // net_pad_points is derived; the reader rebuilds it via build_pad_index.
}

util::Result<place::PlacedDesign> deserialize_placed(
    util::WireReader& r, const netlist::Netlist* netlist) {
  if (netlist == nullptr) return bad("placement without netlist");
  place::PlacedDesign placed;
  placed.netlist = netlist;
  const util::Rect die = read_rect(r);
  const util::Rect core = read_rect(r);
  std::vector<place::Row> rows =
      read_seq(r, [&r] { return place::Row{read_rect(r)}; });
  const std::int64_t site_width = r.i64();
  const std::int64_t row_height = r.i64();
  const double utilization = r.f64();
  placed.floorplan = place::Floorplan::from_raw(
      die, core, std::move(rows), site_width, row_height, utilization);
  const auto read_pt = [&r] { return read_point(r); };
  placed.cell_origin = read_seq(r, read_pt);
  placed.input_pad = read_seq(r, read_pt);
  placed.output_pad = read_seq(r, read_pt);
  if (!r.ok()) return bad("truncated placement");
  if (placed.cell_origin.size() != netlist->num_cells() ||
      placed.input_pad.size() != netlist->inputs().size() ||
      placed.output_pad.size() != netlist->outputs().size()) {
    return bad("placement does not match netlist shape");
  }
  placed.build_pad_index();
  return placed;
}

// --- ClockTree ------------------------------------------------------------

void serialize(util::WireWriter& w, const cts::ClockTree& tree) {
  w.size(tree.nodes.size());
  for (const cts::TreeNode& n : tree.nodes) {
    write_point(w, n.location);
    w.size(n.children.size());
    for (const std::uint32_t c : n.children) w.u32(c);
    w.size(n.sinks.size());
    for (const netlist::CellId s : n.sinks) w.u32(s.value);
    w.i64(n.level).f64(n.segment_length_um);
  }
  w.u64(tree.num_sinks);  // scalar count, not a container prefix
  w.i64(tree.buffer_count).i64(tree.depth);
  w.f64(tree.total_wirelength_um);
  w.f64(tree.max_insertion_delay_ps).f64(tree.min_insertion_delay_ps);
  w.f64(tree.clock_cap_ff);
}

util::Result<cts::ClockTree> deserialize_clock_tree(util::WireReader& r) {
  cts::ClockTree tree;
  tree.nodes = read_seq(r, [&r] {
    cts::TreeNode n;
    n.location = read_point(r);
    n.children = read_seq(r, [&r] { return r.u32(); });
    n.sinks = read_seq(r, [&r] { return netlist::CellId{r.u32()}; });
    n.level = static_cast<int>(r.i64());
    n.segment_length_um = r.f64();
    return n;
  });
  for (const cts::TreeNode& n : tree.nodes) {
    for (const std::uint32_t c : n.children) {
      if (c >= tree.nodes.size()) return bad("clock-tree child out of range");
    }
  }
  tree.num_sinks = static_cast<std::size_t>(r.u64());
  tree.buffer_count = static_cast<int>(r.i64());
  tree.depth = static_cast<int>(r.i64());
  tree.total_wirelength_um = r.f64();
  tree.max_insertion_delay_ps = r.f64();
  tree.min_insertion_delay_ps = r.f64();
  tree.clock_cap_ff = r.f64();
  if (!r.ok()) return bad("truncated clock tree");
  return tree;
}

// --- RoutedDesign ---------------------------------------------------------

void serialize(util::WireWriter& w, const route::RoutedDesign& routed) {
  w.size(routed.nets.size());
  for (const route::NetRoute& n : routed.nets) {
    w.u32(n.net.value).i64(n.wirelength_dbu).i64(n.vias).boolean(n.routed);
    // v3: the per-net geometry (bend waypoints in gcell coordinates plus
    // the CSR segment index) the debug service renders net_route from.
    w.size(n.waypoints.size());
    for (const route::RoutePoint& p : n.waypoints) {
      w.i64(p.x).i64(p.y);
    }
    w.size(n.seg_begin.size());
    for (const std::uint32_t s : n.seg_begin) w.u32(s);
  }
  w.i64(routed.gcell_dbu);
  w.i64(routed.total_wirelength_dbu).i64(routed.total_vias);
  w.i64(routed.overflowed_edges).i64(routed.iterations_used);
  w.f64(routed.max_congestion);
}

util::Result<route::RoutedDesign> deserialize_routed(
    util::WireReader& r, const place::PlacedDesign* placed) {
  if (placed == nullptr) return bad("routing without placement");
  route::RoutedDesign routed;
  routed.placed = placed;
  routed.nets = read_seq(r, [&r] {
    route::NetRoute n;
    n.net = netlist::NetId{r.u32()};
    n.wirelength_dbu = r.i64();
    n.vias = static_cast<int>(r.i64());
    n.routed = r.boolean();
    n.waypoints = read_seq(r, [&r] {
      return route::RoutePoint{static_cast<std::int32_t>(r.i64()),
                               static_cast<std::int32_t>(r.i64())};
    });
    n.seg_begin = read_seq(r, [&r] { return r.u32(); });
    return n;
  });
  for (const route::NetRoute& n : routed.nets) {
    for (const std::uint32_t s : n.seg_begin) {
      if (s > n.waypoints.size()) return bad("routing segment index out of range");
    }
  }
  routed.gcell_dbu = r.i64();
  routed.total_wirelength_dbu = r.i64();
  routed.total_vias = static_cast<int>(r.i64());
  routed.overflowed_edges = static_cast<int>(r.i64());
  routed.iterations_used = static_cast<int>(r.i64());
  routed.max_congestion = r.f64();
  if (!r.ok()) return bad("truncated routing");
  return routed;
}

// --- reports --------------------------------------------------------------

void serialize(util::WireWriter& w, const timing::TimingReport& t) {
  w.f64(t.wns_ps).f64(t.tns_ps).f64(t.clock_period_ps);
  w.f64(t.critical_path_delay_ps).f64(t.fmax_mhz);
  w.size(t.endpoints.size());
  for (const timing::Endpoint& e : t.endpoints) {
    w.str(e.name).f64(e.arrival_ps).f64(e.required_ps).f64(e.slack_ps);
  }
  w.size(t.critical_path.size());
  for (const timing::PathStep& s : t.critical_path) {
    w.str(s.point).f64(s.arrival_ps).f64(s.incr_ps);
  }
  w.u64(t.num_endpoints);  // scalar count
  w.f64(t.worst_hold_slack_ps);
  w.u64(t.hold_violations);  // scalar count
}

util::Result<timing::TimingReport> deserialize_timing(util::WireReader& r) {
  timing::TimingReport t;
  t.wns_ps = r.f64();
  t.tns_ps = r.f64();
  t.clock_period_ps = r.f64();
  t.critical_path_delay_ps = r.f64();
  t.fmax_mhz = r.f64();
  t.endpoints = read_seq(r, [&r] {
    return timing::Endpoint{r.str(), r.f64(), r.f64(), r.f64()};
  });
  t.critical_path = read_seq(
      r, [&r] { return timing::PathStep{r.str(), r.f64(), r.f64()}; });
  t.num_endpoints = static_cast<std::size_t>(r.u64());
  t.worst_hold_slack_ps = r.f64();
  t.hold_violations = static_cast<std::size_t>(r.u64());
  if (!r.ok()) return bad("truncated timing report");
  return t;
}

void serialize(util::WireWriter& w, const power::PowerReport& p) {
  w.f64(p.dynamic_uw).f64(p.leakage_uw).f64(p.clock_tree_uw);
  w.f64(p.total_uw).f64(p.average_activity);
  w.u64(p.nets_analyzed);  // scalar count
}

util::Result<power::PowerReport> deserialize_power(util::WireReader& r) {
  power::PowerReport p;
  p.dynamic_uw = r.f64();
  p.leakage_uw = r.f64();
  p.clock_tree_uw = r.f64();
  p.total_uw = r.f64();
  p.average_activity = r.f64();
  p.nets_analyzed = static_cast<std::size_t>(r.u64());
  if (!r.ok()) return bad("truncated power report");
  return p;
}

void serialize(util::WireWriter& w, const drc::DrcReport& d) {
  w.size(d.violations.size());
  for (const drc::Violation& v : d.violations) {
    w.u8(static_cast<std::uint8_t>(v.kind)).str(v.detail);
  }
  w.u64(d.cells_checked);  // scalar count
  w.u64(d.nets_checked);  // scalar count
}

util::Result<drc::DrcReport> deserialize_drc(util::WireReader& r) {
  drc::DrcReport d;
  const std::size_t n = r.size();
  d.violations.reserve(n);
  for (std::size_t i = 0; i < n && r.ok(); ++i) {
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(drc::ViolationKind::kOverflow)) {
      return bad("unknown DRC violation kind");
    }
    drc::Violation v;
    v.kind = static_cast<drc::ViolationKind>(kind);
    v.detail = r.str();
    d.violations.push_back(std::move(v));
  }
  d.cells_checked = static_cast<std::size_t>(r.u64());
  d.nets_checked = static_cast<std::size_t>(r.u64());
  if (!r.ok()) return bad("truncated DRC report");
  return d;
}

void serialize(util::WireWriter& w, const StepRecord& step) {
  w.str(step.name).f64(step.runtime_ms).str(step.detail).boolean(step.cached);
}

util::Result<StepRecord> deserialize_step(util::WireReader& r) {
  StepRecord step{r.str(), r.f64(), r.str(), r.boolean()};
  if (!r.ok()) return bad("truncated step record");
  return step;
}

// --- SymbolTable ----------------------------------------------------------

namespace {

void write_nameref(util::WireWriter& w, const netlist::NameRef& n) {
  w.u32(n.offset).u32(n.size);
}

void write_namerefs(util::WireWriter& w,
                    const std::vector<netlist::NameRef>& v) {
  w.size(v.size());
  for (const netlist::NameRef& n : v) write_nameref(w, n);
}

/// Reads a NameRef and bounds-checks it against the already-read arena, so
/// a corrupt stream can never mint a view outside it.
netlist::NameRef read_nameref(util::WireReader& r, std::size_t arena_size) {
  netlist::NameRef n;
  n.offset = r.u32();
  n.size = r.u32();
  if (r.ok() && (n.offset > arena_size || n.size > arena_size - n.offset)) {
    r.fail();
  }
  return n;
}

std::vector<netlist::NameRef> read_namerefs(util::WireReader& r,
                                            std::size_t arena_size) {
  return read_seq(r, [&] { return read_nameref(r, arena_size); });
}

}  // namespace

void serialize(util::WireWriter& w, const dbg::SymbolTable& sym) {
  w.str(sym.arena());
  w.u8(sym.stage_mask);
  w.size(sym.rtl_signals.size());
  for (const dbg::SymbolTable::RtlSignal& s : sym.rtl_signals) {
    write_nameref(w, s.name);
    w.u8(s.kind).i64(s.width);
  }
  w.size(sym.bits.size());
  for (const dbg::SymbolTable::Bit& b : sym.bits) {
    write_nameref(w, b.name);
    w.u8(static_cast<std::uint8_t>(b.kind));
    w.u32(b.net.value).u32(b.cell.value);
  }
  w.size(sym.cell_origin.size());
  for (const std::uint8_t o : sym.cell_origin) w.u8(o);
  write_nameref(w, sym.module_name);
  write_nameref(w, sym.clock_name);
  write_namerefs(w, sym.input_names);
  write_namerefs(w, sym.output_names);
  write_namerefs(w, sym.net_names);
  write_namerefs(w, sym.instance_names);
  write_doubles(w, sym.arrival_ps);
  write_doubles(w, sym.arrival_min_ps);
  w.size(sym.net_driven.size());
  for (const std::uint8_t d : sym.net_driven) w.u8(d);
}

util::Result<dbg::SymbolTable> deserialize_symbols(util::WireReader& r) {
  dbg::SymbolTable sym;
  sym.set_arena(r.str());
  const std::size_t arena_size = sym.arena().size();
  sym.stage_mask = r.u8();
  sym.rtl_signals = read_seq(r, [&] {
    dbg::SymbolTable::RtlSignal s;
    s.name = read_nameref(r, arena_size);
    s.kind = r.u8();
    s.width = static_cast<std::int32_t>(r.i64());
    return s;
  });
  sym.bits = read_seq(r, [&] {
    dbg::SymbolTable::Bit b;
    b.name = read_nameref(r, arena_size);
    b.kind = static_cast<dbg::SymbolTable::BitKind>(r.u8());
    b.net = netlist::NetId{r.u32()};
    b.cell = netlist::CellId{r.u32()};
    return b;
  });
  for (const dbg::SymbolTable::Bit& b : sym.bits) {
    if (b.kind > dbg::SymbolTable::BitKind::kReg) {
      return bad("unknown symbol bit kind");
    }
  }
  const auto read_u8 = [&r] { return r.u8(); };
  sym.cell_origin = read_seq(r, read_u8);
  sym.module_name = read_nameref(r, arena_size);
  sym.clock_name = read_nameref(r, arena_size);
  sym.input_names = read_namerefs(r, arena_size);
  sym.output_names = read_namerefs(r, arena_size);
  sym.net_names = read_namerefs(r, arena_size);
  sym.instance_names = read_namerefs(r, arena_size);
  sym.arrival_ps = read_doubles(r);
  sym.arrival_min_ps = read_doubles(r);
  sym.net_driven = read_seq(r, read_u8);
  if (!r.ok()) return bad("truncated symbol table");
  return sym;
}

// --- cache entries (wire v5) ----------------------------------------------

namespace {

/// Moves a decoded value into `out`: a value member, or a shared artifact
/// pointer that takes ownership.
template <typename T, typename Out>
util::Status adopt(util::Result<T> value, Out& out) {
  if (!value.ok()) return value.status();
  if constexpr (std::is_same_v<Out, T>) {
    out = std::move(*value);
  } else {
    out = std::make_shared<const T>(std::move(*value));
  }
  return util::Status::Ok();
}

/// Decodes slot `slot` into `a`, wired to the upstream artifact `a` holds.
util::Status read_slot(util::WireReader& r, std::size_t slot,
                       FlowArtifacts& a) {
  switch (slot) {
    case kLibrarySlot: return adopt(deserialize_library(r), a.library);
    case kAigSlot: return adopt(deserialize_aig(r), a.aig);
    case kMappedSlot:
      return adopt(deserialize_netlist(r, a.library.get()), a.mapped);
    case kPlacedSlot:
      return adopt(deserialize_placed(r, a.mapped.get()), a.placed);
    case kClockTreeSlot: return adopt(deserialize_clock_tree(r), a.clock_tree);
    case kRoutedSlot:
      return adopt(deserialize_routed(r, a.placed.get()), a.routed);
    case kSymbolsSlot: return adopt(deserialize_symbols(r), a.symbols);
    case kTimingSlot: return adopt(deserialize_timing(r), a.timing);
    case kPowerSlot: return adopt(deserialize_power(r), a.power);
    case kDrcSlot: return adopt(deserialize_drc(r), a.drc);
    case kGdsSlot:
      a.gds_bytes = r.blob();
      return r.ok() ? util::Status::Ok() : bad("truncated GDS stream");
    default: return bad("unknown artifact slot");
  }
}

/// The trailer that seals an entry's payload to its key.
util::Digest seal(const util::Digest& key, const std::uint8_t* payload,
                  std::size_t size) {
  util::Hasher h;
  h.digest(key).bytes(payload, size);
  return h.finalize();
}

}  // namespace

std::vector<std::uint8_t> serialize_entry(const util::Digest& key,
                                          const FlowArtifacts& artifacts,
                                          ArtifactMask writes,
                                          const StepRecord& record) {
  util::WireWriter w;
  w.u32(kWireMagic).u32(kWireVersion).u32(writes);
  for_each_artifact(artifacts, [&](std::size_t slot, const auto& p) {
    if ((writes & slot_bit(slot)) == 0) return;
    w.boolean(p != nullptr);
    if (p) serialize(w, *p);
  });
  if (writes & slot_bit(kTimingSlot)) serialize(w, artifacts.timing);
  if (writes & slot_bit(kPowerSlot)) serialize(w, artifacts.power);
  if (writes & slot_bit(kDrcSlot)) serialize(w, artifacts.drc);
  if (writes & slot_bit(kGdsSlot)) w.blob(artifacts.gds_bytes);
  serialize(w, record);
  // Self-verification trailer: the transfer path (a remote cache, someday
  // a real network) is the one place bytes can rot undetected.
  const util::Digest d = seal(key, w.buffer().data(), w.buffer().size());
  w.u64(d.hi).u64(d.lo);
  return w.take();
}

util::Status deserialize_entry(const util::Digest& key,
                               const std::vector<std::uint8_t>& bytes,
                               FlowArtifacts& artifacts, ArtifactMask& writes,
                               StepRecord& record) {
  if (bytes.size() < 16) return bad("entry too short");
  const std::size_t payload_size = bytes.size() - 16;
  util::WireReader trailer(bytes.data() + payload_size, 16);
  const util::Digest stored{trailer.u64(), trailer.u64()};
  if (!(seal(key, bytes.data(), payload_size) == stored)) {
    return bad("entry does not match its key");
  }
  util::WireReader r(bytes.data(), payload_size);
  if (r.u32() != kWireMagic) return bad("bad entry magic");
  if (r.u32() != kWireVersion) return bad("unsupported entry version");
  const std::uint32_t mask = r.u32();
  if (mask >> kArtifactSlots != 0) return bad("unknown artifact slot");
  writes = static_cast<ArtifactMask>(mask);
  util::Status st = util::Status::Ok();
  for_each_artifact(artifacts, [&](std::size_t slot, auto& p) {
    if (!st.ok() || (writes & slot_bit(slot)) == 0) return;
    p = nullptr;
    if (r.boolean()) st = read_slot(r, slot, artifacts);
  });
  for (std::size_t slot = kHeapSlots; st.ok() && slot < kArtifactSlots;
       ++slot) {
    if (writes & slot_bit(slot)) st = read_slot(r, slot, artifacts);
  }
  if (st.ok()) st = adopt(deserialize_step(r), record);
  if (st.ok() && !r.ok()) st = bad("truncated entry");
  if (st.ok() && r.remaining() != 0) st = bad("trailing bytes in entry");
  return st;
}

}  // namespace eurochip::flow
