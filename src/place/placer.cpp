#include "eurochip/place/placer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "eurochip/util/trace.hpp"

namespace eurochip::place {

namespace {

using netlist::CellId;
using netlist::DriverKind;
using netlist::NetId;
using netlist::NetView;
using netlist::Netlist;
using util::Point;
using util::Rect;

/// Distributes I/O pads evenly around the die boundary, inputs on the left
/// and bottom edges, outputs on the right and top.
void assign_pads(PlacedDesign& d) {
  const Rect& die = d.floorplan.die();
  const auto& nl = *d.netlist;
  const std::size_t n_in = nl.inputs().size();
  const std::size_t n_out = nl.outputs().size();
  d.input_pad.resize(n_in);
  d.output_pad.resize(n_out);
  for (std::size_t i = 0; i < n_in; ++i) {
    const double t = (static_cast<double>(i) + 0.5) / static_cast<double>(std::max<std::size_t>(1, n_in));
    if (t < 0.5) {
      d.input_pad[i] = Point{die.lx, die.ly + static_cast<std::int64_t>(2 * t * static_cast<double>(die.height()))};
    } else {
      d.input_pad[i] = Point{die.lx + static_cast<std::int64_t>((2 * t - 1) * static_cast<double>(die.width())), die.ly};
    }
  }
  for (std::size_t i = 0; i < n_out; ++i) {
    const double t = (static_cast<double>(i) + 0.5) / static_cast<double>(std::max<std::size_t>(1, n_out));
    if (t < 0.5) {
      d.output_pad[i] = Point{die.ux, die.ly + static_cast<std::int64_t>(2 * t * static_cast<double>(die.height()))};
    } else {
      d.output_pad[i] = Point{die.lx + static_cast<std::int64_t>((2 * t - 1) * static_cast<double>(die.width())), die.uy};
    }
  }
}

/// Connectivity view: for every cell, the cells and pads it shares nets
/// with (star model around each net's pin set).
struct Connectivity {
  // Per cell: connected cell ids and fixed points (pads).
  std::vector<std::vector<std::uint32_t>> cell_neighbors;
  std::vector<std::vector<Point>> fixed_neighbors;
};

Connectivity build_connectivity(const PlacedDesign& d) {
  const Netlist& nl = *d.netlist;
  Connectivity conn;
  conn.cell_neighbors.resize(nl.num_cells());
  conn.fixed_neighbors.resize(nl.num_cells());

  for (NetId net_id : nl.all_nets()) {
    const NetView net = nl.net(net_id);
    std::vector<std::uint32_t> members;
    if (net.driver_kind == DriverKind::kCell) {
      members.push_back(net.driver_cell.value);
    }
    for (const auto& sink : net.sinks) members.push_back(sink.cell.value);
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    // Clique model on small nets; star around the driver for large nets to
    // bound the quadratic-term count.
    constexpr std::size_t kCliqueLimit = 8;
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = 0; j < members.size(); ++j) {
        if (i == j) continue;
        if (members.size() > kCliqueLimit && i != 0 && j != 0) continue;
        conn.cell_neighbors[members[i]].push_back(members[j]);
      }
      for (const Point& p : d.net_pad_points[net_id.value]) {
        conn.fixed_neighbors[members[i]].push_back(p);
      }
    }
  }
  return conn;
}

/// Gauss-Seidel sweeps of the quadratic wirelength objective with periodic
/// density spreading. Each sweep moves every cell, in id order, to the
/// weighted centre of its neighbours, reading the positions already moved
/// earlier in the same sweep.
void global_place(PlacedDesign& d, const PlacementOptions& opt,
                  util::Rng& rng, PlaceStats* stats) {
  const Netlist& nl = *d.netlist;
  const Rect& core = d.floorplan.core();
  const std::size_t n = nl.num_cells();
  std::vector<double> x(n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform(static_cast<double>(core.lx), static_cast<double>(core.ux));
    y[i] = rng.uniform(static_cast<double>(core.ly), static_cast<double>(core.uy));
  }

  const Connectivity conn = build_connectivity(d);
  const int spread_every =
      std::max(1, opt.global_iterations / std::max(1, opt.spreading_rounds));

  // Pad anchor sums and connection weights never change across sweeps:
  // fold them into per-cell constants once instead of re-summing per sweep.
  std::vector<double> fixed_sx(n, 0.0);
  std::vector<double> fixed_sy(n, 0.0);
  std::vector<double> weight(n, 0.0);
  double total_w = 0.0;  // deterministic runtime proxy per sweep
  for (std::size_t i = 0; i < n; ++i) {
    for (const Point& p : conn.fixed_neighbors[i]) {
      fixed_sx[i] += static_cast<double>(p.x);
      fixed_sy[i] += static_cast<double>(p.y);
    }
    weight[i] = static_cast<double>(conn.cell_neighbors[i].size() +
                                    conn.fixed_neighbors[i].size());
    total_w += weight[i];
  }

  for (int iter = 0; iter < opt.global_iterations; ++iter) {
    for (std::size_t i = 0; i < n; ++i) {
      if (weight[i] == 0.0) continue;
      double sx = fixed_sx[i];
      double sy = fixed_sy[i];
      for (std::uint32_t nb : conn.cell_neighbors[i]) {
        sx += x[nb];
        sy += y[nb];
      }
      x[i] = sx / weight[i];
      y[i] = sy / weight[i];
    }
    if (stats != nullptr) stats->runtime_proxy_ops += total_w;

    // Periodic density spreading on a coarse bin grid.
    if ((iter + 1) % spread_every == 0) {
      constexpr int kBins = 8;
      const double bw = static_cast<double>(core.width()) / kBins;
      const double bh = static_cast<double>(core.height()) / kBins;
      std::vector<std::vector<std::uint32_t>> bins(kBins * kBins);
      for (std::size_t i = 0; i < n; ++i) {
        const int bx = std::clamp(static_cast<int>((x[i] - static_cast<double>(core.lx)) / bw), 0, kBins - 1);
        const int by = std::clamp(static_cast<int>((y[i] - static_cast<double>(core.ly)) / bh), 0, kBins - 1);
        bins[static_cast<std::size_t>(by * kBins + bx)].push_back(
            static_cast<std::uint32_t>(i));
      }
      const double cap = static_cast<double>(n) / (kBins * kBins) * 2.0 + 1.0;
      for (auto& bin : bins) {
        if (static_cast<double>(bin.size()) <= cap) continue;
        // Push surplus cells to a random nearby position (mild diffusion).
        for (std::size_t k = static_cast<std::size_t>(cap); k < bin.size(); ++k) {
          const std::uint32_t c = bin[k];
          x[c] = std::clamp(x[c] + rng.normal(0.0, bw),
                            static_cast<double>(core.lx), static_cast<double>(core.ux - 1));
          y[c] = std::clamp(y[c] + rng.normal(0.0, bh),
                            static_cast<double>(core.ly), static_cast<double>(core.uy - 1));
        }
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    d.cell_origin[i] = Point{static_cast<std::int64_t>(x[i]),
                             static_cast<std::int64_t>(y[i])};
  }
}

/// Index of the row nearest to `y`, exploiting the uniform row grid.
std::size_t nearest_row(const std::vector<Row>& rows, std::int64_t row_h,
                        std::int64_t y) {
  if (rows.empty()) return 0;
  const std::int64_t base = rows.front().y();
  const std::int64_t r = (y - base + row_h / 2) / row_h;
  return static_cast<std::size_t>(
      std::clamp<std::int64_t>(r, 0, static_cast<std::int64_t>(rows.size()) - 1));
}

/// Index of the row whose y() equals `y` exactly, or rows.size() if the
/// coordinate is off-grid. O(1) via the uniform row pitch.
std::size_t row_at_y(const std::vector<Row>& rows, std::int64_t row_h,
                     std::int64_t y) {
  if (rows.empty()) return 0;
  const std::int64_t base = rows.front().y();
  if (y < base || (y - base) % row_h != 0) return rows.size();
  const std::int64_t r = (y - base) / row_h;
  if (r >= static_cast<std::int64_t>(rows.size())) return rows.size();
  return static_cast<std::size_t>(r);
}

/// Tetris legalization: cells sorted by x are packed greedily into the
/// nearest row with space, site-aligned. The best-row search expands
/// outward from the row nearest the cell's wanted y and prunes once the
/// row-distance term alone exceeds the best cost seen — equivalent to the
/// full O(rows) scan (ties break toward the lower row index) at a
/// fraction of the lookups.
util::Status legalize(PlacedDesign& d) {
  const Netlist& nl = *d.netlist;
  const auto& rows = d.floorplan.rows();
  const std::int64_t site = d.floorplan.site_width();
  const std::int64_t row_h = d.floorplan.row_height();
  std::vector<std::int64_t> row_cursor(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    row_cursor[r] = rows[r].bounds.lx;
  }

  std::vector<std::uint32_t> order(nl.num_cells());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&d](std::uint32_t a, std::uint32_t b) {
    if (d.cell_origin[a].x != d.cell_origin[b].x) {
      return d.cell_origin[a].x < d.cell_origin[b].x;
    }
    return a < b;
  });

  for (std::uint32_t c : order) {
    const std::int64_t width = nl.lib_cell(CellId{c}).width_dbu;
    const std::int64_t want_x = d.cell_origin[c].x;
    const std::int64_t want_y = d.cell_origin[c].y;
    // Pick the feasible row minimizing total displacement; cells pack at
    // the row cursor (never beyond it), so space is never stranded and
    // legalization succeeds whenever capacity remains.
    std::size_t best_row = rows.size();
    std::int64_t best_cost = std::numeric_limits<std::int64_t>::max();
    std::int64_t best_x = 0;
    const auto consider = [&](std::size_t r) -> bool {
      const std::int64_t dy = std::abs(rows[r].y() - want_y);
      if (dy > best_cost) return false;  // no farther row can win
      const std::int64_t cx =
          ((row_cursor[r] - rows[r].bounds.lx + site - 1) / site) * site +
          rows[r].bounds.lx;
      if (cx + width > rows[r].bounds.ux) return true;  // full; keep looking
      const std::int64_t cost = dy + std::abs(cx - want_x);
      if (cost < best_cost || (cost == best_cost && r < best_row)) {
        best_cost = cost;
        best_row = r;
        best_x = cx;
      }
      return true;
    };
    const std::size_t r0 = nearest_row(rows, row_h, want_y);
    bool up = true;
    bool down = true;
    for (std::size_t dist = 0; up || down; ++dist) {
      if (up) {
        const std::size_t r = r0 + dist;
        up = r < rows.size() && consider(r);
      }
      if (down && dist > 0) {
        down = r0 >= dist && consider(r0 - dist);
      }
    }
    if (best_row == rows.size()) {
      return util::Status::ResourceExhausted(
          "legalization failed: floorplan too dense");
    }
    d.cell_origin[c] = Point{best_x, rows[best_row].y()};
    row_cursor[best_row] = best_x + width;
  }
  return util::Status::Ok();
}

/// In-row greedy swaps of equal-width cells when HPWL improves.
void detailed_place(PlacedDesign& d, int passes, PlaceStats* stats) {
  const Netlist& nl = *d.netlist;
  // Net bbox is recomputed per candidate via net_bbox, which uses the
  // net -> pad index instead of rescanning all primary ports.
  const auto hpwl_of_cell_nets = [&](std::uint32_t c) {
    std::int64_t total = 0;
    const auto& cell = nl.cell(CellId{c});
    const auto add_net = [&](NetId net) {
      const util::BoundingBox bb = d.net_bbox(net);
      if (bb.valid()) {
        total += bb.rect().width() + bb.rect().height();
      }
    };
    for (NetId net : cell.fanin) add_net(net);
    add_net(cell.output);
    return total;
  };

  // Group cells by row (O(1) row lookup on the uniform row grid).
  std::vector<std::vector<std::uint32_t>> by_row;
  const auto& rows = d.floorplan.rows();
  const std::int64_t row_h = d.floorplan.row_height();
  by_row.resize(rows.size());
  for (std::uint32_t c = 0; c < nl.num_cells(); ++c) {
    const std::size_t r = row_at_y(rows, row_h, d.cell_origin[c].y);
    if (r < rows.size()) by_row[r].push_back(c);
  }
  for (auto& row : by_row) {
    std::sort(row.begin(), row.end(), [&d](std::uint32_t a, std::uint32_t b) {
      return d.cell_origin[a].x < d.cell_origin[b].x;
    });
  }

  for (int pass = 0; pass < passes; ++pass) {
    bool improved = false;
    for (auto& row : by_row) {
      for (std::size_t i = 0; i + 1 < row.size(); ++i) {
        const std::uint32_t a = row[i];
        const std::uint32_t b = row[i + 1];
        if (nl.lib_cell(CellId{a}).width_dbu !=
            nl.lib_cell(CellId{b}).width_dbu) {
          continue;
        }
        const std::int64_t before = hpwl_of_cell_nets(a) + hpwl_of_cell_nets(b);
        std::swap(d.cell_origin[a].x, d.cell_origin[b].x);
        const std::int64_t after = hpwl_of_cell_nets(a) + hpwl_of_cell_nets(b);
        if (stats != nullptr) stats->runtime_proxy_ops += 4;
        if (after < before) {
          std::swap(row[i], row[i + 1]);
          improved = true;
        } else {
          std::swap(d.cell_origin[a].x, d.cell_origin[b].x);  // revert
        }
      }
    }
    if (!improved) break;
  }
}

}  // namespace

Rect PlacedDesign::cell_rect(CellId id) const {
  const Point& o = cell_origin[id.value];
  const auto& lc = netlist->lib_cell(id);
  return Rect{o.x, o.y, o.x + lc.width_dbu, o.y + floorplan.row_height()};
}

Point PlacedDesign::cell_pin(CellId id) const { return cell_rect(id).center(); }

void PlacedDesign::build_pad_index() {
  net_pad_points.assign(netlist->num_nets(), {});
  for (std::size_t i = 0; i < netlist->inputs().size(); ++i) {
    net_pad_points[netlist->inputs()[i].net.value].push_back(input_pad[i]);
  }
  for (std::size_t i = 0; i < netlist->outputs().size(); ++i) {
    net_pad_points[netlist->outputs()[i].net.value].push_back(output_pad[i]);
  }
}

std::vector<Point> PlacedDesign::net_pins(NetId id) const {
  std::vector<Point> pins;
  const NetView net = netlist->net(id);
  if (net.driver_kind == DriverKind::kCell) {
    pins.push_back(cell_pin(net.driver_cell));
  }
  for (const auto& sink : net.sinks) pins.push_back(cell_pin(sink.cell));
  if (net_pad_points.size() == netlist->num_nets()) {
    for (const Point& p : net_pad_points[id.value]) pins.push_back(p);
  } else {
    // Hand-built design without a pad index: fall back to the port scan.
    for (std::size_t i = 0; i < netlist->inputs().size(); ++i) {
      if (netlist->inputs()[i].net == id) pins.push_back(input_pad[i]);
    }
    for (std::size_t i = 0; i < netlist->outputs().size(); ++i) {
      if (netlist->outputs()[i].net == id) pins.push_back(output_pad[i]);
    }
  }
  return pins;
}

util::BoundingBox PlacedDesign::net_bbox(NetId id) const {
  util::BoundingBox bb;
  const NetView net = netlist->net(id);
  if (net.driver_kind == DriverKind::kCell) {
    bb.add(cell_pin(net.driver_cell));
  }
  for (const auto& sink : net.sinks) bb.add(cell_pin(sink.cell));
  if (net_pad_points.size() == netlist->num_nets()) {
    for (const Point& p : net_pad_points[id.value]) bb.add(p);
  } else {
    for (std::size_t i = 0; i < netlist->inputs().size(); ++i) {
      if (netlist->inputs()[i].net == id) bb.add(input_pad[i]);
    }
    for (std::size_t i = 0; i < netlist->outputs().size(); ++i) {
      if (netlist->outputs()[i].net == id) bb.add(output_pad[i]);
    }
  }
  return bb;
}

std::int64_t PlacedDesign::total_hpwl() const {
  std::int64_t total = 0;
  for (NetId net : netlist->all_nets()) {
    const util::BoundingBox bb = net_bbox(net);
    if (bb.valid()) total += bb.rect().width() + bb.rect().height();
  }
  return total;
}

std::size_t PlacedDesign::overlap_count() const {
  std::size_t overlaps = 0;
  const auto cells = netlist->all_cells();
  // Sweep per row: sort by x within equal y.
  std::vector<CellId> sorted(cells);
  std::sort(sorted.begin(), sorted.end(), [this](CellId a, CellId b) {
    if (cell_origin[a.value].y != cell_origin[b.value].y) {
      return cell_origin[a.value].y < cell_origin[b.value].y;
    }
    return cell_origin[a.value].x < cell_origin[b.value].x;
  });
  for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
    if (cell_origin[sorted[i].value].y != cell_origin[sorted[i + 1].value].y) {
      continue;
    }
    if (cell_rect(sorted[i]).overlaps(cell_rect(sorted[i + 1]))) ++overlaps;
  }
  return overlaps;
}

bool PlacedDesign::is_legal() const {
  const auto& rows = floorplan.rows();
  const std::int64_t row_h = floorplan.row_height();
  for (netlist::CellId id : netlist->all_cells()) {
    const Rect r = cell_rect(id);
    const std::size_t ri = row_at_y(rows, row_h, r.ly);
    if (ri >= rows.size()) return false;
    const Row& row = rows[ri];
    if (r.lx < row.bounds.lx || r.ux > row.bounds.ux) return false;
    if ((r.lx - floorplan.core().lx) % floorplan.site_width() != 0) {
      return false;
    }
  }
  return overlap_count() == 0;
}

util::Result<PlacedDesign> place(const Netlist& nl,
                                 const pdk::TechnologyNode& node,
                                 const PlacementOptions& options,
                                 PlaceStats* stats) {
  if (util::Status s = nl.check(); !s.ok()) return s;
  auto fp = Floorplan::create(nl, node, options.target_utilization);
  if (!fp.ok()) return fp.status();

  PlacedDesign d;
  d.netlist = &nl;
  d.floorplan = *fp;
  d.cell_origin.assign(nl.num_cells(), util::Point{});
  assign_pads(d);
  d.build_pad_index();

  util::Rng rng(options.seed);
  if (options.random_only) {
    const Rect& core = d.floorplan.core();
    for (auto& o : d.cell_origin) {
      o = Point{rng.uniform_int(core.lx, core.ux - 1),
                rng.uniform_int(core.ly, core.uy - 1)};
    }
  } else {
    EUROCHIP_TRACE_SPAN("place.global", "kernel");
    global_place(d, options, rng, stats);
  }
  if (stats != nullptr) stats->hpwl_after_global = d.total_hpwl();

  {
    EUROCHIP_TRACE_SPAN("place.legalize", "kernel");
    if (util::Status s = legalize(d); !s.ok()) return s;
  }
  if (stats != nullptr) stats->hpwl_after_legal = d.total_hpwl();

  {
    EUROCHIP_TRACE_SPAN("place.detailed", "kernel");
    detailed_place(d, options.detailed_passes, stats);
  }
  if (stats != nullptr) {
    stats->hpwl_final = d.total_hpwl();
    stats->cells = nl.num_cells();
  }
  return d;
}

}  // namespace eurochip::place
