#include "eurochip/route/router.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "eurochip/util/trace.hpp"

namespace eurochip::route {

namespace {

using netlist::NetId;
using place::PlacedDesign;
using util::Point;

/// Routing grid of gcells with horizontal/vertical edge usage tracking.
class Grid {
 public:
  Grid(const util::Rect& die, std::int64_t gcell_dbu, std::int64_t capacity)
      : origin_x_(die.lx),
        origin_y_(die.ly),
        gcell_(gcell_dbu),
        w_(std::max<int>(1, static_cast<int>((die.width() + gcell_dbu - 1) / gcell_dbu))),
        h_(std::max<int>(1, static_cast<int>((die.height() + gcell_dbu - 1) / gcell_dbu))),
        capacity_(capacity),
        h_usage_(static_cast<std::size_t>(w_ * h_), 0),
        v_usage_(static_cast<std::size_t>(w_ * h_), 0),
        h_history_(h_usage_.size(), 0.0),
        v_history_(v_usage_.size(), 0.0) {}

  [[nodiscard]] int width() const { return w_; }
  [[nodiscard]] int height() const { return h_; }
  [[nodiscard]] std::int64_t capacity() const { return capacity_; }

  [[nodiscard]] int gx(std::int64_t x) const {
    return std::clamp(static_cast<int>((x - origin_x_) / gcell_), 0, w_ - 1);
  }
  [[nodiscard]] int gy(std::int64_t y) const {
    return std::clamp(static_cast<int>((y - origin_y_) / gcell_), 0, h_ - 1);
  }

  /// Edge from (x,y) toward +x (horizontal) or +y (vertical).
  [[nodiscard]] std::size_t edge_index(int x, int y) const {
    return static_cast<std::size_t>(y * w_ + x);
  }

  [[nodiscard]] std::int64_t usage(bool horizontal, int x, int y) const {
    return horizontal ? h_usage_[edge_index(x, y)] : v_usage_[edge_index(x, y)];
  }
  void add_usage(bool horizontal, int x, int y, std::int64_t delta) {
    auto& u = horizontal ? h_usage_[edge_index(x, y)] : v_usage_[edge_index(x, y)];
    u += delta;
  }
  [[nodiscard]] double history(bool horizontal, int x, int y) const {
    return horizontal ? h_history_[edge_index(x, y)] : v_history_[edge_index(x, y)];
  }
  void bump_history(double weight) {
    for (int y = 0; y < h_; ++y) {
      for (int x = 0; x < w_; ++x) {
        if (h_usage_[edge_index(x, y)] > capacity_) {
          h_history_[edge_index(x, y)] += weight;
        }
        if (v_usage_[edge_index(x, y)] > capacity_) {
          v_history_[edge_index(x, y)] += weight;
        }
      }
    }
  }
  [[nodiscard]] int overflow_count() const {
    int n = 0;
    for (int y = 0; y < h_; ++y) {
      for (int x = 0; x < w_; ++x) {
        if (h_usage_[edge_index(x, y)] > capacity_) ++n;
        if (v_usage_[edge_index(x, y)] > capacity_) ++n;
      }
    }
    return n;
  }
  [[nodiscard]] double max_utilization() const {
    std::int64_t peak = 0;
    for (std::int64_t u : h_usage_) peak = std::max(peak, u);
    for (std::int64_t u : v_usage_) peak = std::max(peak, u);
    return static_cast<double>(peak) / static_cast<double>(capacity_);
  }

  /// Edge traversal cost with congestion penalty.
  [[nodiscard]] double edge_cost(bool horizontal, int x, int y,
                                 bool congestion_aware) const {
    double cost = 1.0;
    if (!congestion_aware) return cost;
    const std::int64_t u = usage(horizontal, x, y);
    if (u >= capacity_) {
      cost += 4.0 * static_cast<double>(u - capacity_ + 1);
    } else {
      cost += static_cast<double>(u) / static_cast<double>(capacity_);
    }
    return cost + history(horizontal, x, y);
  }

 private:
  std::int64_t origin_x_;
  std::int64_t origin_y_;
  std::int64_t gcell_;
  int w_;
  int h_;
  std::int64_t capacity_;
  std::vector<std::int64_t> h_usage_;
  std::vector<std::int64_t> v_usage_;
  std::vector<double> h_history_;
  std::vector<double> v_history_;
};

struct GPoint {
  int x = 0;
  int y = 0;
  friend bool operator==(const GPoint&, const GPoint&) = default;
};

/// One grid step of a routed segment (edge list).
struct Segment {
  std::vector<GPoint> path;  ///< sequence of gcells
};

/// Reusable per-search state for astar(). Instead of reallocating (and
/// zero-filling) O(grid) arrays per search, entries carry a generation
/// stamp: a slot is valid only if its stamp matches the current
/// generation, so "resetting" between searches is one counter increment.
struct AstarScratch {
  std::vector<double> dist;
  std::vector<std::int32_t> parent;
  std::vector<std::uint32_t> stamp;
  std::uint32_t generation = 0;
  struct QEntry {
    double f;
    double g;
    GPoint p;
  };
  std::vector<QEntry> open;  ///< binary-heap storage, reused across searches

  void prepare(std::size_t cells) {
    if (dist.size() != cells) {
      dist.assign(cells, 0.0);
      parent.assign(cells, -1);
      stamp.assign(cells, 0);
      generation = 0;
    }
    if (++generation == 0) {  // wrapped: invalidate everything the slow way
      std::fill(stamp.begin(), stamp.end(), 0);
      generation = 1;
    }
    open.clear();
  }
};

/// A* shortest path on the grid. Returns the gcell path (src..dst).
std::vector<GPoint> astar(const Grid& grid, GPoint src, GPoint dst,
                          bool congestion_aware, AstarScratch& scratch) {
  const int w = grid.width();
  const int h = grid.height();
  const auto idx = [w](GPoint p) { return static_cast<std::size_t>(p.y * w + p.x); };
  scratch.prepare(static_cast<std::size_t>(w * h));
  const std::uint32_t gen = scratch.generation;
  const auto dist_at = [&scratch, gen](std::size_t i) {
    return scratch.stamp[i] == gen ? scratch.dist[i]
                                   : std::numeric_limits<double>::infinity();
  };

  using QEntry = AstarScratch::QEntry;
  const auto q_greater = [](const QEntry& a, const QEntry& b) { return a.f > b.f; };
  auto& open = scratch.open;
  const auto heuristic = [&dst](GPoint p) {
    return static_cast<double>(std::abs(p.x - dst.x) + std::abs(p.y - dst.y));
  };
  scratch.stamp[idx(src)] = gen;
  scratch.dist[idx(src)] = 0.0;
  scratch.parent[idx(src)] = -1;
  open.push_back({heuristic(src), 0.0, src});

  while (!open.empty()) {
    const QEntry cur = open.front();
    std::pop_heap(open.begin(), open.end(), q_greater);
    open.pop_back();
    if (cur.g > dist_at(idx(cur.p))) continue;
    if (cur.p == dst) break;
    const auto relax = [&](GPoint next, bool horizontal, int ex, int ey) {
      const double g = cur.g + grid.edge_cost(horizontal, ex, ey, congestion_aware);
      const std::size_t ni = idx(next);
      if (g < dist_at(ni)) {
        scratch.stamp[ni] = gen;
        scratch.dist[ni] = g;
        scratch.parent[ni] = static_cast<std::int32_t>(idx(cur.p));
        open.push_back({g + heuristic(next), g, next});
        std::push_heap(open.begin(), open.end(), q_greater);
      }
    };
    if (cur.p.x + 1 < w) relax({cur.p.x + 1, cur.p.y}, true, cur.p.x, cur.p.y);
    if (cur.p.x > 0) relax({cur.p.x - 1, cur.p.y}, true, cur.p.x - 1, cur.p.y);
    if (cur.p.y + 1 < h) relax({cur.p.x, cur.p.y + 1}, false, cur.p.x, cur.p.y);
    if (cur.p.y > 0) relax({cur.p.x, cur.p.y - 1}, false, cur.p.x, cur.p.y - 1);
  }

  std::vector<GPoint> path;
  if (!std::isfinite(dist_at(idx(dst)))) return path;  // unreachable (shouldn't happen)
  std::int32_t at = static_cast<std::int32_t>(idx(dst));
  while (at >= 0) {
    path.push_back({at % w, at / w});
    at = scratch.parent[static_cast<std::size_t>(at)];
  }
  std::reverse(path.begin(), path.end());
  return path;
}

void apply_usage(Grid& grid, const Segment& seg, std::int64_t delta) {
  for (std::size_t i = 0; i + 1 < seg.path.size(); ++i) {
    const GPoint a = seg.path[i];
    const GPoint b = seg.path[i + 1];
    if (a.y == b.y) {
      grid.add_usage(true, std::min(a.x, b.x), a.y, delta);
    } else {
      grid.add_usage(false, a.x, std::min(a.y, b.y), delta);
    }
  }
}

int count_bends(const Segment& seg) {
  int bends = 0;
  for (std::size_t i = 2; i < seg.path.size(); ++i) {
    const bool h1 = seg.path[i - 1].y == seg.path[i - 2].y;
    const bool h2 = seg.path[i].y == seg.path[i - 1].y;
    if (h1 != h2) ++bends;
  }
  return bends;
}

/// Prim spanning topology over a net's pins (returns pin-index edges).
std::vector<std::pair<std::size_t, std::size_t>> prim_topology(
    const std::vector<Point>& pins) {
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  if (pins.size() < 2) return edges;
  std::vector<bool> in_tree(pins.size(), false);
  std::vector<std::int64_t> best_cost(pins.size(),
                                      std::numeric_limits<std::int64_t>::max());
  std::vector<std::size_t> best_parent(pins.size(), 0);
  in_tree[0] = true;
  for (std::size_t i = 1; i < pins.size(); ++i) {
    best_cost[i] = util::manhattan(pins[0], pins[i]);
  }
  for (std::size_t added = 1; added < pins.size(); ++added) {
    std::size_t pick = 0;
    std::int64_t pick_cost = std::numeric_limits<std::int64_t>::max();
    for (std::size_t i = 0; i < pins.size(); ++i) {
      if (!in_tree[i] && best_cost[i] < pick_cost) {
        pick = i;
        pick_cost = best_cost[i];
      }
    }
    in_tree[pick] = true;
    edges.emplace_back(best_parent[pick], pick);
    for (std::size_t i = 0; i < pins.size(); ++i) {
      if (in_tree[i]) continue;
      const std::int64_t c = util::manhattan(pins[pick], pins[i]);
      if (c < best_cost[i]) {
        best_cost[i] = c;
        best_parent[i] = pick;
      }
    }
  }
  return edges;
}

}  // namespace

util::Result<RoutedDesign> route(const PlacedDesign& placed,
                                 const pdk::TechnologyNode& node,
                                 const RouteOptions& options,
                                 RouteStats* stats) {
  if (placed.netlist == nullptr) {
    return util::Status::InvalidArgument("placed design has no netlist");
  }
  const auto& nl = *placed.netlist;
  const std::int64_t pitch = node.layers.front().pitch_dbu;
  const std::int64_t gcell = std::max<std::int64_t>(1, options.gcell_pitches * pitch);
  // Tracks crossing one gcell edge: gcell_pitches tracks per routing layer
  // in that direction (half the stack), derated for blockage/pin access.
  const auto dir_layers = static_cast<std::int64_t>((node.layers.size() + 1) / 2);
  const std::int64_t capacity = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             0.8 * static_cast<double>(options.gcell_pitches * dir_layers)));

  Grid grid(placed.floorplan.die(), gcell, capacity);
  if (stats != nullptr) {
    stats->grid_width = grid.width();
    stats->grid_height = grid.height();
    stats->edge_capacity = capacity;
  }

  RoutedDesign out;
  out.placed = &placed;
  out.nets.resize(nl.num_nets());

  // Decompose nets into two-pin segments.
  struct NetSegments {
    NetId net;
    std::vector<std::pair<GPoint, GPoint>> pins;
    std::vector<Segment> segments;
    std::int64_t est_length = 0;
  };
  std::vector<NetSegments> work;
  for (NetId net_id : nl.all_nets()) {
    out.nets[net_id.value].net = net_id;
    const auto pins = placed.net_pins(net_id);
    if (pins.size() < 2) continue;
    NetSegments ns;
    ns.net = net_id;
    for (const auto& [a, b] : prim_topology(pins)) {
      const GPoint ga{grid.gx(pins[a].x), grid.gy(pins[a].y)};
      const GPoint gb{grid.gx(pins[b].x), grid.gy(pins[b].y)};
      ns.pins.emplace_back(ga, gb);
      ns.est_length += util::manhattan(pins[a], pins[b]);
    }
    ns.segments.resize(ns.pins.size());
    work.push_back(std::move(ns));
  }
  // Short nets first: long nets then negotiate around them.
  std::sort(work.begin(), work.end(), [](const auto& a, const auto& b) {
    return a.est_length < b.est_length;
  });

  // Flatten segments into one deterministic work order.
  struct SegRef {
    std::uint32_t w;
    std::uint32_t s;
  };
  std::vector<SegRef> refs;
  for (std::size_t wi = 0; wi < work.size(); ++wi) {
    for (std::size_t s = 0; s < work[wi].pins.size(); ++s) {
      refs.push_back({static_cast<std::uint32_t>(wi), static_cast<std::uint32_t>(s)});
    }
  }

  // Each segment's search reads the live congestion, and its usage commits
  // as soon as the search returns, so later segments route around it.
  AstarScratch scratch;
  const auto route_segment = [&](SegRef r) {
    const auto& [src, dst] = work[r.w].pins[r.s];
    Segment& seg = work[r.w].segments[r.s];
    seg.path = astar(grid, src, dst, options.congestion_aware, scratch);
    apply_usage(grid, seg, +1);
  };

  // Initial routing.
  {
    EUROCHIP_TRACE_SPAN("route.initial", "kernel");
    for (const SegRef& r : refs) route_segment(r);
  }
  if (stats != nullptr) stats->segments_routed += refs.size();

  // Rip-up and reroute while overflow persists: collect the segments
  // crossing overflowed edges, rip them all up in order, then reroute them
  // one by one in the same order.
  int iterations = 0;
  util::trace::Span ripup_span;
  if (util::trace::enabled()) ripup_span.begin("route.ripup", "kernel");
  for (; iterations < options.max_ripup_iterations; ++iterations) {
    if (grid.overflow_count() == 0) break;
    grid.bump_history(options.history_weight);
    std::vector<SegRef> redo;
    for (const SegRef& r : refs) {
      const Segment& seg = work[r.w].segments[r.s];
      for (std::size_t i = 0; i + 1 < seg.path.size(); ++i) {
        const GPoint a = seg.path[i];
        const GPoint b = seg.path[i + 1];
        const bool horiz = a.y == b.y;
        const int ex = horiz ? std::min(a.x, b.x) : a.x;
        const int ey = horiz ? a.y : std::min(a.y, b.y);
        if (grid.usage(horiz, ex, ey) > grid.capacity()) {
          redo.push_back(r);
          break;
        }
      }
    }
    if (redo.empty()) break;
    for (const SegRef& r : redo) {
      apply_usage(grid, work[r.w].segments[r.s], -1);
    }
    for (const SegRef& r : redo) route_segment(r);
    if (stats != nullptr) stats->reroutes += redo.size();
  }
  if (ripup_span.active()) {
    ripup_span.annotate("iterations", static_cast<std::int64_t>(iterations));
    ripup_span.end();
  }
  out.iterations_used = iterations;
  out.overflowed_edges = grid.overflow_count();
  out.max_congestion = grid.max_utilization();
  if (stats != nullptr) {
    stats->overflowed_edges = out.overflowed_edges;
    stats->ripup_iterations = iterations;
  }

  // Collect per-net metrics and bend-compressed geometry (the endpoints
  // plus every direction change; colinear interior gcells are implied).
  out.gcell_dbu = gcell;
  for (const auto& ns : work) {
    NetRoute& nr = out.nets[ns.net.value];
    nr.routed = true;
    nr.seg_begin.push_back(0);
    for (const Segment& seg : ns.segments) {
      if (seg.path.size() < 2) {
        // Same gcell: local connection, count half a gcell of wire.
        nr.wirelength_dbu += gcell / 2;
        if (!seg.path.empty()) {
          nr.waypoints.push_back({seg.path[0].x, seg.path[0].y});
        }
        nr.seg_begin.push_back(
            static_cast<std::uint32_t>(nr.waypoints.size()));
        continue;
      }
      nr.wirelength_dbu +=
          static_cast<std::int64_t>(seg.path.size() - 1) * gcell;
      nr.vias += count_bends(seg) + 2;
      nr.waypoints.push_back({seg.path[0].x, seg.path[0].y});
      for (std::size_t i = 2; i < seg.path.size(); ++i) {
        const bool h1 = seg.path[i - 1].y == seg.path[i - 2].y;
        const bool h2 = seg.path[i].y == seg.path[i - 1].y;
        if (h1 != h2) {
          nr.waypoints.push_back({seg.path[i - 1].x, seg.path[i - 1].y});
        }
      }
      nr.waypoints.push_back({seg.path.back().x, seg.path.back().y});
      nr.seg_begin.push_back(static_cast<std::uint32_t>(nr.waypoints.size()));
    }
    out.total_wirelength_dbu += nr.wirelength_dbu;
    out.total_vias += nr.vias;
  }

  const int total_edges = 2 * grid.width() * grid.height();
  if (out.overflowed_edges > total_edges / 20) {
    return util::Status::ResourceExhausted(
        "unroutable: " + std::to_string(out.overflowed_edges) +
        " overflowed edges after " + std::to_string(iterations) +
        " rip-up iterations");
  }
  return out;
}

}  // namespace eurochip::route
