// Global routing: a congestion-aware A* maze router over a gcell grid.
//
// Multi-terminal nets are decomposed into two-pin segments along a Prim
// spanning topology; segments route with history-based congestion costs and
// rip-up-and-reroute until overflow converges (PathFinder-style). Segments
// route one at a time, short nets first: each A* search reads the live
// congestion and commits its usage before the next search starts.
#pragma once

#include <cstdint>
#include <vector>

#include "eurochip/pdk/node.hpp"
#include "eurochip/place/placer.hpp"
#include "eurochip/util/result.hpp"

namespace eurochip::route {

struct RouteOptions {
  std::int64_t gcell_pitches = 40;  ///< gcell edge length in M1 pitches
  int max_ripup_iterations = 8;
  double history_weight = 1.5;      ///< congestion-history cost growth
  bool congestion_aware = true;     ///< false = plain shortest path (ablation)
};

/// One corner of a routed segment, in gcell grid coordinates (multiply by
/// RoutedDesign::gcell_dbu for DBU).
struct RoutePoint {
  std::int32_t x = 0;
  std::int32_t y = 0;
  friend bool operator==(const RoutePoint&, const RoutePoint&) = default;
};

/// Route of one net.
struct NetRoute {
  netlist::NetId net;
  std::int64_t wirelength_dbu = 0;
  int vias = 0;           ///< bend count proxy
  bool routed = false;    ///< false for unconnected/trivial nets
  /// Bend-compressed geometry: per two-pin segment, the endpoints plus
  /// every direction change (a single point for a same-gcell connection).
  /// Consecutive waypoints of a segment are colinear spans, so the
  /// Manhattan distance between them times gcell_dbu reproduces
  /// wirelength_dbu exactly (same-gcell segments count gcell_dbu / 2).
  std::vector<RoutePoint> waypoints;
  /// CSR offsets into `waypoints`: segment s spans
  /// [seg_begin[s], seg_begin[s + 1]); size = segment count + 1 when routed.
  std::vector<std::uint32_t> seg_begin;
};

struct RoutedDesign {
  const place::PlacedDesign* placed = nullptr;
  std::vector<NetRoute> nets;            ///< by NetId
  std::int64_t total_wirelength_dbu = 0;
  int total_vias = 0;
  int overflowed_edges = 0;              ///< edges above capacity at the end
  int iterations_used = 0;
  std::int64_t gcell_dbu = 0;            ///< gcell edge length, DBU
  double max_congestion = 0.0;           ///< peak edge utilization

  /// Wire length of a net in micrometres.
  [[nodiscard]] double net_length_um(netlist::NetId id) const {
    return static_cast<double>(nets.at(id.value).wirelength_dbu) * 1e-3;
  }
};

struct RouteStats {
  int grid_width = 0;
  int grid_height = 0;
  std::int64_t edge_capacity = 0;
  std::size_t segments_routed = 0;
  std::size_t reroutes = 0;
  int overflowed_edges = 0;  ///< edges above capacity when routing stopped
  int ripup_iterations = 0;  ///< rip-up rounds run
};

/// Routes all multi-pin nets of a placed design. Fails with
/// kResourceExhausted if overflow remains after max_ripup_iterations and
/// the design is declared unroutable (overflow > 5% of edges). `stats`
/// carries the overflow and rip-up counts on success and on that failure.
[[nodiscard]] util::Result<RoutedDesign> route(
    const place::PlacedDesign& placed, const pdk::TechnologyNode& node,
    const RouteOptions& options = {}, RouteStats* stats = nullptr);

}  // namespace eurochip::route
