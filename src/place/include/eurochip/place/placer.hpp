// Standard-cell placement: quadratic global placement (in-place
// Gauss-Seidel sweeps over the connectivity star/clique model) with
// bin-based spreading, Tetris legalization onto rows, and greedy in-row
// detailed placement. I/O ports are assigned fixed pad positions on the
// die boundary. All stages are deterministic for a fixed seed.
#pragma once

#include <cstdint>
#include <vector>

#include "eurochip/netlist/netlist.hpp"
#include "eurochip/place/floorplan.hpp"
#include "eurochip/util/geometry.hpp"
#include "eurochip/util/result.hpp"
#include "eurochip/util/rng.hpp"

namespace eurochip::place {

struct PlacementOptions {
  double target_utilization = 0.65;
  int global_iterations = 60;     ///< Gauss-Seidel wirelength sweeps
  int spreading_rounds = 6;       ///< density-spreading interleaves
  int detailed_passes = 2;        ///< in-row swap passes
  bool random_only = false;       ///< skip global placement (ablation)
  std::uint64_t seed = 1;
};

/// A fully placed design: per-cell origins plus fixed pad positions.
struct PlacedDesign {
  const netlist::Netlist* netlist = nullptr;
  Floorplan floorplan;
  std::vector<util::Point> cell_origin;   ///< by CellId, lower-left corner
  std::vector<util::Point> input_pad;     ///< by input port index
  std::vector<util::Point> output_pad;    ///< by output port index
  /// Net -> pad points index (derived from input_pad/output_pad; built by
  /// place() via build_pad_index()). When present, net_pins/net_bbox avoid
  /// the O(ports) primary-port scan per call.
  std::vector<std::vector<util::Point>> net_pad_points;

  /// (Re)builds net_pad_points from the current pad positions. Call after
  /// constructing a PlacedDesign by hand or mutating pad locations.
  void build_pad_index();

  /// Footprint rect of a placed cell.
  [[nodiscard]] util::Rect cell_rect(netlist::CellId id) const;

  /// Connection point used for wirelength/routing (cell center).
  [[nodiscard]] util::Point cell_pin(netlist::CellId id) const;

  /// All connection points of a net: driver, sinks, and port pads.
  [[nodiscard]] std::vector<util::Point> net_pins(netlist::NetId id) const;

  /// Bounding box of a net's pins without materializing the pin list.
  [[nodiscard]] util::BoundingBox net_bbox(netlist::NetId id) const;

  /// Half-perimeter wirelength over all nets, DBU.
  [[nodiscard]] std::int64_t total_hpwl() const;

  /// Number of overlapping cell pairs (0 after legalization).
  [[nodiscard]] std::size_t overlap_count() const;

  /// True if every cell is row-aligned, site-aligned, and inside the core.
  [[nodiscard]] bool is_legal() const;
};

struct PlaceStats {
  std::int64_t hpwl_after_global = 0;
  std::int64_t hpwl_after_legal = 0;
  std::int64_t hpwl_final = 0;
  std::size_t cells = 0;
  double runtime_proxy_ops = 0;  ///< deterministic work counter
};

/// Places `netlist` on a floorplan derived from `node`.
[[nodiscard]] util::Result<PlacedDesign> place(
    const netlist::Netlist& netlist, const pdk::TechnologyNode& node,
    const PlacementOptions& options = {}, PlaceStats* stats = nullptr);

}  // namespace eurochip::place
