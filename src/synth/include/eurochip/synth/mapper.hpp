// Cut-based technology mapping: covers an optimized AIG with standard
// cells from a netlist::CellLibrary.
//
// Method: enumerate 3-feasible cuts per AND node with the shared cut
// engine (cuts.hpp), which composes each cut's truth table from its fanin
// cuts' tables; match the table against a precomputed pattern table of
// library-cell functions under all input permutations (with optional
// per-input inversions costed as inverters), then select a cover by
// dynamic programming — area flow for area mode, arrival time for delay
// mode — and emit the mapped netlist. Latches map to DFF cells with
// init-value polarity folding; complemented requirements use a matched
// complement cell when available, otherwise a shared inverter.
#pragma once

#include "eurochip/netlist/library.hpp"
#include "eurochip/netlist/netlist.hpp"
#include "eurochip/synth/aig.hpp"
#include "eurochip/util/result.hpp"

namespace eurochip::synth {

enum class MapObjective { kArea, kDelay };

struct MapOptions {
  MapObjective objective = MapObjective::kArea;
  bool size_for_load = false;   ///< post-pass: upsize overloaded drivers
};

struct MapStats {
  std::size_t aig_ands = 0;
  std::size_t mapped_cells = 0;
  std::size_t inverters_added = 0;
  std::size_t complex_cells_used = 0;
  double area_um2 = 0.0;
};

/// Maps `aig` into a netlist over `library`. The netlist's I/O ordering
/// matches the AIG's. The returned netlist references `library`, which must
/// outlive it.
[[nodiscard]] util::Result<netlist::Netlist> map_to_library(
    const Aig& aig, const netlist::CellLibrary& library,
    const MapOptions& options = {}, MapStats* stats = nullptr);

}  // namespace eurochip::synth
