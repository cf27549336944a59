// Cross-stage symbol provenance for the design-debug service.
//
// A SymbolTable threads "where did my signal go?" information through every
// flow stage: RTL port/signal declarations (elaborate), the bit-blasted
// name -> mapped net/cell binding plus per-cell origin tags (map/dft — who
// minted this cell: the mapper, the fanout bufferer, the scan stitcher?),
// the uniquified names the verilog writer would emit (so a student can line
// the netlist dump up with the query output), and per-net STA arrivals
// (sta). Placement and routing need no side table of their own — they are
// already indexed by CellId/NetId, which the Bit bindings carry.
//
// Representation follows the SoA netlist: one append-only interned-name
// arena (netlist::NameRef offsets into it) plus flat vectors indexed by
// CellId/NetId/port index. The table is plain data — shared immutably by
// FlowCache entries (map/dft/sta extend a copy), serializable as a wire
// artifact (flow/serialize.cpp), and deliberately free of pointers into
// the netlist so a cache restore cannot dangle.
//
// Invariants (enforced by dbg_test):
//   * building the table never changes flow artifacts — a run with symbols
//     is bit-identical to one without (the table is an overlay, not a pass);
//   * every vector indexed by CellId/NetId matches the final (post-dft)
//     netlist's num_cells()/num_nets();
//   * stage_mask only ever gains bits in flow order (elab -> map -> names
//     -> sta); restoring a step's cache entry yields exactly the bits of
//     the steps up to it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "eurochip/netlist/netlist.hpp"

namespace eurochip::dbg {

/// Which flow stages have populated their slice of the table.
enum StageBit : std::uint8_t {
  kStageElab = 1u << 0,   ///< rtl_signals
  kStageMap = 1u << 1,    ///< bits + cell_origin
  kStageNames = 1u << 2,  ///< verilog writer names (post-dft netlist)
  kStageSta = 1u << 3,    ///< arrivals
};

/// Who minted a cell of the mapped netlist.
enum class CellOrigin : std::uint8_t {
  kMapped = 0,  ///< technology mapper (covers an AIG cut)
  kTie,         ///< constant tie cell
  kBuffer,      ///< fanout bufferer (synth::insert_buffers)
  kScan,        ///< scan stitcher (synth::insert_scan_chain)
};

const char* to_string(CellOrigin origin);

struct SymbolTable {
  /// RTL-level declaration, straight from the rtl::Module.
  struct RtlSignal {
    netlist::NameRef name;
    std::uint8_t kind = 0;  ///< rtl::SignalKind value
    std::int32_t width = 1;
  };

  enum class BitKind : std::uint8_t { kInput, kOutput, kReg };

  /// One RTL bit bound to its location in the mapped netlist. The name is
  /// the elaborator's bit-blast convention: "sig[b]", or "sig" for 1-bit
  /// signals.
  struct Bit {
    netlist::NameRef name;
    BitKind kind = BitKind::kInput;
    netlist::NetId net;    ///< net carrying the bit (PI net / PO net / Q)
    netlist::CellId cell;  ///< the DFF for kReg; invalid otherwise
  };

  std::uint8_t stage_mask = 0;

  // --- elaborate ---------------------------------------------------------
  std::vector<RtlSignal> rtl_signals;

  // --- map + dft ---------------------------------------------------------
  std::vector<Bit> bits;
  /// By CellId over the final netlist; values are CellOrigin.
  std::vector<std::uint8_t> cell_origin;

  // --- verilog names (post-dft netlist, writer's uniquified spelling) ----
  netlist::NameRef module_name;
  netlist::NameRef clock_name;
  std::vector<netlist::NameRef> input_names;   ///< by input port index
  std::vector<netlist::NameRef> output_names;  ///< by output port index
  std::vector<netlist::NameRef> net_names;     ///< by NetId; empty = none
  std::vector<netlist::NameRef> instance_names;  ///< by CellId

  // --- sta ---------------------------------------------------------------
  std::vector<double> arrival_ps;      ///< by NetId, latest arrival
  std::vector<double> arrival_min_ps;  ///< by NetId, earliest arrival
  std::vector<std::uint8_t> net_driven;  ///< by NetId, 0/1

  // --- arena -------------------------------------------------------------
  /// Interns `name` (no dedup — side tables are written once per stage).
  netlist::NameRef intern(std::string_view name);

  [[nodiscard]] std::string_view sv(netlist::NameRef ref) const {
    return std::string_view(arena_).substr(ref.offset, ref.size);
  }

  [[nodiscard]] bool has(StageBit stage) const {
    return (stage_mask & stage) != 0;
  }

  [[nodiscard]] const std::string& arena() const { return arena_; }
  void set_arena(std::string arena) { arena_ = std::move(arena); }

  // --- lookups -----------------------------------------------------------

  /// Bits whose name is exactly `rtl_name`, or — when `rtl_name` names a
  /// multi-bit signal — all bits "rtl_name[b]" in ascending bit order.
  [[nodiscard]] std::vector<const Bit*> find_bits(
      std::string_view rtl_name) const;

  /// The RTL declaration of `rtl_name` (nullptr if unknown).
  [[nodiscard]] const RtlSignal* find_rtl_signal(
      std::string_view rtl_name) const;

  [[nodiscard]] CellOrigin origin(netlist::CellId cell) const {
    if (cell.value >= cell_origin.size()) return CellOrigin::kMapped;
    return static_cast<CellOrigin>(cell_origin[cell.value]);
  }

  /// Approximate heap footprint, for the FlowCache byte budget.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  std::string arena_;
};

}  // namespace eurochip::dbg
