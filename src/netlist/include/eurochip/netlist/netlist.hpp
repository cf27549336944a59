// Gate-level netlist: cells instantiating CellLibrary entries, connected by
// single-driver nets. This is the exchange format between synthesis output
// and the physical-design / analysis stages.
//
// Storage model (abc-zz "Gig"-style arena / struct-of-arrays)
// -----------------------------------------------------------
// Million-cell designs do not survive a pointer-rich object-per-node
// representation: a heap std::string per net and a heap fanin vector per
// cell cost hundreds of bytes and an allocator round-trip each, and every
// traversal chases cold pointers. This netlist instead keeps ALL graph
// state in flat parallel arrays indexed by 32-bit CellId/NetId:
//
//   * cell fanins live contiguously in one bump-allocated pool with a
//     CSR offset array (a cell's arity never changes, so the pool is
//     append-only and a cell's fanin slice is a std::span);
//   * net sink adjacency is a pool of 12-byte chain nodes (PinRef + next)
//     with per-net head/tail/count — appends are a bump allocation, and
//     rewire_input unlinks in O(fanout) while preserving the exact
//     vector-erase ordering the analysis kernels were built against;
//   * names are interned into one string arena and referenced by
//     (offset, size) pairs — accessors hand out std::string_view.
//
// Consequences: a Netlist copy is a handful of flat memcpys plus one arena
// copy (what a flow step that edits a shared netlist pays, e.g. scan
// insertion), the whole structure costs a bounded number of bytes per cell
// (enforced by bench_netlist_scale), and traversal kernels stream through
// contiguous arrays. Per-id annotations in consumers should use netlist::IdMap
// (side_table.hpp) rather than ad-hoc hash maps.
//
// Accessors return lightweight views (CellView/NetView) by value; like
// the references the previous implementation returned, they are
// invalidated by subsequent mutation of the netlist. Primary-port lists
// keep owned std::string names: they are boundary-sized (dozens), not
// design-sized (millions), and callers consume them as strings.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "eurochip/netlist/library.hpp"
#include "eurochip/util/result.hpp"

namespace eurochip::netlist {

/// Strongly-typed handles; value is an index into the owning Netlist.
struct CellId {
  std::uint32_t value = kInvalid;
  static constexpr std::uint32_t kInvalid =
      std::numeric_limits<std::uint32_t>::max();
  [[nodiscard]] bool valid() const { return value != kInvalid; }
  friend bool operator==(const CellId&, const CellId&) = default;
};

struct NetId {
  std::uint32_t value = kInvalid;
  static constexpr std::uint32_t kInvalid =
      std::numeric_limits<std::uint32_t>::max();
  [[nodiscard]] bool valid() const { return value != kInvalid; }
  friend bool operator==(const NetId&, const NetId&) = default;
};

/// A (cell, input-pin) pair — one sink of a net.
struct PinRef {
  CellId cell;
  std::uint8_t pin = 0;
  friend bool operator==(const PinRef&, const PinRef&) = default;
};

/// What drives a net.
enum class DriverKind : std::uint8_t {
  kNone,    ///< floating (invalid in a checked netlist)
  kCell,    ///< output of a cell
  kInput,   ///< primary input
  kConst0,
  kConst1,
};

/// Reference into the owning netlist's interned-name arena.
struct NameRef {
  std::uint32_t offset = 0;
  std::uint32_t size = 0;
};

/// One node of a net's sink chain in the shared sink pool.
struct SinkNode {
  PinRef ref;
  std::uint32_t next = kNullSink;
  static constexpr std::uint32_t kNullSink =
      std::numeric_limits<std::uint32_t>::max();
};

/// Forward range over one net's sinks, in insertion order (the same order
/// the previous vector-of-sinks implementation produced: appends at the
/// tail, removals keep relative order).
class SinkRange {
 public:
  SinkRange(const SinkNode* pool, std::uint32_t head, std::uint32_t count)
      : pool_(pool), head_(head), count_(count) {}

  class iterator {
   public:
    using value_type = PinRef;
    using difference_type = std::ptrdiff_t;
    iterator(const SinkNode* pool, std::uint32_t idx)
        : pool_(pool), idx_(idx) {}
    const PinRef& operator*() const { return pool_[idx_].ref; }
    const PinRef* operator->() const { return &pool_[idx_].ref; }
    iterator& operator++() {
      idx_ = pool_[idx_].next;
      return *this;
    }
    iterator operator++(int) {
      iterator tmp = *this;
      ++*this;
      return tmp;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.idx_ == b.idx_;
    }

   private:
    const SinkNode* pool_;
    std::uint32_t idx_;
  };

  [[nodiscard]] iterator begin() const { return {pool_, head_}; }
  [[nodiscard]] iterator end() const { return {pool_, SinkNode::kNullSink}; }
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

 private:
  const SinkNode* pool_;
  std::uint32_t head_;
  std::uint32_t count_;
};

/// Value view of one cell. Cheap to copy; `fanin` and `name` borrow the
/// netlist's arenas and are invalidated by mutation, exactly like the
/// references the old vector<Cell> storage handed out.
struct CellView {
  std::string_view name;
  std::uint32_t lib_index = 0;
  std::span<const NetId> fanin;    ///< ordered input nets (size == arity)
  NetId output;                    ///< the single output net
};

/// Value view of one net.
struct NetView {
  std::string_view name;
  DriverKind driver_kind = DriverKind::kNone;
  CellId driver_cell;              ///< valid iff driver_kind == kCell
  bool is_primary_output = false;
  SinkRange sinks;                 ///< cell input pins fed by this net
};

/// Primary input/output port. Owned name: port lists are boundary-sized,
/// not design-sized, so they stay outside the interned arena.
struct Port {
  std::string name;
  NetId net;
};

/// Raw struct-of-arrays image of a netlist — the wire-format exchange
/// shape (flow/serialize v2 codec) and the bulk-construction input of
/// from_raw(). Sink adjacency is CSR here (sink_begin has num_nets + 1
/// entries); from_raw() rebuilds the chain pool, preserving order.
struct RawNetlist {
  std::string name_arena;
  // cells
  std::vector<NameRef> cell_name;
  std::vector<std::uint32_t> cell_lib;
  std::vector<std::uint32_t> cell_fanin_begin;  ///< CSR, num_cells + 1
  std::vector<NetId> fanin_pool;
  std::vector<NetId> cell_output;
  // nets
  std::vector<NameRef> net_name;
  std::vector<DriverKind> net_driver_kind;
  std::vector<CellId> net_driver_cell;
  std::vector<std::uint8_t> net_is_output;      ///< 0/1 per net
  std::vector<std::uint32_t> sink_begin;        ///< CSR, num_nets + 1
  std::vector<PinRef> sink_pool;
  // ports
  std::vector<Port> inputs;
  std::vector<Port> outputs;
};

/// A flat, single-clock, gate-level netlist.
///
/// Invariants after check(): every net has exactly one driver; every cell
/// input is connected; fanin sizes match the library function arity; sink
/// lists are consistent with cell fanins (each connected (cell, pin)
/// appears exactly once); the primary-input port list and the kInput-
/// driven nets are in bijection.
class Netlist {
 public:
  explicit Netlist(const CellLibrary* library, std::string name = "top")
      : library_(library), name_(std::move(name)) {}

  // --- construction -------------------------------------------------------

  /// Pre-sizes the arenas for bulk construction (optional; the arrays all
  /// grow on demand).
  void reserve(std::size_t cells, std::size_t nets, std::size_t fanin_edges,
               std::size_t name_bytes);

  /// Creates a floating net.
  NetId add_net(std::string_view name);

  /// Creates a primary input port driving a fresh net.
  NetId add_input(std::string name);

  /// Marks `net` as a primary output named `name`.
  void add_output(std::string name, NetId net);

  /// Ties a net to constant 0/1.
  NetId add_const(bool value, std::string_view name);

  /// Instantiates a library cell driving a fresh output net.
  /// `fanin.size()` must equal the cell function's arity.
  util::Result<CellId> add_cell(std::string_view name, std::uint32_t lib_index,
                                std::span<const NetId> fanin);
  util::Result<CellId> add_cell(std::string_view name, std::uint32_t lib_index,
                                std::initializer_list<NetId> fanin) {
    return add_cell(name, lib_index, std::span<const NetId>(fanin));
  }

  /// Re-points one input pin of a cell to a different net, keeping sink
  /// lists consistent.
  util::Status rewire_input(CellId cell, std::uint8_t pin, NetId new_net);

  /// Swaps a cell's library entry for another implementing the same
  /// function (used by drive-strength sizing).
  util::Status replace_cell_lib(CellId cell, std::uint32_t new_lib_index);

  /// Reassembles a netlist from a raw SoA image (wire-format
  /// deserialization; flow/serialize). Shape consistency (array lengths,
  /// CSR monotonicity, name refs inside the arena, ids in range) is
  /// validated here; callers that read the image from an untrusted stream
  /// run check() afterwards for the semantic invariants.
  [[nodiscard]] static util::Result<Netlist> from_raw(
      const CellLibrary* library, std::string name, RawNetlist raw);

  /// Flattens this netlist into the raw SoA exchange image (sink chains
  /// are materialized as CSR in iteration order).
  [[nodiscard]] RawNetlist to_raw() const;

  // --- access --------------------------------------------------------------

  [[nodiscard]] const CellLibrary& library() const { return *library_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  [[nodiscard]] std::size_t num_cells() const { return cell_lib_.size(); }
  [[nodiscard]] std::size_t num_nets() const {
    return net_driver_kind_.size();
  }
  /// Total fanin edges across all cells (the fanin pool size).
  [[nodiscard]] std::size_t num_fanin_edges() const {
    return fanin_pool_.size();
  }

  [[nodiscard]] CellView cell(CellId id) const;
  [[nodiscard]] NetView net(NetId id) const;
  [[nodiscard]] const LibraryCell& lib_cell(CellId id) const {
    return library_->cell(cell_lib_.at(id.value));
  }

  // Field accessors for hot paths (no view construction).
  [[nodiscard]] std::string_view cell_name(CellId id) const {
    return sv(cell_name_.at(id.value));
  }
  [[nodiscard]] std::string_view net_name(NetId id) const {
    return sv(net_name_.at(id.value));
  }
  [[nodiscard]] std::uint32_t lib_index(CellId id) const {
    return cell_lib_.at(id.value);
  }
  [[nodiscard]] std::span<const NetId> fanin(CellId id) const {
    const std::uint32_t begin = cell_fanin_begin_.at(id.value);
    return {fanin_pool_.data() + begin,
            cell_fanin_begin_[id.value + 1] - begin};
  }
  [[nodiscard]] NetId output(CellId id) const {
    return cell_output_.at(id.value);
  }
  [[nodiscard]] DriverKind driver_kind(NetId id) const {
    return net_driver_kind_.at(id.value);
  }
  [[nodiscard]] CellId driver_cell(NetId id) const {
    return net_driver_cell_.at(id.value);
  }
  [[nodiscard]] bool is_primary_output(NetId id) const {
    return net_is_output_.at(id.value) != 0;
  }
  [[nodiscard]] SinkRange sinks(NetId id) const {
    return {sink_pool_.data(), sink_head_.at(id.value),
            sink_count_[id.value]};
  }
  [[nodiscard]] std::size_t num_sinks(NetId id) const {
    return sink_count_.at(id.value);
  }
  /// Materialized copy of a net's sinks — for callers that mutate the
  /// netlist while iterating (fanout rebuffering).
  [[nodiscard]] std::vector<PinRef> sink_snapshot(NetId id) const;

  [[nodiscard]] const std::vector<Port>& inputs() const { return inputs_; }
  [[nodiscard]] const std::vector<Port>& outputs() const { return outputs_; }

  /// All cell ids, in creation order.
  [[nodiscard]] std::vector<CellId> all_cells() const;

  /// All net ids, in creation order.
  [[nodiscard]] std::vector<NetId> all_nets() const;

  /// Sequential (DFF) cells.
  [[nodiscard]] std::vector<CellId> sequential_cells() const;

  // --- analysis ------------------------------------------------------------

  /// Validates the structural invariants; kInternal status describes the
  /// first violation found.
  [[nodiscard]] util::Status check() const;

  /// Combinational cells in topological order (fanin before fanout).
  /// DFF outputs are treated as sources; DFFs themselves are appended last.
  /// Fails if a combinational cycle exists.
  [[nodiscard]] util::Result<std::vector<CellId>> topo_order() const;

  /// Sum of cell areas in um^2.
  [[nodiscard]] double total_area_um2() const;

  /// Sum of leakage in nW.
  [[nodiscard]] double total_leakage_nw() const;

  /// Count of cells implementing `fn`.
  [[nodiscard]] std::size_t count_fn(CellFn fn) const;

  /// Longest combinational path length in cell count (levels).
  [[nodiscard]] std::size_t logic_depth() const;

  /// Live heap bytes of the graph storage (arrays at current element
  /// counts plus the name arena; excludes growth slack and the port
  /// lists' string allocations). This is what FlowCache charges a cached
  /// netlist at and what bench_netlist_scale's bytes-per-cell gate
  /// measures.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  [[nodiscard]] std::string_view sv(NameRef ref) const {
    return std::string_view(name_arena_).substr(ref.offset, ref.size);
  }
  NameRef intern(std::string_view name);
  /// Appends (cell, pin) to `net`'s sink chain (bump-allocates a node).
  void append_sink(NetId net, PinRef ref);

  const CellLibrary* library_;
  std::string name_;

  // One interned-name arena; NameRefs index into it. Append-only.
  std::string name_arena_;

  // --- cells (parallel arrays indexed by CellId) ---
  std::vector<NameRef> cell_name_;
  std::vector<std::uint32_t> cell_lib_;
  std::vector<std::uint32_t> cell_fanin_begin_;  ///< CSR, size num_cells+1
  std::vector<NetId> cell_output_;
  std::vector<NetId> fanin_pool_;                ///< bump-allocated, contiguous

  // --- nets (parallel arrays indexed by NetId) ---
  std::vector<NameRef> net_name_;
  std::vector<DriverKind> net_driver_kind_;
  std::vector<CellId> net_driver_cell_;
  std::vector<std::uint8_t> net_is_output_;
  std::vector<std::uint32_t> sink_head_;
  std::vector<std::uint32_t> sink_tail_;
  std::vector<std::uint32_t> sink_count_;
  std::vector<SinkNode> sink_pool_;              ///< bump-allocated chains

  std::vector<Port> inputs_;
  std::vector<Port> outputs_;
};

}  // namespace eurochip::netlist
