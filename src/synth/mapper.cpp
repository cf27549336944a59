#include "eurochip/synth/mapper.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <unordered_map>
#include <vector>

#include "eurochip/synth/cuts.hpp"

namespace eurochip::synth {

namespace {

using netlist::CellFn;
using netlist::CellId;
using netlist::CellLibrary;
using netlist::LibraryCell;
using netlist::NetId;
using netlist::Netlist;

// Cut leaves: the widest cells the pattern table holds have three inputs.
constexpr int kCutSize = 3;

// ---------------------------------------------------------------------------
// Pattern table: (tt, cut size) -> best cell match.
// ---------------------------------------------------------------------------

struct Match {
  std::size_t lib_index = 0;   ///< concrete cell (smallest of its fn)
  std::uint8_t arity = 0;
  std::array<std::uint8_t, 3> perm = {0, 1, 2};  ///< cell input -> leaf slot
  std::uint8_t inv_mask = 0;   ///< per cell-input inversion
  double cost = 0.0;           ///< cell area + inverter-area estimate
  double delay_ps = 0.0;       ///< nominal cell delay estimate
};

using PatternKey = std::uint16_t;  // tt | (cut_size << 8)

constexpr PatternKey pattern_key(std::uint8_t tt, int cut_size) {
  return static_cast<PatternKey>(tt | (cut_size << 8));
}

class PatternTable {
 public:
  explicit PatternTable(const CellLibrary& lib) : lib_(lib) {
    const auto inv_index = lib.smallest_for(CellFn::kInv);
    inv_area_ = inv_index ? lib.cell(*inv_index).area_um2 : 1.0;
    inv_delay_ = inv_index ? nominal_delay(lib.cell(*inv_index)) : 10.0;

    for (std::size_t i = 0; i < lib.size(); ++i) {
      const LibraryCell& c = lib.cell(i);
      if (c.is_sequential() || c.num_inputs() == 0) continue;
      if (c.fn == CellFn::kBuf) continue;  // buffers never win a match
      // Only the smallest drive of each function seeds patterns; sizing is
      // a post-pass.
      const auto smallest = lib.smallest_for(c.fn);
      if (!smallest || *smallest != i) continue;
      add_cell_patterns(i);
    }
  }

  [[nodiscard]] const Match* find(std::uint8_t tt, int cut_size) const {
    const auto it = table_.find(pattern_key(tt, cut_size));
    return it == table_.end() ? nullptr : &it->second;
  }

 private:
  static double nominal_delay(const LibraryCell& c) {
    return c.delay_ps.lookup(20.0, 4.0 * std::max(0.1, c.input_cap_ff));
  }

  void add_cell_patterns(std::size_t lib_index) {
    const LibraryCell& c = lib_.cell(lib_index);
    const int n = c.num_inputs();
    // All injective placements of n cell inputs into the cut's leaf slots
    // are the permutations of {0,1,2} restricted to the first n entries.
    std::array<std::uint8_t, 3> p = {0, 1, 2};
    do {
      for (std::uint8_t inv = 0; inv < (1u << n); ++inv) {
        // Truth table over 3-var space.
        std::uint8_t tt = 0;
        std::uint8_t max_slot = 0;
        for (int j = 0; j < n; ++j) max_slot = std::max(max_slot, p[static_cast<std::size_t>(j)]);
        for (unsigned m = 0; m < 8; ++m) {
          unsigned cell_in = 0;
          for (int j = 0; j < n; ++j) {
            bool bit = ((m >> p[static_cast<std::size_t>(j)]) & 1u) != 0;
            if (((inv >> j) & 1u) != 0) bit = !bit;
            if (bit) cell_in |= 1u << j;
          }
          if (netlist::fn_eval(c.fn, cell_in)) tt |= static_cast<std::uint8_t>(1u << m);
        }
        const int inv_count = __builtin_popcount(inv);
        Match match;
        match.lib_index = lib_index;
        match.arity = static_cast<std::uint8_t>(n);
        match.perm = p;
        match.inv_mask = inv;
        match.cost = c.area_um2 + inv_count * inv_area_;
        match.delay_ps = nominal_delay(c) + (inv_count > 0 ? inv_delay_ : 0.0);
        // Register for every cut size that can host this pattern.
        for (int cs = max_slot + 1; cs <= kCutSize; ++cs) {
          const PatternKey key = pattern_key(tt, cs);
          const auto it = table_.find(key);
          if (it == table_.end() || match.cost < it->second.cost) {
            table_[key] = match;
          }
        }
      }
    } while (std::next_permutation(p.begin(), p.end()));
  }

  const CellLibrary& lib_;
  double inv_area_ = 1.0;
  double inv_delay_ = 10.0;
  std::unordered_map<PatternKey, Match> table_;
};

// ---------------------------------------------------------------------------
// Mapper.
// ---------------------------------------------------------------------------

struct NodeChoice {
  Cut cut;
  const Match* pos = nullptr;  ///< match for the node function
  const Match* neg = nullptr;  ///< match for its complement (optional)
};

class Mapper {
 public:
  Mapper(const Aig& aig, const CellLibrary& lib, const MapOptions& opt,
         MapStats* stats)
      : aig_(aig),
        lib_(lib),
        opt_(opt),
        stats_(stats),
        patterns_(lib),
        netlist_(&lib, "mapped") {}

  util::Result<Netlist> run() {
    if (util::Status s = aig_.check(); !s.ok()) return s;
    if (!lib_.smallest_for(CellFn::kInv) ||
        (!lib_.smallest_for(CellFn::kAnd2) &&
         !lib_.smallest_for(CellFn::kNand2))) {
      return util::Status::InvalidArgument(
          "library lacks inverter/AND primitives required for mapping");
    }
    compute_cuts_and_choices();
    emit();
    if (util::Status s = netlist_.check(); !s.ok()) return s;
    if (opt_.size_for_load) size_for_load();
    fill_stats();
    return std::move(netlist_);
  }

 private:
  void compute_cuts_and_choices() {
    cuts_.resize(aig_.num_nodes());
    choice_.resize(aig_.num_nodes());
    cost_.assign(aig_.num_nodes(), 0.0);

    // Leaves (inputs/latches/const) have trivial cuts and zero cost.
    for (std::uint32_t n = 0; n < aig_.num_nodes(); ++n) {
      if (aig_.node(n).kind != NodeKind::kAnd) cuts_[n] = {trivial_cut(n)};
    }

    for (std::uint32_t n : aig_.and_nodes_topo()) {
      const AigNode& an = aig_.node(n);
      std::vector<Cut> cand =
          merge_fanin_cuts(aig_, n, cuts_[lit_node(an.fanin0)],
                           cuts_[lit_node(an.fanin1)], kCutSize);
      // DP choice over matching cuts.
      NodeChoice best;
      double best_cost = std::numeric_limits<double>::infinity();
      for (const Cut& c : cand) {
        const auto tt = static_cast<std::uint8_t>(c.tt);
        const Match* pos = patterns_.find(tt, c.size);
        if (pos == nullptr) continue;
        double cost = 0.0;
        if (opt_.objective == MapObjective::kArea) {
          cost = pos->cost;
          for (std::uint8_t s = 0; s < c.size; ++s) {
            const std::uint32_t leaf = c.leaves[s];
            const double fanout =
                std::max<std::uint32_t>(1, aig_.node(leaf).fanout);
            cost += cost_[leaf] / fanout;
          }
        } else {
          double arrive = 0.0;
          for (std::uint8_t s = 0; s < c.size; ++s) {
            arrive = std::max(arrive, cost_[c.leaves[s]]);
          }
          cost = arrive + pos->delay_ps;
        }
        if (cost < best_cost) {
          best_cost = cost;
          best.cut = c;
          best.pos = pos;
          best.neg = patterns_.find(static_cast<std::uint8_t>(~tt), c.size);
        }
      }
      // The {fanin0, fanin1} cut always matches (AND with inversions), so
      // best.pos is guaranteed non-null here.
      choice_[n] = best;
      cost_[n] = best_cost;

      // Keep a pruned cut set for fanouts: chosen cut first, then smallest.
      std::sort(cand.begin(), cand.end(), [](const Cut& a, const Cut& b) {
        return a.size < b.size;
      });
      std::vector<Cut> kept;
      kept.push_back(best.cut);
      for (const Cut& c : cand) {
        if (kept.size() >= kCutsPerNode) break;
        if (std::find(kept.begin(), kept.end(), c) == kept.end()) {
          kept.push_back(c);
        }
      }
      // Trivial cut so fanouts can treat this node as a leaf.
      kept.push_back(trivial_cut(n));
      cuts_[n] = std::move(kept);
    }
  }

  // --- emission ------------------------------------------------------------

  NetId tie_net(bool value) {
    NetId& cache = value ? tie1_ : tie0_;
    if (cache.valid()) return cache;
    const CellFn fn = value ? CellFn::kTie1 : CellFn::kTie0;
    if (const auto idx = lib_.smallest_for(fn)) {
      const auto cell = netlist_.add_cell(value ? "tie1" : "tie0",
                                          static_cast<std::uint32_t>(*idx), {});
      cache = netlist_.cell(cell.value()).output;
    } else {
      cache = netlist_.add_const(value, value ? "const1" : "const0");
    }
    return cache;
  }

  NetId invert(NetId in) {
    if (const auto it = inverted_.find(in.value); it != inverted_.end()) {
      return it->second;
    }
    const auto inv = lib_.smallest_for(CellFn::kInv);
    const auto cell = netlist_.add_cell(
        "inv" + std::to_string(netlist_.num_cells()),
        static_cast<std::uint32_t>(*inv), {in});
    const NetId out = netlist_.cell(cell.value()).output;
    inverted_.emplace(in.value, out);
    if (stats_ != nullptr) ++stats_->inverters_added;
    return out;
  }

  /// Returns the net carrying `lit`, emitting logic on demand.
  NetId need_net(Lit lit) {
    const auto key = lit;
    if (const auto it = lit_net_.find(key); it != lit_net_.end()) {
      return it->second;
    }
    const std::uint32_t n = lit_node(lit);
    const AigNode& an = aig_.node(n);
    NetId net;
    if (an.kind == NodeKind::kConst) {
      net = tie_net(lit_compl(lit));
    } else if (an.kind == NodeKind::kInput || an.kind == NodeKind::kLatch) {
      // Base polarity nets were pre-registered; only complement lands here.
      net = invert(need_net(lit_not(lit)));
    } else {
      const NodeChoice& ch = choice_[n];
      const bool want_neg = lit_compl(lit);
      const Match* match = want_neg ? ch.neg : ch.pos;
      if (match != nullptr) {
        net = emit_match(n, ch.cut, *match);
      } else {
        // No direct cell for this polarity: invert the other one.
        net = invert(need_net(lit_not(lit)));
      }
    }
    lit_net_.emplace(key, net);
    return net;
  }

  NetId emit_match(std::uint32_t node, const Cut& cut, const Match& match) {
    std::vector<NetId> fanin(match.arity);
    for (std::uint8_t j = 0; j < match.arity; ++j) {
      const std::uint32_t leaf = cut.leaves[match.perm[j]];
      const bool inverted_input = ((match.inv_mask >> j) & 1u) != 0;
      fanin[j] = need_net(make_lit(leaf, inverted_input));
    }
    const auto cell = netlist_.add_cell(
        "g" + std::to_string(node) + "_" + std::to_string(netlist_.num_cells()),
        static_cast<std::uint32_t>(match.lib_index), std::move(fanin));
    if (stats_ != nullptr && match.arity >= 3) ++stats_->complex_cells_used;
    return netlist_.cell(cell.value()).output;
  }

  void emit() {
    // Primary inputs.
    for (std::size_t i = 0; i < aig_.inputs().size(); ++i) {
      const NetId net = netlist_.add_input(aig_.input_names()[i]);
      lit_net_.emplace(make_lit(aig_.inputs()[i], false), net);
    }
    // DFFs with placeholder inputs (rewired after the cover is emitted).
    const auto dff_index = lib_.smallest_for(CellFn::kDff);
    const NetId placeholder = tie_net(false);
    std::vector<CellId> dff_cells;
    for (std::uint32_t latch : aig_.latches()) {
      const auto cell =
          netlist_.add_cell("dff" + std::to_string(latch),
                            static_cast<std::uint32_t>(*dff_index),
                            {placeholder});
      dff_cells.push_back(cell.value());
      const NetId q = netlist_.cell(cell.value()).output;
      // Init-value folding: an init-1 latch stores the complement.
      const bool stored_complemented = aig_.latch_init(latch);
      lit_net_.emplace(make_lit(latch, stored_complemented), q);
    }
    // Outputs.
    for (const AigOutput& o : aig_.outputs()) {
      netlist_.add_output(o.name, need_net(o.lit));
    }
    // Latch next-states.
    for (std::size_t i = 0; i < aig_.latches().size(); ++i) {
      const std::uint32_t latch = aig_.latches()[i];
      Lit next = aig_.latch_next(latch);
      if (aig_.latch_init(latch)) next = lit_not(next);
      const NetId d = need_net(next);
      (void)netlist_.rewire_input(dff_cells[i], 0, d);
    }
  }

  void size_for_load() {
    for (netlist::CellId id : netlist_.all_cells()) {
      const netlist::CellView c = netlist_.cell(id);
      const LibraryCell& lc = lib_.cell(c.lib_index);
      double load = 0.0;
      for (const netlist::PinRef& sink : netlist_.net(c.output).sinks) {
        load += netlist_.lib_cell(sink.cell).input_cap_ff;
      }
      if (load <= lc.max_load_ff) continue;
      for (std::size_t idx : lib_.cells_for(lc.fn)) {
        if (lib_.cell(idx).max_load_ff >= load) {
          (void)netlist_.replace_cell_lib(id, static_cast<std::uint32_t>(idx));
          break;
        }
      }
    }
  }

  void fill_stats() {
    if (stats_ == nullptr) return;
    stats_->aig_ands = aig_.num_ands();
    stats_->mapped_cells = netlist_.num_cells();
    stats_->area_um2 = netlist_.total_area_um2();
  }

  const Aig& aig_;
  const CellLibrary& lib_;
  MapOptions opt_;
  MapStats* stats_;
  PatternTable patterns_;
  Netlist netlist_;

  std::vector<std::vector<Cut>> cuts_;
  std::vector<NodeChoice> choice_;
  std::vector<double> cost_;

  std::unordered_map<Lit, NetId> lit_net_;
  std::unordered_map<std::uint32_t, NetId> inverted_;
  NetId tie0_;
  NetId tie1_;
};

}  // namespace

util::Result<netlist::Netlist> map_to_library(const Aig& aig,
                                              const netlist::CellLibrary& lib,
                                              const MapOptions& options,
                                              MapStats* stats) {
  Mapper mapper(aig, lib, options, stats);
  return mapper.run();
}

}  // namespace eurochip::synth
