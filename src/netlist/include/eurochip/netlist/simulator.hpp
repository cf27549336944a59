// Two-state, word-parallel netlist simulator (levelized evaluation).
// Every net holds a 64-bit word whose bit l is the net's value in lane l,
// so one pass over the netlist evaluates up to 64 independent stimulus
// streams with bitwise cell functions. Used for equivalence checking
// between RTL, AIG, and mapped netlists (one lane), and for switching-
// activity extraction by the power model (one lane per Monte-Carlo window).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "eurochip/netlist/netlist.hpp"
#include "eurochip/util/result.hpp"

namespace eurochip::netlist {

/// Simulates a checked Netlist in up to 64 lanes at once. Combinational
/// evaluation is levelized over the topological order; sequential state
/// advances on step(). Each pass evaluates only its `active` lanes; the
/// other lanes keep their net values and DFF state untouched.
///
/// A lane is fresh after construction and after reset(): its first
/// evaluation establishes net values without counting toggles, so a lane's
/// toggles measure the transitions between its own consecutive cycles.
///
/// The scalar interface (eval, step, net_value) is lane 0 of the same
/// kernel.
class Simulator {
 public:
  /// Fails if the netlist does not pass check() or has a combinational cycle.
  static util::Result<Simulator> create(const Netlist& netlist);

  /// Number of primary inputs / outputs.
  [[nodiscard]] std::size_t num_inputs() const;
  [[nodiscard]] std::size_t num_outputs() const;

  /// Sets all DFF states to 0 in every lane and marks every lane fresh.
  void reset();

  /// Evaluates combinational logic in lane 0 for the given input values
  /// (size must equal num_inputs()) and returns primary-output values.
  /// Does not advance sequential state.
  std::vector<bool> eval(const std::vector<bool>& input_values);

  /// Evaluates lane 0, then clocks its DFFs once (d -> q). Returns outputs
  /// observed before the clock edge.
  std::vector<bool> step(const std::vector<bool>& input_values);

  /// Evaluates the `active` lanes, then clocks their DFFs once. `inputs`
  /// holds one word per primary input (size must equal num_inputs()); bit
  /// l of a word is that input's value in lane l. Afterwards net_lanes()
  /// shows the values observed before the clock edge.
  void step_lanes(std::span<const std::uint64_t> inputs,
                  std::uint64_t active);

  /// Value currently on a net in lane 0 (after the last evaluation).
  [[nodiscard]] bool net_value(NetId net) const;
  /// Value currently on a net in every lane (bit l = lane l).
  [[nodiscard]] std::uint64_t net_lanes(NetId net) const;

  /// Number of value changes observed on each net, summed over lanes,
  /// across all evaluations since construction — the toggle counts used
  /// by power analysis.
  [[nodiscard]] const std::vector<std::uint64_t>& toggle_counts() const {
    return toggles_;
  }
  /// Number of evaluation passes, each covering all of its active lanes.
  [[nodiscard]] std::uint64_t eval_count() const { return evals_; }

 private:
  explicit Simulator(const Netlist& netlist) : netlist_(&netlist) {}

  void propagate(std::span<const std::uint64_t> inputs, std::uint64_t active);
  void clock(std::uint64_t active);

  /// One combinational cell of the flattened evaluation program, built
  /// once in create(): its function, output net, and fanin nets (unused
  /// pins point at the output net and are ignored by the function).
  struct Op {
    CellFn fn;
    std::uint32_t out;
    std::uint32_t in[3];
  };

  const Netlist* netlist_;
  std::vector<Op> program_;                 ///< combinational topo order
  std::vector<std::uint64_t> net_values_;   ///< lane word per net
  std::vector<std::uint64_t> dff_state_;    ///< lane word of Q per DFF
  std::vector<std::uint32_t> dff_out_net_;  ///< Q net per DFF
  std::vector<std::uint32_t> dff_d_net_;    ///< D net per DFF
  std::vector<std::uint64_t> toggles_;
  std::vector<std::uint64_t> lane0_inputs_;  ///< eval()'s input words
  std::uint64_t fresh_ = ~std::uint64_t{0};  ///< lanes not yet evaluated
  std::uint64_t evals_ = 0;
};

}  // namespace eurochip::netlist
