#include "eurochip/netlist/simulator.hpp"

#include <bit>
#include <cassert>

namespace eurochip::netlist {

namespace {

/// A combinational cell function applied to 64 lanes at once; pins a, b,
/// c are the cell's inputs in library order (see fn_truth_table).
std::uint64_t eval_word(CellFn fn, std::uint64_t a, std::uint64_t b,
                        std::uint64_t c) {
  switch (fn) {
    case CellFn::kTie0: return 0;
    case CellFn::kTie1: return ~std::uint64_t{0};
    case CellFn::kBuf: return a;
    case CellFn::kInv: return ~a;
    case CellFn::kAnd2: return a & b;
    case CellFn::kNand2: return ~(a & b);
    case CellFn::kOr2: return a | b;
    case CellFn::kNor2: return ~(a | b);
    case CellFn::kXor2: return a ^ b;
    case CellFn::kXnor2: return ~(a ^ b);
    case CellFn::kAnd3: return a & b & c;
    case CellFn::kNand3: return ~(a & b & c);
    case CellFn::kOr3: return a | b | c;
    case CellFn::kNor3: return ~(a | b | c);
    case CellFn::kAoi21: return ~((a & b) | c);
    case CellFn::kOai21: return ~((a | b) & c);
    case CellFn::kMux2: return (a & ~c) | (b & c);
    case CellFn::kDff: break;
  }
  assert(false && "sequential cell in the combinational program");
  return 0;
}

}  // namespace

util::Result<Simulator> Simulator::create(const Netlist& netlist) {
  if (util::Status s = netlist.check(); !s.ok()) return s;
  auto order = netlist.topo_order();
  if (!order.ok()) return order.status();

  Simulator sim(netlist);
  // topo_order() appends DFFs at the end; split them off.
  for (CellId id : order.value()) {
    const std::uint32_t out = netlist.output(id).value;
    const std::span<const NetId> fanin = netlist.fanin(id);
    if (netlist.lib_cell(id).is_sequential()) {
      sim.dff_out_net_.push_back(out);
      sim.dff_d_net_.push_back(fanin[0].value);
      continue;
    }
    assert(fanin.size() <= 3);
    Op op{netlist.lib_cell(id).fn, out, {out, out, out}};
    for (std::size_t k = 0; k < fanin.size(); ++k) op.in[k] = fanin[k].value;
    sim.program_.push_back(op);
  }
  sim.net_values_.assign(netlist.num_nets(), 0);
  sim.dff_state_.assign(sim.dff_out_net_.size(), 0);
  sim.toggles_.assign(netlist.num_nets(), 0);
  sim.lane0_inputs_.assign(netlist.inputs().size(), 0);
  // Constant nets hold their value in every lane from the start and are
  // never written again, so they never toggle.
  for (NetId id : netlist.all_nets()) {
    if (netlist.driver_kind(id) == DriverKind::kConst1) {
      sim.net_values_[id.value] = ~std::uint64_t{0};
    }
  }
  return sim;
}

std::size_t Simulator::num_inputs() const { return netlist_->inputs().size(); }
std::size_t Simulator::num_outputs() const { return netlist_->outputs().size(); }

void Simulator::reset() {
  dff_state_.assign(dff_state_.size(), 0);
  fresh_ = ~std::uint64_t{0};
}

void Simulator::propagate(std::span<const std::uint64_t> inputs,
                          std::uint64_t active) {
  assert(inputs.size() == num_inputs());
  // Each net has a single driver and is written at most once per pass, so
  // toggles are counted inline at the write: the active lanes whose value
  // changes, less the fresh ones.
  const std::uint64_t counted = active & ~fresh_;
  const auto set_net = [&](std::uint32_t net, std::uint64_t v) {
    const std::uint64_t changed = (net_values_[net] ^ v) & active;
    toggles_[net] +=
        static_cast<std::uint64_t>(std::popcount(changed & counted));
    net_values_[net] ^= changed;
  };

  const auto& ports = netlist_->inputs();
  for (std::size_t i = 0; i < ports.size(); ++i) {
    set_net(ports[i].net.value, inputs[i]);
  }
  for (std::size_t i = 0; i < dff_out_net_.size(); ++i) {
    set_net(dff_out_net_[i], dff_state_[i]);
  }
  for (const Op& op : program_) {
    set_net(op.out, eval_word(op.fn, net_values_[op.in[0]],
                              net_values_[op.in[1]], net_values_[op.in[2]]));
  }

  ++evals_;
  fresh_ &= ~active;
}

void Simulator::clock(std::uint64_t active) {
  for (std::size_t i = 0; i < dff_d_net_.size(); ++i) {
    dff_state_[i] ^= (dff_state_[i] ^ net_values_[dff_d_net_[i]]) & active;
  }
}

void Simulator::step_lanes(std::span<const std::uint64_t> inputs,
                           std::uint64_t active) {
  propagate(inputs, active);
  clock(active);
}

std::vector<bool> Simulator::eval(const std::vector<bool>& input_values) {
  assert(input_values.size() == num_inputs());
  for (std::size_t i = 0; i < lane0_inputs_.size(); ++i) {
    lane0_inputs_[i] = input_values[i] ? 1 : 0;
  }
  propagate(lane0_inputs_, 1);
  std::vector<bool> out;
  out.reserve(num_outputs());
  for (const Port& p : netlist_->outputs()) out.push_back(net_value(p.net));
  return out;
}

std::vector<bool> Simulator::step(const std::vector<bool>& input_values) {
  std::vector<bool> out = eval(input_values);
  clock(1);
  return out;
}

bool Simulator::net_value(NetId net) const {
  return (net_lanes(net) & 1) != 0;
}

std::uint64_t Simulator::net_lanes(NetId net) const {
  return net_values_.at(net.value);
}

}  // namespace eurochip::netlist
