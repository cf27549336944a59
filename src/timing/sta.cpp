#include "eurochip/timing/sta.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "eurochip/util/trace.hpp"

namespace eurochip::timing {

namespace {

using netlist::CellId;
using netlist::DriverKind;
using netlist::NetId;
using netlist::Netlist;

struct NetTiming {
  double arrival_ps = 0.0;       ///< latest arrival, wire delay included
  double arrival_min_ps = 0.0;   ///< earliest arrival (hold analysis)
  double slew_ps = 20.0;
  NetId pred;                ///< fanin net that set the arrival (backtrack)
  CellId via_cell;           ///< cell traversed from pred to this net
  bool driven = false;
  bool from_register = false;    ///< min path launches from a register
};

/// Wire parasitics for a net: (resistance kOhm, capacitance fF).
struct WireRc {
  double res_kohm = 0.0;
  double cap_ff = 0.0;
};

/// Per-um wire parasitics, averaged over the metal stack once per analysis
/// instead of per net. The router spreads tracks across the whole stack
/// (see router.cpp dir_layers), so per-um parasitics are the arithmetic
/// mean of all layers, not the bottom layer alone — upper layers are
/// progressively less resistive, so front()-only systematically
/// overestimated wire delay.
struct RcModel {
  double res_ohm_per_um = 0.0;
  double cap_ff_per_um = 0.0;

  static RcModel from_node(const pdk::TechnologyNode& node) {
    RcModel m;
    if (node.layers.empty()) return m;
    for (const auto& layer : node.layers) {
      m.res_ohm_per_um += layer.res_ohm_per_um;
      m.cap_ff_per_um += layer.cap_ff_per_um;
    }
    m.res_ohm_per_um /= static_cast<double>(node.layers.size());
    m.cap_ff_per_um /= static_cast<double>(node.layers.size());
    return m;
  }
};

WireRc wire_rc(const Netlist& nl, NetId id, const RcModel& model,
               const StaOptions& opt, const route::RoutedDesign* routing) {
  WireRc rc;
  if (routing != nullptr && id.value < routing->nets.size() &&
      routing->nets[id.value].routed) {
    const double len_um = routing->net_length_um(id);
    rc.res_kohm = model.res_ohm_per_um * len_um * 1e-3;
    rc.cap_ff = model.cap_ff_per_um * len_um;
  } else {
    rc.cap_ff = opt.wireload_cap_per_fanout_ff *
                static_cast<double>(nl.net(id).sinks.size());
    // Pre-layout resistance folded into the cap-only wireload model.
  }
  return rc;
}

double net_load_ff(const Netlist& nl, NetId id, const StaOptions& opt,
                   double wire_cap_ff) {
  double load = wire_cap_ff;
  for (const auto& sink : nl.net(id).sinks) {
    load += nl.lib_cell(sink.cell).input_cap_ff;
  }
  if (nl.net(id).is_primary_output) load += opt.primary_output_load_ff;
  return load;
}

}  // namespace

util::Result<TimingReport> analyze(const Netlist& nl,
                                   const pdk::TechnologyNode& node,
                                   const StaOptions& opt,
                                   const route::RoutedDesign* routing,
                                   std::vector<NetArrival>* arrivals) {
  if (util::Status s = nl.check(); !s.ok()) return s;
  if (routing != nullptr && routing->placed != nullptr &&
      routing->placed->netlist != &nl) {
    return util::Status::InvalidArgument(
        "routing belongs to a different netlist");
  }
  auto order = nl.topo_order();
  if (!order.ok()) return order.status();

  std::vector<NetTiming> nt(nl.num_nets());

  // Sources: primary inputs and constants.
  for (const auto& port : nl.inputs()) {
    nt[port.net.value].arrival_ps = 0.0;
    nt[port.net.value].slew_ps = opt.input_slew_ps;
    nt[port.net.value].driven = true;
  }
  for (NetId id : nl.all_nets()) {
    const auto kind = nl.net(id).driver_kind;
    if (kind == DriverKind::kConst0 || kind == DriverKind::kConst1) {
      nt[id.value].arrival_ps = 0.0;
      nt[id.value].slew_ps = opt.input_slew_ps;
      nt[id.value].driven = true;
    }
  }
  const RcModel rc_model = RcModel::from_node(node);

  // DFF outputs launch at clk-to-q.
  double setup_ps = 0.0;
  for (CellId ff : nl.sequential_cells()) {
    const auto& lc = nl.lib_cell(ff);
    const NetId q = nl.cell(ff).output;
    const WireRc rc = wire_rc(nl, q, rc_model, opt, routing);
    const double load = net_load_ff(nl, q, opt, rc.cap_ff);
    const double clk_q = lc.delay_ps.lookup(opt.input_slew_ps, load);
    const double wire_delay = rc.res_kohm * (rc.cap_ff / 2.0 + load - rc.cap_ff);
    nt[q.value].arrival_ps = clk_q + wire_delay;
    nt[q.value].arrival_min_ps = clk_q + wire_delay;
    nt[q.value].slew_ps = lc.output_slew_ps.lookup(opt.input_slew_ps, load);
    nt[q.value].driven = true;
    nt[q.value].from_register = true;
    // Setup estimate: a fraction of clk-to-q at nominal conditions.
    setup_ps = std::max(setup_ps, 0.25 * lc.delay_ps.lookup(20.0, 10.0));
  }

  // Propagate through combinational cells in topological order.
  {
    EUROCHIP_TRACE_SPAN("sta.arrival", "kernel");
    for (CellId id : order.value()) {
      const auto& lc = nl.lib_cell(id);
      if (lc.is_sequential()) continue;
      const auto& cell = nl.cell(id);
      double in_arrival = 0.0;
      double in_arrival_min = std::numeric_limits<double>::infinity();
      bool min_from_register = false;
      double in_slew = opt.input_slew_ps;
      NetId pred;
      for (NetId f : cell.fanin) {
        if (nt[f.value].arrival_ps >= in_arrival) {
          in_arrival = nt[f.value].arrival_ps;
          pred = f;
        }
        if (nt[f.value].arrival_min_ps < in_arrival_min) {
          in_arrival_min = nt[f.value].arrival_min_ps;
          min_from_register = nt[f.value].from_register;
        }
        in_slew = std::max(in_slew, nt[f.value].slew_ps);
      }
      if (cell.fanin.empty()) in_arrival_min = 0.0;
      const NetId out = cell.output;
      const WireRc rc = wire_rc(nl, out, rc_model, opt, routing);
      const double load = net_load_ff(nl, out, opt, rc.cap_ff);
      const double gate_delay =
          lc.delay_ps.empty() ? 0.0 : lc.delay_ps.lookup(in_slew, load);
      const double wire_delay = rc.res_kohm * (rc.cap_ff / 2.0 + (load - rc.cap_ff));
      nt[out.value].arrival_ps = in_arrival + gate_delay + wire_delay;
      nt[out.value].arrival_min_ps = in_arrival_min + gate_delay + wire_delay;
      nt[out.value].from_register = min_from_register;
      nt[out.value].slew_ps =
          lc.output_slew_ps.empty() ? in_slew
                                    : lc.output_slew_ps.lookup(in_slew, load);
      nt[out.value].pred = pred;
      nt[out.value].via_cell = id;
      nt[out.value].driven = true;
    }
  }

  // Endpoints.
  TimingReport report;
  report.clock_period_ps = opt.clock_period_ps;
  const double required_ff = opt.clock_period_ps - setup_ps -
                             opt.setup_margin_ps - opt.clock_skew_ps;
  const double required_po = opt.clock_period_ps - opt.setup_margin_ps;
  // Hold time estimate: a small fraction of the library's setup figure.
  const double hold_time_ps = 0.5 * setup_ps;

  NetId worst_net;
  double worst_slack = std::numeric_limits<double>::infinity();

  const auto add_endpoint = [&](const std::string& name, NetId net,
                                double required) {
    Endpoint ep;
    ep.name = name;
    ep.arrival_ps = nt[net.value].arrival_ps;
    ep.required_ps = required;
    ep.slack_ps = required - ep.arrival_ps;
    if (ep.slack_ps < worst_slack) {
      worst_slack = ep.slack_ps;
      worst_net = net;
    }
    report.tns_ps += std::min(0.0, ep.slack_ps);
    report.critical_path_delay_ps =
        std::max(report.critical_path_delay_ps, ep.arrival_ps);
    report.endpoints.push_back(std::move(ep));
  };

  report.worst_hold_slack_ps = std::numeric_limits<double>::infinity();
  for (CellId ff : nl.sequential_cells()) {
    const NetId d = nl.cell(ff).fanin[0];
    add_endpoint(std::string(nl.cell_name(ff)) + "/D", d, required_ff);
    // Hold: only register-to-register min paths race the captured clock.
    if (nt[d.value].from_register) {
      const double hold_slack =
          nt[d.value].arrival_min_ps -
          (opt.clock_skew_ps + hold_time_ps + opt.hold_margin_ps);
      report.worst_hold_slack_ps =
          std::min(report.worst_hold_slack_ps, hold_slack);
      if (hold_slack < 0.0) ++report.hold_violations;
    }
  }
  if (!std::isfinite(report.worst_hold_slack_ps)) {
    report.worst_hold_slack_ps = 0.0;  // no reg-to-reg paths
  }
  for (const auto& port : nl.outputs()) {
    add_endpoint(port.name, port.net, required_po);
  }
  if (report.endpoints.empty()) {
    return util::Status::FailedPrecondition("design has no timing endpoints");
  }

  std::sort(report.endpoints.begin(), report.endpoints.end(),
            [](const Endpoint& a, const Endpoint& b) {
              return a.slack_ps < b.slack_ps;
            });
  report.wns_ps = worst_slack;
  report.num_endpoints = report.endpoints.size();
  const double min_period = opt.clock_period_ps - worst_slack;
  report.fmax_mhz = min_period > 0.0 ? 1e6 / min_period : 0.0;

  // Critical-path backtrace.
  std::vector<PathStep> path;
  NetId at = worst_net;
  while (at.valid()) {
    PathStep step;
    step.point = nl.net(at).name;
    step.arrival_ps = nt[at.value].arrival_ps;
    const NetId prev = nt[at.value].pred;
    step.incr_ps = prev.valid()
                       ? step.arrival_ps - nt[prev.value].arrival_ps
                       : step.arrival_ps;
    path.push_back(std::move(step));
    at = prev;
  }
  std::reverse(path.begin(), path.end());
  report.critical_path = std::move(path);

  if (arrivals != nullptr) {
    arrivals->resize(nt.size());
    for (std::size_t i = 0; i < nt.size(); ++i) {
      (*arrivals)[i].arrival_ps = nt[i].arrival_ps;
      (*arrivals)[i].arrival_min_ps = nt[i].arrival_min_ps;
      (*arrivals)[i].driven = nt[i].driven;
    }
  }
  return report;
}

}  // namespace eurochip::timing
