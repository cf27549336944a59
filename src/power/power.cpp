#include "eurochip/power/power.hpp"

#include <algorithm>

#include "eurochip/netlist/side_table.hpp"
#include "eurochip/netlist/simulator.hpp"
#include "eurochip/util/trace.hpp"

namespace eurochip::power {

namespace {

/// The activity simulation splits its cycle budget into this many
/// independently seeded Monte-Carlo windows, each starting from reset and
/// each simulated as one lane of the same word-parallel passes.
constexpr int kActivityWindows = 8;

}  // namespace

util::Result<PowerReport> estimate(const netlist::Netlist& nl,
                                   const pdk::TechnologyNode& node,
                                   const PowerOptions& opt,
                                   const route::RoutedDesign* routing) {
  if (util::Status s = nl.check(); !s.ok()) return s;

  // Per-net toggle rate (transitions per cycle).
  netlist::IdMap<netlist::NetId, double> activity(nl.num_nets(),
                                                  opt.default_activity);
  if (opt.simulate_activity && opt.activity_cycles > 0) {
    util::trace::Span span;
    if (util::trace::enabled()) span.begin("power.activity", "kernel");
    auto sim = netlist::Simulator::create(nl);
    if (!sim.ok()) return sim.status();
    // Window w is lane w of one word-parallel simulation from reset. Its
    // seed is one draw on the base generator, and it draws its inputs from
    // its own generator, so each lane sees the stimulus it would see
    // simulated alone. Lane w is active for its first cycles[w] passes.
    util::Rng base(opt.seed);
    std::vector<util::Rng> rngs;
    std::vector<int> cycles;
    for (int w = 0; w < kActivityWindows; ++w) {
      rngs.emplace_back(base.next());
      cycles.push_back(opt.activity_cycles / kActivityWindows +
                       (w < opt.activity_cycles % kActivityWindows ? 1 : 0));
    }
    sim->reset();
    std::vector<std::uint64_t> in(sim->num_inputs());
    const int passes = cycles.front();  // window 0 is the longest
    for (int c = 0; c < passes; ++c) {
      std::uint64_t active = 0;
      std::fill(in.begin(), in.end(), 0);
      for (int w = 0; w < kActivityWindows; ++w) {
        if (c >= cycles[w]) continue;
        const std::uint64_t lane = std::uint64_t{1} << w;
        active |= lane;
        for (std::uint64_t& word : in) {
          if (rngs[w].chance(0.5)) word |= lane;
        }
      }
      sim->step_lanes(in, active);
    }
    if (span.active()) {
      span.annotate("lane_steps", static_cast<std::uint64_t>(passes));
      span.annotate("cell_evals", static_cast<std::uint64_t>(passes) *
                                      (nl.num_cells() -
                                       nl.sequential_cells().size()));
    }
    const std::vector<std::uint64_t>& toggles = sim->toggle_counts();
    for (std::size_t i = 0; i < toggles.size(); ++i) {
      activity[netlist::NetId{static_cast<std::uint32_t>(i)}] =
          static_cast<double>(toggles[i]) /
          static_cast<double>(opt.activity_cycles);
    }
  }

  PowerReport report;
  const double v2 = node.supply_v * node.supply_v;
  const double f_hz = opt.clock_mhz * 1e6;

  double activity_sum = 0.0;
  for (netlist::NetId id : nl.all_nets()) {
    const auto& net = nl.net(id);
    if (net.driver_kind == netlist::DriverKind::kNone) continue;
    // Net capacitance: sink pins + driver drain + wire (if routed).
    double cap_ff = 0.0;
    for (const auto& sink : net.sinks) {
      cap_ff += nl.lib_cell(sink.cell).input_cap_ff;
    }
    if (net.driver_kind == netlist::DriverKind::kCell) {
      cap_ff += nl.lib_cell(net.driver_cell).output_cap_ff;
    }
    if (routing != nullptr && id.value < routing->nets.size() &&
        routing->nets[id.value].routed) {
      cap_ff += node.layers.front().cap_ff_per_um * routing->net_length_um(id);
    }
    // P = 0.5 * alpha * C * V^2 * f ; cap in fF (1e-15), power reported uW.
    const double p_w = 0.5 * activity[id] * cap_ff * 1e-15 * v2 * f_hz;
    report.dynamic_uw += p_w * 1e6;
    activity_sum += activity[id];
    ++report.nets_analyzed;
  }

  // Clock tree: every DFF clock pin toggles twice per cycle (alpha = 2).
  for (netlist::CellId ff : nl.sequential_cells()) {
    const double cap_ff = nl.lib_cell(ff).input_cap_ff;
    report.clock_tree_uw += 0.5 * 2.0 * cap_ff * 1e-15 * v2 * f_hz * 1e6;
  }

  report.leakage_uw = nl.total_leakage_nw() * 1e-3;
  report.total_uw =
      report.dynamic_uw + report.leakage_uw + report.clock_tree_uw;
  report.average_activity =
      report.nets_analyzed > 0
          ? activity_sum / static_cast<double>(report.nets_analyzed)
          : 0.0;
  return report;
}

}  // namespace eurochip::power
